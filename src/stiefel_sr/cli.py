"""Command-line front end.

Subcommands: geodesic-eval, verify-closed-forms, bracket, cutlocus-search,
verify-L, verify-antidiagonal, uniqueness.  Reports are JSON (CSV for curve
sampling) and byte-identical across runs for a fixed configuration and seed.
They are standard JSON: a bound that no sample reached (an infinite minimum)
is written as null.

Exit codes: 0 success, 1 verification failure, 2 usage error (an unwritable
--out included), 3 numerical invariant violation.  An --out whose directory
does not exist, or that names a directory, is rejected before the command
runs.

Option precedence, the same for every option: command-line flags > inline
--grid record > config "grid" record > top-level config keys > built-in
defaults.  The config file is a JSON object whose keys mirror the long option
names (with dashes or underscores), plus optional "grid" and "tolerances"
records.  Config values go through the subcommand's own option types and
choices (an integer option takes only integral numbers) and then become the
subcommand parser's defaults, so a value takes effect wherever its flag
would.  A key that names no option of any subcommand is a usage error; a key
of another subcommand's option is accepted and unused.

A grid record (config "grid", or cutlocus-search's inline --grid) holds the
cutlocus-search grid options, which are also accepted at top level; a
two-number "lambda_range" stands for lambda_min and lambda_max.  A grid record
may also carry n, k, mode and seed, so a search report's own "grid" record,
given back as the config "grid", reproduces that search byte for byte.  An
unknown key in a grid record is a usage error, and only cutlocus-search reads
grid records.  The tolerances record replaces the library-wide tolerances
before the command runs and is the only way to set them.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import tolerances
from .matcore import COMPLEX, InvariantViolation, MODES
from .homspace import BlockVelocity, StiefelPoint
from .geodesic import GeodesicSpec, write_curve_csv
from .distribution import bracket_generating_rank
from .cutlocus import (
    VelocityGrid,
    search_minimizers,
    uniqueness_case_checks,
    verify_antidiagonal_arrivals,
    verify_mirror_arrivals,
)
from .verify import closed_form_suites

EXIT_OK = 0
EXIT_VERIFICATION_FAILED = 1
EXIT_USAGE = 2
EXIT_INVARIANT = 3

# VelocityGrid fields that are cutlocus-search options of the same name
_GRID_OPTIONS = (
    "lambda_count",
    "phase_count",
    "direction_count",
    "sample_count",
    "t_max",
    "t_count",
    "family",
)
# the keys a grid record may hold: the keys of a report's "grid" record, with
# lambda_range split into its two options
_GRID_KEYS = ("n", "k", "mode", "seed", "lambda_min", "lambda_max") + _GRID_OPTIONS


class _UsageError(Exception):
    pass


def _build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The top-level parser and its subcommand parsers by name."""
    top = argparse.ArgumentParser(
        prog="stiefel-sr",
        description="Sub-Riemannian Stiefel geodesics: evaluation and experiments",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, *, n=False, k=False, mode=True, seed=True, out="-"):
        p.add_argument("--config", type=str, default=None, help="JSON config file")
        p.add_argument("--out", type=str, default=out, help="output path ('-' = stdout)")
        if n:
            p.add_argument("--n", type=int, default=None)
        if k:
            p.add_argument("--k", type=int, default=None)
        if mode:
            p.add_argument("--mode", choices=MODES, default=COMPLEX)
        if seed:
            p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("geodesic-eval", help="sample a geodesic to CSV")
    common(p, n=True, k=True, out="geodesic.csv")
    p.add_argument("--velocity", type=str, default=None, help="inline velocity JSON")
    p.add_argument("--velocity-file", type=str, default=None)
    p.add_argument("--t-max", type=float, default=np.pi)
    p.add_argument("--samples", type=int, default=64)

    p = sub.add_parser("verify-closed-forms", help="closed forms vs generic evaluator")
    common(p)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument(
        "--inject-sign-flip",
        action="store_true",
        help="testing aid: mis-group phases in the first closed form (must fail)",
    )

    p = sub.add_parser("bracket", help="bracket-generating rank report")
    common(p, n=True, k=True, seed=False)

    p = sub.add_parser("cutlocus-search", help="minimizer search at a target")
    common(p, n=True, k=True)
    p.add_argument("--target", type=str, default=None, help="inline target JSON")
    p.add_argument("--target-file", type=str, default=None)
    p.add_argument("--grid", type=str, default=None, help="inline grid JSON record")
    lam_lo, lam_hi = VelocityGrid.lambda_range
    p.add_argument("--lambda-min", type=float, default=lam_lo)
    p.add_argument("--lambda-max", type=float, default=lam_hi)
    for key in _GRID_OPTIONS:
        flag, default = f"--{key.replace('_', '-')}", getattr(VelocityGrid, key)
        if key == "family":
            p.add_argument(flag, choices=("auto", "v21", "sphere", "general"), default=default)
        else:
            p.add_argument(flag, type=float if key == "t_max" else int, default=default)

    p = sub.add_parser("verify-L", help="mirrored arrivals at block-diagonal targets")
    common(p, n=True, k=True)
    p.add_argument("--samples", type=int, default=50)

    p = sub.add_parser("verify-antidiagonal", help="unique arrivals at antidiagonal targets")
    common(p, k=True)
    p.add_argument("--samples", type=int, default=20)

    p = sub.add_parser("uniqueness", help="scalar facts behind the uniqueness argument")
    common(p, n=True)
    p.add_argument("--trials", type=int, default=200)
    return top, sub.choices


def _option_value(action: argparse.Action, name: str, value):
    """A config value converted by the option's own type and checked against its choices.

    A string option takes only a string; an inline JSON option also takes the object.
    """
    switch = action.nargs == 0  # a store_true flag takes a JSON boolean
    if action.dest in ("velocity", "target") and isinstance(value, dict):
        return json.dumps(value)  # the JSON text the inline flag would carry
    try:
        if isinstance(value, bool) != switch:
            raise TypeError(name)
        if action.type is int and not float(value).is_integer():
            raise ValueError(name)
        if action.type is str and not isinstance(value, str):
            raise TypeError(name)
        val = value if switch or action.type is None else action.type(value)
    except (TypeError, ValueError, OverflowError) as err:
        kind = "true or false" if switch else getattr(action.type, "__name__", "a value")
        raise _UsageError(f"{name} must be {kind}, got {value!r}") from err
    if action.choices is not None and val not in action.choices:
        raise _UsageError(f"{name} must be one of {', '.join(action.choices)}, got {value!r}")
    return val


def _record(value, name: str) -> dict:
    """A JSON object's entries, with underscores for dashes in its keys."""
    if not isinstance(value, dict):
        raise _UsageError(f"the {name} must be a JSON object, got {value!r}")
    return {str(key).replace("-", "_"): val for key, val in value.items()}


def _grid_record(value) -> dict:
    grid = _record(value, "grid record")
    rng = grid.pop("lambda_range", None)
    if rng is not None:
        if not (isinstance(rng, list) and len(rng) == 2):
            raise _UsageError(f"grid lambda_range must be two numbers, got {rng!r}")
        grid = {"lambda_min": rng[0], "lambda_max": rng[1], **grid}
    for key in grid:
        if key not in _GRID_KEYS:
            raise _UsageError(f"unknown grid key {key!r}")
    return grid


def _load_json(text: str | None, path: str | None, name: str):
    """JSON given inline or in a file, exactly one of the two."""
    if text and path:
        raise _UsageError(f"give either --{name} or --{name}-file, not both")
    if not text and not path:
        raise _UsageError(f"a {name} is required (--{name} or --{name}-file)")
    try:
        if path:
            with open(path) as fh:
                text = fh.read()
        return json.loads(text)
    except (OSError, json.JSONDecodeError) as err:
        raise _UsageError(f"cannot read {name} JSON: {err}") from err


def _parse(argv) -> argparse.Namespace:
    """Parse argv with the config and grid values as the subcommand's defaults."""
    top, subs = _build_parser()
    args = top.parse_args(argv)  # learns the subcommand, --config and --grid
    options = {a.dest: a for a in subs[args.command]._actions}
    cfg = _load_json(None, args.config, "config") if args.config else {}
    cfg = {key: val for key, val in _record(cfg, "config file").items() if val is not None}
    tol = _record(cfg.pop("tolerances", {}), "tolerances record")
    records = [_grid_record(cfg.pop("grid"))] if "grid" in cfg else []
    if getattr(args, "grid", None):
        records.append(_grid_record(_load_json(args.grid, None, "grid")))
    # a key of another subcommand's option is accepted and unused, so one
    # config file can serve several subcommands
    known = {a.dest for p in subs.values() for a in p._actions} - {"help", "config"}
    for key in cfg:
        if key not in known:
            raise _UsageError(f"unknown config key {key!r}")
    layers = [("config", cfg)]
    if "grid" in options:  # only cutlocus-search reads grid records
        layers += [("grid", record) for record in records]
    defaults = {}
    for name, layer in layers:
        for key, value in layer.items():
            if key in options and value is not None:
                defaults[key] = _option_value(options[key], f"{name} {key}", value)
    subs[args.command].set_defaults(**defaults)
    args = top.parse_args(argv)
    for name in ("n", "k"):
        if name in options and getattr(args, name) is None:
            raise _UsageError(f"missing required option --{name}")
    if getattr(args, "seed", 0) < 0:
        raise _UsageError(f"--seed must be >= 0, got {args.seed}")
    _check_out(args.out)
    tolerances.configure(**tol)
    return args


def _check_out(path: str) -> None:
    """Reject an --out that cannot become a file before the command runs, not after.

    Its directory must exist and the path must not be a directory.  Nothing
    is opened here, so an existing file keeps its contents until the report
    replaces it.
    """
    if path == "-":
        return
    if os.path.isdir(path):
        raise _UsageError(f"--out {path!r} is a directory")
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        raise _UsageError(f"--out {path!r}: no such directory {parent!r}")


def _finite_json(value):
    """``value`` with every non-finite float replaced by None: RFC 8259 JSON has
    no Infinity or NaN, and a bound with nothing to bound reads as null."""
    if isinstance(value, dict):
        return {key: _finite_json(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_json(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _emit(args, payload: dict, ok: bool) -> int:
    """Write ``payload`` as the report; return the exit code of a check that passed if ``ok``."""
    text = json.dumps(_finite_json(payload), indent=2, sort_keys=True, allow_nan=False) + "\n"
    if args.out == "-":
        sys.stdout.write(text)
    else:
        with open(args.out, "w") as fh:
            fh.write(text)
    return EXIT_OK if ok else EXIT_VERIFICATION_FAILED


def _from_json(args, name: str, build):
    """``build`` applied to the JSON of --NAME or --NAME-file."""
    data = _load_json(getattr(args, name), getattr(args, f"{name}_file"), name)
    try:
        return build(data)
    except InvariantViolation:
        raise
    except (KeyError, ValueError, TypeError) as err:
        raise _UsageError(f"malformed {name} JSON: {err}") from err


def _cmd_geodesic_eval(args) -> int:
    vel = _from_json(args, "velocity", BlockVelocity.from_json_dict)
    if (vel.n, vel.k) != (args.n, args.k) or vel.mode != args.mode:
        raise _UsageError(
            f"velocity is for (n={vel.n}, k={vel.k}, mode={vel.mode}), "
            f"flags say (n={args.n}, k={args.k}, mode={args.mode})"
        )
    if args.samples < 1:
        raise _UsageError("--samples must be positive")
    if not math.isfinite(args.t_max):
        raise _UsageError(f"--t-max must be finite, got {args.t_max}")
    if args.out == "-":
        raise _UsageError("geodesic-eval writes a CSV file; give --out PATH")
    write_curve_csv(args.out, GeodesicSpec(vel), np.linspace(0.0, args.t_max, args.samples))
    return EXIT_OK


def _cmd_verify_closed_forms(args) -> int:
    if args.trials < 0:
        raise _UsageError("--trials must be >= 0")
    if args.trials == 0:
        sys.stderr.write("warning: 0 trials requested; verification is vacuous\n")
    suites = closed_form_suites(args.trials, args.seed, sign_flip=args.inject_sign_flip)
    ok = all(s["pass"] for s in suites)
    return _emit(args, {"suites": suites, "pass": ok}, ok)


def _cmd_bracket(args) -> int:
    report = bracket_generating_rank(args.n, args.k, args.mode)
    return _emit(args, report.to_json_dict(), report.generating)


def _cmd_cutlocus_search(args) -> int:
    target = _from_json(args, "target", StiefelPoint.from_json_dict)
    if (target.n, target.k) != (args.n, args.k) or target.mode != args.mode:
        raise _UsageError("target does not match --n/--k/--mode")
    grid = VelocityGrid(
        args.n,
        args.k,
        args.mode,
        lambda_range=(args.lambda_min, args.lambda_max),
        seed=args.seed,
        **{key: getattr(args, key) for key in _GRID_OPTIONS},
    )
    report = search_minimizers(target, grid)
    ok = len(report.arrivals) > 0
    return _emit(args, {**report.to_json_dict(), "pass": ok}, ok)


def _cmd_verify_l(args) -> int:
    summary = verify_mirror_arrivals(
        args.n, args.k, samples=args.samples, seed=args.seed, mode=args.mode
    )
    return _emit(args, summary.to_json_dict(), summary.passed)


def _cmd_verify_antidiagonal(args) -> int:
    summary = verify_antidiagonal_arrivals(
        args.k, samples=args.samples, seed=args.seed, mode=args.mode
    )
    return _emit(args, summary.to_json_dict(), summary.passed)


def _cmd_uniqueness(args) -> int:
    summary = uniqueness_case_checks(args.n, trials=args.trials, seed=args.seed)
    return _emit(args, summary.to_json_dict(), summary.passed)


_HANDLERS = {
    "geodesic-eval": _cmd_geodesic_eval,
    "verify-closed-forms": _cmd_verify_closed_forms,
    "bracket": _cmd_bracket,
    "cutlocus-search": _cmd_cutlocus_search,
    "verify-L": _cmd_verify_l,
    "verify-antidiagonal": _cmd_verify_antidiagonal,
    "uniqueness": _cmd_uniqueness,
}


def main(argv=None) -> int:
    try:
        args = _parse(argv)
        return _HANDLERS[args.command](args)
    except SystemExit as err:  # argparse: --help, or a malformed command line
        return EXIT_USAGE if err.code not in (0, None) else EXIT_OK
    except _UsageError as err:
        sys.stderr.write(f"error: {err}\n")
        return EXIT_USAGE
    except InvariantViolation as err:
        sys.stderr.write(f"numerical invariant violation: {err}\n")
        return EXIT_INVARIANT
    except (ValueError, OSError) as err:  # OSError: an unwritable --out
        sys.stderr.write(f"error: {err}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
