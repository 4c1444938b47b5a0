"""Command-line front end.

Subcommands: geodesic-eval, verify-closed-forms, bracket, cutlocus-search,
verify-L, verify-antidiagonal, uniqueness.  Reports are JSON (CSV for curve
sampling) and byte-identical across runs for a fixed configuration and seed.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 numerical
invariant violation.

Option precedence: command-line flags > --config file > built-in defaults.
The config file is a JSON object whose keys mirror the long option names
(with dashes or underscores), plus optional "grid" and "tolerances" records;
the tolerances record replaces the library-wide tolerances before the command
runs and is the only way to set them.  Config values go through the
subcommand's own option types and choices (an integer option takes only
integral numbers), and a key that names no option of any subcommand is a
usage error.
"""

from __future__ import annotations

import argparse
import json
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

_GRID_KEYS = (
    "lambda_range",
    "lambda_count",
    "phase_count",
    "direction_count",
    "sample_count",
    "t_max",
    "t_count",
    "family",
)


class _UsageError(Exception):
    pass


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="stiefel-sr",
        description="Sub-Riemannian Stiefel geodesics: evaluation and experiments",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, *, n=False, k=False, mode=True, seed=True):
        p.add_argument("--config", type=str, default=None, help="JSON config file")
        p.add_argument("--out", type=str, default=None, help="output path ('-' = stdout)")
        if n:
            p.add_argument("--n", type=int, default=None)
        if k:
            p.add_argument("--k", type=int, default=None)
        if mode:
            p.add_argument("--mode", choices=MODES, default=None)
        if seed:
            p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("geodesic-eval", help="sample a geodesic to CSV")
    common(p, n=True, k=True)
    p.add_argument("--velocity", type=str, default=None, help="inline velocity JSON")
    p.add_argument("--velocity-file", type=str, default=None)
    p.add_argument("--t-max", type=float, default=None)
    p.add_argument("--samples", type=int, default=None)

    p = sub.add_parser("verify-closed-forms", help="closed forms vs generic evaluator")
    common(p)
    p.add_argument("--trials", type=int, default=None)
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
    for key in _GRID_KEYS:
        if key == "lambda_range":
            p.add_argument("--lambda-min", type=float, default=None)
            p.add_argument("--lambda-max", type=float, default=None)
        elif key == "family":
            p.add_argument("--family", choices=("auto", "v21", "sphere", "general"), default=None)
        else:
            p.add_argument(f"--{key.replace('_', '-')}", type=float if key == "t_max" else int, default=None)

    p = sub.add_parser("verify-L", help="mirrored arrivals at block-diagonal targets")
    common(p, n=True, k=True)
    p.add_argument("--samples", type=int, default=None)

    p = sub.add_parser("verify-antidiagonal", help="unique arrivals at antidiagonal targets")
    common(p, k=True)
    p.add_argument("--samples", type=int, default=None)

    p = sub.add_parser("uniqueness", help="scalar facts behind the uniqueness argument")
    common(p, n=True)
    p.add_argument("--trials", type=int, default=None)
    return top


_PARSER = _build_parser()
# {subcommand: {dest: action}}: config values are converted by these actions
_OPTIONS = {
    name: {a.dest: a for a in p._actions}
    for name, p in next(
        a for a in _PARSER._actions if isinstance(a, argparse._SubParsersAction)
    ).choices.items()
}


def _option_value(action: argparse.Action, name: str, value):
    """A config value converted by the option's own type and checked against its choices."""
    switch = action.nargs == 0  # a store_true flag takes a JSON boolean
    try:
        if isinstance(value, bool) != switch:
            raise TypeError(name)
        if action.type is int and not float(value).is_integer():
            raise ValueError(name)
        val = value if switch or action.type is None else action.type(value)
    except (TypeError, ValueError, OverflowError) as err:
        kind = "true or false" if switch else getattr(action.type, "__name__", "a value")
        raise _UsageError(f"{name} must be {kind}, got {value!r}") from err
    if action.choices is not None and val not in action.choices:
        raise _UsageError(f"{name} must be one of {', '.join(action.choices)}, got {value!r}")
    return val


def _load_config(path: str | None, command: str) -> dict:
    if not path:
        return {}
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        raise _UsageError(f"cannot read config file {path}: {err}") from err
    if not isinstance(cfg, dict):
        raise _UsageError("config file must hold a JSON object")
    # a key of another subcommand's option is accepted and unused, so one
    # config file can serve several subcommands
    known = {dest for acts in _OPTIONS.values() for dest in acts} - {"help", "config"}
    out = {}
    for key, value in cfg.items():
        key = str(key).replace("-", "_")
        if key not in known | {"grid", "tolerances"}:
            raise _UsageError(f"unknown config key {key!r}")
        if key in ("grid", "tolerances") or value is None:
            out[key] = value
        elif key in _OPTIONS[command]:
            out[key] = _option_value(_OPTIONS[command][key], f"config {key}", value)
    return out


def _pick(args, cfg: dict, name: str, default=None):
    val = getattr(args, name, None)
    if val is not None and val is not False:
        return val
    if name in cfg and cfg[name] is not None:
        return cfg[name]
    return default


def _emit(args, cfg, payload: dict) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    out = _pick(args, cfg, "out", "-")
    if out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _parse_velocity(args, cfg) -> BlockVelocity:
    inline = _pick(args, cfg, "velocity")
    path = _pick(args, cfg, "velocity_file")
    if inline and path:
        raise _UsageError("give either --velocity or --velocity-file, not both")
    if not inline and not path:
        raise _UsageError("a velocity is required (--velocity or --velocity-file)")
    try:
        raw = inline if inline else open(path).read()
        data = json.loads(raw)
        return BlockVelocity.from_json_dict(data)
    except InvariantViolation:
        raise
    except (OSError, json.JSONDecodeError, KeyError, ValueError, TypeError) as err:
        raise _UsageError(f"malformed velocity JSON: {err}") from err


def _parse_target(args, cfg) -> StiefelPoint:
    inline = _pick(args, cfg, "target")
    path = _pick(args, cfg, "target_file")
    if not inline and not path:
        raise _UsageError("a target is required (--target or --target-file)")
    try:
        raw = inline if inline else open(path).read()
        return StiefelPoint.from_json_dict(json.loads(raw))
    except InvariantViolation:
        raise
    except (OSError, json.JSONDecodeError, KeyError, ValueError, TypeError) as err:
        raise _UsageError(f"malformed target JSON: {err}") from err


def _require(args, cfg, name: str):
    val = _pick(args, cfg, name)
    if val is None:
        raise _UsageError(f"missing required option --{name.replace('_', '-')}")
    return val


def _record(value, name: str) -> dict:
    if not isinstance(value, dict):
        raise _UsageError(f"the {name} record must be a JSON object, got {value!r}")
    return value


def _apply_tolerances(cfg: dict) -> None:
    tol_cfg = cfg.get("tolerances")
    if tol_cfg is not None:
        tolerances.configure(**_record(tol_cfg, "tolerances"))


def _grid_from(args, cfg, n: int, k: int, mode: str, seed: int) -> VelocityGrid:
    grid_cfg = dict(_record(cfg.get("grid") or {}, "grid"))
    inline = getattr(args, "grid", None)
    if inline:  # inline record overrides the config file, flags override both
        try:
            grid_cfg.update(_record(json.loads(inline), "grid"))
        except json.JSONDecodeError as err:
            raise _UsageError(f"malformed grid JSON: {err}") from err
    kwargs = {"n": n, "k": k, "mode": mode, "seed": seed}

    def option(key: str):
        val = _pick(args, grid_cfg, key)
        action = _OPTIONS["cutlocus-search"][key]
        return None if val is None else _option_value(action, f"grid {key}", val)

    rng_cfg = grid_cfg.get("lambda_range")
    if rng_cfg is not None:
        if not (
            isinstance(rng_cfg, list)
            and len(rng_cfg) == 2
            and all(isinstance(x, (int, float)) for x in rng_cfg)
        ):
            raise _UsageError(f"grid lambda_range must be two numbers, got {rng_cfg!r}")
        kwargs["lambda_range"] = (float(rng_cfg[0]), float(rng_cfg[1]))
    lam_lo, lam_hi = option("lambda_min"), option("lambda_max")
    if lam_lo is not None or lam_hi is not None:
        base = kwargs.get("lambda_range", VelocityGrid(n, k).lambda_range)
        kwargs["lambda_range"] = (
            lam_lo if lam_lo is not None else base[0],
            lam_hi if lam_hi is not None else base[1],
        )
    for key in _GRID_KEYS[1:]:
        val = option(key)
        if val is not None:
            kwargs[key] = val
    return VelocityGrid(**kwargs)


def _cmd_geodesic_eval(args, cfg) -> int:
    n = _require(args, cfg, "n")
    k = _require(args, cfg, "k")
    mode = _pick(args, cfg, "mode", COMPLEX)
    vel = _parse_velocity(args, cfg)
    if (vel.n, vel.k) != (n, k) or vel.mode != mode:
        raise _UsageError(
            f"velocity is for (n={vel.n}, k={vel.k}, mode={vel.mode}), "
            f"flags say (n={n}, k={k}, mode={mode})"
        )
    t_max = _pick(args, cfg, "t_max", np.pi)
    samples = _pick(args, cfg, "samples", 64)
    if samples < 1:
        raise _UsageError("--samples must be positive")
    ts = np.linspace(0.0, t_max, samples)
    out = _pick(args, cfg, "out", "geodesic.csv")
    if out == "-":
        raise _UsageError("geodesic-eval writes a CSV file; give --out PATH")
    write_curve_csv(out, GeodesicSpec(vel), ts)
    return EXIT_OK


def _cmd_verify_closed_forms(args, cfg) -> int:
    trials = _pick(args, cfg, "trials", 1000)
    if trials < 0:
        raise _UsageError("--trials must be >= 0")
    seed = _pick(args, cfg, "seed", 0)
    flip = _pick(args, cfg, "inject_sign_flip", False)
    if trials == 0:
        sys.stderr.write("warning: 0 trials requested; verification is vacuous\n")
    suites = closed_form_suites(trials, seed, sign_flip=flip)
    ok = all(s["pass"] for s in suites)
    _emit(args, cfg, {"suites": suites, "pass": ok})
    return EXIT_OK if ok else EXIT_VERIFICATION_FAILED


def _cmd_bracket(args, cfg) -> int:
    n = _require(args, cfg, "n")
    k = _require(args, cfg, "k")
    mode = _pick(args, cfg, "mode", COMPLEX)
    report = bracket_generating_rank(n, k, mode)
    _emit(args, cfg, report.to_json_dict())
    return EXIT_OK if report.generating else EXIT_VERIFICATION_FAILED


def _cmd_cutlocus_search(args, cfg) -> int:
    n = _require(args, cfg, "n")
    k = _require(args, cfg, "k")
    mode = _pick(args, cfg, "mode", COMPLEX)
    seed = _pick(args, cfg, "seed", 0)
    target = _parse_target(args, cfg)
    if (target.n, target.k) != (n, k) or target.mode != mode:
        raise _UsageError("target does not match --n/--k/--mode")
    report = search_minimizers(target, _grid_from(args, cfg, n, k, mode, seed))
    payload = report.to_json_dict()
    payload["pass"] = len(report.arrivals) > 0
    _emit(args, cfg, payload)
    return EXIT_OK if payload["pass"] else EXIT_VERIFICATION_FAILED


def _cmd_verify_l(args, cfg) -> int:
    n = _require(args, cfg, "n")
    k = _require(args, cfg, "k")
    mode = _pick(args, cfg, "mode", COMPLEX)
    samples = _pick(args, cfg, "samples", 50)
    seed = _pick(args, cfg, "seed", 0)
    summary = verify_mirror_arrivals(n, k, samples=samples, seed=seed, mode=mode)
    _emit(args, cfg, summary.to_json_dict())
    return EXIT_OK if summary.passed else EXIT_VERIFICATION_FAILED


def _cmd_verify_antidiagonal(args, cfg) -> int:
    k = _require(args, cfg, "k")
    mode = _pick(args, cfg, "mode", COMPLEX)
    samples = _pick(args, cfg, "samples", 20)
    seed = _pick(args, cfg, "seed", 0)
    summary = verify_antidiagonal_arrivals(k, samples=samples, seed=seed, mode=mode)
    _emit(args, cfg, summary.to_json_dict())
    return EXIT_OK if summary.passed else EXIT_VERIFICATION_FAILED


def _cmd_uniqueness(args, cfg) -> int:
    n = _require(args, cfg, "n")
    trials = _pick(args, cfg, "trials", 200)
    seed = _pick(args, cfg, "seed", 0)
    summary = uniqueness_case_checks(n, trials=trials, seed=seed)
    _emit(args, cfg, summary.to_json_dict())
    return EXIT_OK if summary.passed else EXIT_VERIFICATION_FAILED


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
        args = _PARSER.parse_args(argv)
    except SystemExit as err:
        return EXIT_USAGE if err.code not in (0, None) else EXIT_OK
    try:
        cfg = _load_config(args.config, args.command)
        _apply_tolerances(cfg)
        return _HANDLERS[args.command](args, cfg)
    except _UsageError as err:
        sys.stderr.write(f"error: {err}\n")
        return EXIT_USAGE
    except InvariantViolation as err:
        sys.stderr.write(f"numerical invariant violation: {err}\n")
        return EXIT_INVARIANT
    except ValueError as err:
        sys.stderr.write(f"error: {err}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
