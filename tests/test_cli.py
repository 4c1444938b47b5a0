import csv
import json
import shlex
from pathlib import Path

import numpy as np
import pytest

from stiefel_sr import cli
from stiefel_sr.cli import EXIT_USAGE, main
from stiefel_sr.homspace import BlockVelocity, StiefelPoint

README = Path(__file__).resolve().parent.parent / "README.md"
GRID_OPTIONS = {
    "lambda_min", "lambda_max", "lambda_count", "phase_count", "direction_count",
    "sample_count", "t_max", "t_count", "family",
}


def run(*args):
    return main(list(args))


def velocity_json(lam, x2):
    v = BlockVelocity(np.array([[1j * lam]]), np.array([[x2]], dtype=complex))
    return json.dumps(v.to_json_dict())


def target_json(cols):
    return json.dumps(StiefelPoint(np.asarray(cols, dtype=complex)).to_json_dict())


class TestGeodesicEval:
    def test_zero_velocity_rows_identical(self, tmp_path):
        out = tmp_path / "curve.csv"
        code = run(
            "geodesic-eval",
            "--n", "2", "--k", "1",
            "--velocity", velocity_json(0.0, 0.0),
            "--t-max", "1.0", "--samples", "10",
            "--out", str(out),
        )
        assert code == 0
        rows = list(csv.reader(out.read_text().splitlines()[2:]))
        assert len(rows) == 10
        payloads = {tuple(r[1:]) for r in rows}
        assert len(payloads) == 1  # identity class at every sample

    def test_unit_transversal_endpoint(self, tmp_path):
        out = tmp_path / "curve.csv"
        code = run(
            "geodesic-eval",
            "--n", "2", "--k", "1",
            "--velocity", velocity_json(0.0, 1.0),
            "--t-max", str(np.pi), "--samples", "11",
            "--out", str(out),
        )
        assert code == 0
        last = list(csv.reader(out.read_text().splitlines()[2:]))[-1]
        vals = [float(v) for v in last]
        assert vals[1] == pytest.approx(-1.0, abs=1e-9)  # top entry
        assert abs(vals[3]) < 1e-9  # bottom entry

    def test_missing_n_is_usage_error(self):
        assert run("geodesic-eval", "--k", "1", "--velocity", velocity_json(0, 1)) == 2

    def test_malformed_velocity_json(self):
        assert (
            run("geodesic-eval", "--n", "2", "--k", "1", "--velocity", "{not json")
            == 2
        )

    def test_invalid_matrix_is_invariant_violation(self):
        # well-formed JSON whose fibre block is not skew: exit 3, not 2
        bad = json.dumps(
            {
                "n": 2,
                "k": 1,
                "mode": "complex",
                "re": [[1.0, 0.0], [0.0, 0.0]],
                "im": [[0.0, 0.0], [0.0, 0.0]],
            }
        )
        assert run("geodesic-eval", "--n", "2", "--k", "1", "--velocity", bad) == 3

    def test_velocity_flag_mismatch(self):
        assert (
            run("geodesic-eval", "--n", "3", "--k", "1", "--velocity", velocity_json(0, 1))
            == 2
        )


class TestVerifyClosedForms:
    def test_small_run_passes(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert run("verify-closed-forms", "--trials", "40", "--out", str(out)) == 0
        payload = json.loads(out.read_text())
        assert payload["pass"] is True
        assert {s["suite"] for s in payload["suites"]} == {"v21", "vn1", "grassmann_2kk"}
        assert all(s["max_error"] < 1e-9 for s in payload["suites"])

    def test_zero_trials_vacuous_with_warning(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert run("verify-closed-forms", "--trials", "0", "--out", str(out)) == 0
        assert "vacuous" in capsys.readouterr().err
        assert json.loads(out.read_text())["pass"] is True

    def test_injected_sign_flip_fails_loudly(self, tmp_path):
        out = tmp_path / "report.json"
        code = run(
            "verify-closed-forms", "--trials", "40", "--inject-sign-flip", "--out", str(out)
        )
        assert code == 1
        payload = json.loads(out.read_text())
        v21 = next(s for s in payload["suites"] if s["suite"] == "v21")
        assert v21["max_error"] > 0.1  # order-one discrepancy


class TestBracket:
    def test_generating_report(self, tmp_path):
        out = tmp_path / "bracket.json"
        assert run("bracket", "--n", "4", "--k", "2", "--out", str(out)) == 0
        payload = json.loads(out.read_text())
        assert payload["generating"] is True
        assert payload["target_dim"] == 12

    def test_requires_arguments(self):
        assert run("bracket", "--n", "4") == 2


class TestExperiments:
    def test_verify_l(self, tmp_path):
        out = tmp_path / "l.json"
        code = run(
            "verify-L", "--n", "3", "--k", "1", "--samples", "100", "--seed", "9",
            "--out", str(out),
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["passed"] is True and payload["samples"] == 100

    def test_verify_antidiagonal_reports_zero_time(self, tmp_path):
        out = tmp_path / "anti.json"
        code = run(
            "verify-antidiagonal", "--k", "2", "--samples", "5", "--seed", "2",
            "--out", str(out),
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["passed"] is True
        assert payload["t_zero"] == pytest.approx(np.pi * np.sqrt(2) / 2, rel=1e-12)

    def test_uniqueness(self, tmp_path):
        out = tmp_path / "u.json"
        assert run("uniqueness", "--n", "3", "--trials", "40", "--out", str(out)) == 0
        assert json.loads(out.read_text())["passed"] is True

    def test_unknown_command(self):
        assert run("no-such-command") == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify-L", "--n", "3", "--k", "1", "--samples", "-1"],
            ["verify-antidiagonal", "--k", "2", "--samples", "0"],
            ["verify-antidiagonal", "--k", "2", "--samples", "-2"],
            ["uniqueness", "--n", "3", "--trials", "0"],
            ["uniqueness", "--n", "3", "--trials", "-5"],
        ],
    )
    def test_nothing_to_check_is_usage_error(self, capsys, argv):
        assert run(*argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


class TestCutlocusSearch:
    def test_reproducible_bytes(self, tmp_path):
        args = [
            "cutlocus-search", "--n", "2", "--k", "1", "--seed", "5",
            "--lambda-count", "12", "--phase-count", "12", "--t-count", "96",
            "--target", target_json([[-1.0], [0.0]]),
        ]
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert run(*args, "--out", str(out1)) == 0
        assert run(*args, "--out", str(out2)) == 0
        assert out1.read_bytes() == out2.read_bytes()
        payload = json.loads(out1.read_text())
        assert payload["pass"] is True
        assert payload["clusters"] >= 2
        assert payload["target"]["kind"] == "block_diagonal"

    def test_missing_target(self):
        assert run("cutlocus-search", "--n", "2", "--k", "1") == 2

    def test_help_lists_no_tolerance_or_format_flags(self, capsys):
        assert run("cutlocus-search", "--help") == 0
        out = capsys.readouterr().out
        assert "--target" in out
        for flag in ("--eps-hit", "--eps-v", "--format"):
            assert flag not in out

    def test_degenerate_grid_is_usage_error(self, capsys):
        code = run(
            "cutlocus-search", "--n", "2", "--k", "1", "--t-count", "1",
            "--target", target_json([[-1.0], [0.0]]),
        )
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert "t_count" in err and "Traceback" not in err

    def test_inline_grid_record(self, tmp_path):
        out = tmp_path / "r.json"
        code = run(
            "cutlocus-search", "--n", "2", "--k", "1",
            "--target", target_json([[-1.0], [0.0]]),
            "--grid", json.dumps({"lambda_count": 8, "phase_count": 8, "t_count": 64}),
            "--out", str(out),
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["grid"]["lambda_count"] == 8
        assert payload["grid"]["phase_count"] == 8

    def test_no_arrivals_is_verification_failure(self, tmp_path):
        out = tmp_path / "r.json"
        code = run(
            "cutlocus-search", "--n", "2", "--k", "1",
            "--target", target_json([[-1.0], [0.0]]),
            "--t-max", "0.4", "--t-count", "48",
            "--lambda-count", "8", "--phase-count", "8",
            "--out", str(out),
        )
        assert code == 1
        assert json.loads(out.read_text())["arrivals"] == []


class TestConfigPrecedence:
    def test_flags_beat_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 3, "k": 1, "samples": 4, "seed": 1}))
        out = tmp_path / "out.json"
        code = run(
            "verify-L", "--config", str(cfg), "--samples", "6", "--out", str(out)
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["samples"] == 6  # flag wins
        assert payload["n"] == 3  # config fills the gap

    def test_config_tolerances_record(self, tmp_path, default_tolerances):
        # the near-miss target is 1e-5 from the cut point e^{i pi/2} e1: a
        # different class at eq = 1e-9, the same class at a configured 1e-4
        near = np.array([[1j], [1e-5]]) / np.sqrt(1 + 1e-10)
        cut = StiefelPoint(np.array([[1j], [0.0]]))
        assert not StiefelPoint(near).same_class(cut)
        grid = {"lambda_count": 12, "phase_count": 12, "t_count": 96}
        before = tmp_path / "before.json"
        args = [
            "cutlocus-search", "--n", "2", "--k", "1",
            "--target", target_json(near), "--grid", json.dumps(grid),
        ]
        assert run(*args, "--out", str(before)) == 0
        assert json.loads(before.read_text())["clusters"] == 1

        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"tolerances": {"hit": 5e-3, "eq": 1e-4}}))
        after = tmp_path / "after.json"
        assert run(*args, "--config", str(cfg), "--out", str(after)) == 0
        assert StiefelPoint(near).same_class(cut)
        payload = json.loads(after.read_text())
        # with hit = 5e-3 every near arrival counts: the circle of minimizers
        # of the nearby cut point reappears, and the target now classifies as
        # block-diagonal
        assert payload["clusters"] >= 2
        assert payload["target"]["kind"] == "block_diagonal"
        assert max(a["endpoint_error"] for a in payload["arrivals"]) > 1e-8

    def test_bad_config_is_usage_error(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2]")
        assert run("verify-L", "--config", str(cfg), "--n", "2", "--k", "1") == 2

    @pytest.mark.parametrize(
        "config, extra",
        [
            ({"tolerances": {"foo": 1}}, []),
            ({"tolerances": {"hit": [1]}}, []),
            ({"tolerances": [1, 2]}, []),
            ({"grid": {"lambda_range": 3}}, []),
            ({"grid": [1]}, []),
            ({}, ["--grid", "[1]"]),
            ({"grid": {"t_count": [96]}}, []),
            ({"grid": {"lambda_min": {}}}, []),
            ({"grid": {"foo": 1}}, []),
            ({}, ["--grid", json.dumps({"foo": 1})]),
            ({}, ["--target-file", "target.json"]),  # given with --target
        ],
    )
    def test_malformed_record_is_usage_error(
        self, tmp_path, capsys, default_tolerances, config, extra
    ):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        code = run(
            "cutlocus-search", "--n", "2", "--k", "1", "--config", str(cfg),
            "--target", target_json([[-1.0], [0.0]]), *extra,
        )
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "command, config, message",
        [
            (["bracket"], {"n": [2], "k": 1}, "config n must be int, got [2]"),
            (["bracket"], {"n": 4.7, "k": 2}, "config n must be int, got 4.7"),
            (
                ["cutlocus-search", "--n", "2", "--k", "1"],
                {"eps_v": 100, "format": "csv", "target": target_json([[-1.0], [0.0]])},
                "unknown config key 'eps_v'",
            ),
        ],
        ids=["list-value", "fractional-int", "unknown-key"],
    )
    def test_mistyped_or_unknown_config_key_is_usage_error(
        self, tmp_path, capsys, command, config, message
    ):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        assert run(*command, "--config", str(cfg)) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err == f"error: {message}\n"

    def test_integral_config_values_convert(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 4.0, "k": 2, "mode": "real", "trials": 3}))
        out = tmp_path / "out.json"
        assert run("bracket", "--config", str(cfg), "--out", str(out)) == 0
        payload = json.loads(out.read_text())
        assert payload["n"] == 4 and isinstance(payload["n"], int) and payload["mode"] == "real"


def _config_and_flag_values(action):
    """A config value and a flag value for an option, each unlike what it overrides."""
    if action.nargs == 0:
        return True, True  # a switch: the flag can only repeat the config value
    if action.choices:
        config = next(c for c in action.choices if c != action.default)
        return config, next(c for c in action.choices if c != config)
    if action.type is int:
        return 7, 9
    if action.type is float:
        return 0.5, 0.25
    return "from-config", "from-flag"


class TestOneParsePath:
    @pytest.mark.parametrize("command", sorted(cli._HANDLERS))
    def test_config_value_lands_and_flag_beats_it(self, tmp_path, command):
        _, subs = cli._build_parser()
        actions = [a for a in subs[command]._actions if a.dest not in ("help", "config", "grid")]
        values = {a.dest: _config_and_flag_values(a) for a in actions}
        assert command != "cutlocus-search" or GRID_OPTIONS <= values.keys()
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({dest: pair[0] for dest, pair in values.items()}))
        args = cli._parse([command, "--config", str(cfg)])
        assert {dest: getattr(args, dest) for dest in values} == {
            dest: pair[0] for dest, pair in values.items()
        }
        for action in actions:
            flag = values[action.dest][1]
            argv = [command, "--config", str(cfg), action.option_strings[0]]
            argv += [] if action.nargs == 0 else [str(flag)]
            assert getattr(cli._parse(argv), action.dest) == flag, action.dest

    def test_grid_option_precedence_chain(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        base = ["cutlocus-search", "--config", str(cfg)]
        cfg.write_text(json.dumps({"n": 2, "k": 1}))
        assert cli._parse(base).t_count == 256
        cfg.write_text(json.dumps({"n": 2, "k": 1, "t_count": 10}))
        assert cli._parse(base).t_count == 10
        cfg.write_text(json.dumps({"n": 2, "k": 1, "t_count": 10, "grid": {"t_count": 20}}))
        assert cli._parse(base).t_count == 20
        inline = ["--grid", json.dumps({"t_count": 30})]
        assert cli._parse(base + inline).t_count == 30
        assert cli._parse(base + inline + ["--t-count", "40"]).t_count == 40

    def test_only_the_search_reads_grid_records(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 3, "k": 1, "grid": {"n": 5, "seed": 4}}))
        args = cli._parse(["verify-L", "--config", str(cfg)])
        assert (args.n, args.seed) == (3, 0)

    def test_top_level_grid_keys_take_effect(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {"n": 2, "k": 1, "t_count": 5000, "lambda_count": 4,
                 "target": target_json([[-1.0], [0.0]])}
            )
        )
        out = tmp_path / "r.json"
        code = run("cutlocus-search", "--config", str(cfg), "--phase-count", "4", "--out", str(out))
        assert code != EXIT_USAGE
        grid = json.loads(out.read_text())["grid"]
        assert (grid["t_count"], grid["lambda_count"], grid["phase_count"]) == (5000, 4, 4)

    def test_report_grid_reproduces_the_search(self, tmp_path):
        target = target_json([[-1.0], [0.0]])
        first = tmp_path / "first.json"
        code = run(
            "cutlocus-search", "--n", "2", "--k", "1", "--seed", "5", "--lambda-min", "-2.5",
            "--lambda-count", "12", "--phase-count", "12", "--t-count", "96",
            "--target", target, "--out", str(first),
        )
        assert code == 0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"grid": json.loads(first.read_text())["grid"], "target": target}))
        again = tmp_path / "again.json"
        assert run("cutlocus-search", "--config", str(cfg), "--out", str(again)) == 0
        assert again.read_bytes() == first.read_bytes()


def readme_cli_commands() -> list[list[str]]:
    """The ``stiefel-sr`` command lines of README's CLI section, without the program name."""
    block = README.read_text().split("\n## CLI\n", 1)[1].split("```")[1]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("stiefel-sr ")]


def test_readme_documents_every_subcommand():
    assert sorted(argv[0] for argv in readme_cli_commands()) == sorted(cli._HANDLERS)


@pytest.mark.parametrize("argv", readme_cli_commands(), ids=lambda argv: argv[0])
def test_readme_cli_example_runs(tmp_path, argv):
    argv = list(argv)
    at = argv.index("--out") + 1
    argv[at] = str(tmp_path / argv[at])
    assert main(argv) == 0
    assert Path(argv[at]).stat().st_size > 0
