"""The report-corpus comparison of ``tools/report_corpus.py`` on synthetic reports."""

import copy
import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "report_corpus.py"
_spec = importlib.util.spec_from_file_location("report_corpus", _PATH)
report_corpus = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(report_corpus)


def _arrival(re01: float, t: float) -> dict:
    velocity = {
        "n": 2, "k": 1, "mode": "complex",
        "re": [[0.0, re01], [-re01, 0.0]], "im": [[0.5, 0.0], [0.0, 0.0]],
    }
    return {"velocity": velocity, "t": t, "length": 2.0 * t, "endpoint_error": 1e-15}


REPORT = {
    "target": {"kind": "block_diagonal", "point": {"n": 2, "k": 1}},
    "grid": {"t_count": 96, "t_max": 6.5},
    "arrivals": [_arrival(1.0, 3.0), _arrival(-1.0, 3.0)],
    "clusters": 2,
    "min_length": 6.0,
}


def _write(directory: Path, report: dict) -> Path:
    directory.mkdir()
    (directory / "r.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return directory


def _compare(tmp_path, changed: dict, mode: str) -> int:
    a = _write(tmp_path / "a", REPORT)
    b = _write(tmp_path / "b", changed)
    return report_corpus.main(["compare", str(a), str(b), "--mode", mode])


def test_identical_corpora_agree_in_both_modes(tmp_path):
    a = _write(tmp_path / "a", REPORT)
    b = _write(tmp_path / "b", REPORT)
    for mode in ("bytes", "equivalent"):
        assert report_corpus.main(["compare", str(a), str(b), "--mode", mode]) == 0


@pytest.mark.parametrize("mode, expected", [("bytes", 1), ("equivalent", 0)])
def test_rounding_change_is_equivalent_but_not_identical(tmp_path, mode, expected):
    changed = copy.deepcopy(REPORT)
    changed["min_length"] *= 1 + 1e-13
    changed["arrivals"][0]["velocity"]["re"][0][1] += 1e-13
    changed["arrivals"].reverse()  # matching is one to one, not by position
    changed["diagnostics"] = {"scanned": 144}  # a new key is listed and ignored
    assert _compare(tmp_path, changed, mode) == expected


def test_equivalent_mode_logs_the_largest_accepted_differences(tmp_path, capsys):
    changed = copy.deepcopy(REPORT)
    changed["min_length"] *= 1 + 1e-13
    changed["arrivals"][1]["velocity"]["re"][0][1] += 1e-13
    assert _compare(tmp_path, changed, "equivalent") == 0
    assert capsys.readouterr().out.splitlines() == [
        "largest accepted over 1 search reports: min_length 1e-13 relative, arrival embed 1e-13",
        "1 files, 0 differing (equivalent)",
    ]


@pytest.mark.parametrize("mode", ["bytes", "equivalent"])
def test_dropped_arrival_fails_both_modes(tmp_path, mode):
    changed = copy.deepcopy(REPORT)
    changed["arrivals"].pop()
    assert _compare(tmp_path, changed, mode) == 1


@pytest.mark.parametrize(
    "edit",
    [
        lambda r: r.update(clusters=1),
        lambda r: r.update(min_length=6.0 * (1 + 1e-11)),
        lambda r: r["arrivals"][1]["velocity"]["re"][0].__setitem__(1, -1.0 + 1e-8),
        lambda r: r["target"].update(kind="generic"),
        lambda r: r.pop("grid"),
    ],
    ids=["clusters", "min_length", "arrival_embed", "target_kind", "missing_key"],
)
def test_real_changes_are_not_equivalent(tmp_path, edit):
    changed = copy.deepcopy(REPORT)
    edit(changed)
    assert _compare(tmp_path, changed, "equivalent") == 1


def test_missing_file_differs(tmp_path):
    a = _write(tmp_path / "a", REPORT)
    b = tmp_path / "b"
    b.mkdir()
    assert report_corpus.main(["compare", str(a), str(b), "--mode", "equivalent"]) == 1


def test_bytes_mode_names_the_differing_values(tmp_path, capsys):
    changed = copy.deepcopy(REPORT)
    changed["min_length"] = 6.000000000000001
    changed["arrivals"][1]["velocity"]["im"][1][1] = -0.0  # a signed zero is a byte change
    changed["grid"]["t_count"] = 96.0
    changed["arrivals"].append(_arrival(0.5, 3.0))
    for key in ("diagnostics", "extra", "more"):
        changed[key] = 1
    assert _compare(tmp_path, changed, "bytes") == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[:5] == [
        "r.json: $.arrivals: length 2 vs 3",
        "r.json: $.arrivals[1].velocity.im[1][1]: 0.0 vs -0.0",
        "r.json: $.diagnostics: only in B",
        "r.json: $.extra: only in B",
        "r.json: $.grid.t_count: 96 vs 96.0",
    ]
    assert lines[5:] == ["1 files, 1 differing (bytes)"]  # at most 5 paths per file


def test_bytes_mode_reports_a_difference_json_does_not_see(tmp_path, capsys):
    a = _write(tmp_path / "a", REPORT)
    b = tmp_path / "b"
    b.mkdir()
    (b / "r.json").write_text(json.dumps(REPORT, sort_keys=True) + "\n")  # no indent
    assert report_corpus.main(["compare", str(a), str(b), "--mode", "bytes"]) == 1
    assert capsys.readouterr().out.splitlines()[0] == "r.json: bytes differ"
    assert report_corpus.main(["compare", str(a), str(b), "--mode", "equivalent"]) == 0


@pytest.mark.parametrize("make", [lambda d: None, lambda d: d.mkdir()], ids=["missing", "empty"])
@pytest.mark.parametrize("mode", ["bytes", "equivalent"])
def test_a_corpus_without_reports_is_an_error(tmp_path, capsys, make, mode):
    # a write that left nothing behind must not pass as "0 files, 0 differing"
    a, b = tmp_path / "a", tmp_path / "b"
    make(a)
    make(b)
    assert report_corpus.main(["compare", str(a), str(b), "--mode", mode]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: {a} ")


def test_file_only_in_one_corpus_differs(tmp_path, capsys):
    a = _write(tmp_path / "a", REPORT)
    b = tmp_path / "b"
    b.mkdir()
    (b / "s.json").write_text((a / "r.json").read_text())
    assert report_corpus.main(["compare", str(a), str(b), "--mode", "equivalent"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        f"r.json: only in {a}",
        f"s.json: only in {b}",
        "2 files, 2 differing (equivalent)",
    ]
