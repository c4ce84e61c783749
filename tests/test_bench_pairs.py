"""tools/bench_pairs.py checks its --workload specs and the equal length of
its checkout paths before any run starts, keeps every run's round count,
alternates the side traced first and gives each metric a verdict (no gain
when the change fails a larger share of operations), shows progress by the
first metric of BENCHMARK.json, and names the stderr of a run that fails."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def test_workload_spec_parses_name_and_pairs():
    assert bench_pairs.workload_spec("theorems:10") == ("theorems", 10)
    assert bench_pairs.workload_spec("ideals:2") == ("ideals", 2)


@pytest.mark.parametrize("spec", ["theorems:1", "theorems:0", "theorems", "theorems:x",
                                  ":3", "theorems:-2"])
def test_bad_workload_spec_is_an_argparse_error(tmp_path, capsys, monkeypatch, spec):
    def no_run(*args, **kwargs):
        raise AssertionError("a benchmark run started")

    monkeypatch.setattr(bench_pairs, "run", no_run)
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(["--parent", str(tmp_path), "--change", str(tmp_path),
                          "--out", str(tmp_path / "out.json"), "--workload", spec])
    assert exc.value.code == 2
    assert "PAIRS >= 2" in capsys.readouterr().err
    assert not (tmp_path / "out.json").exists()


# the second pair is given at equal length but resolves to unequal lengths
@pytest.mark.parametrize("parent, change", [("parent", "chg"), ("a/../bcd", "ab/../cd")])
def test_checkouts_of_unequal_path_length_are_an_argparse_error(tmp_path, capsys, monkeypatch,
                                                                parent, change):
    def no_run(*args, **kwargs):
        raise AssertionError("a benchmark run started")

    monkeypatch.setattr(bench_pairs, "run", no_run)
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(["--parent", str(tmp_path / parent), "--change", str(tmp_path / change),
                          "--out", str(tmp_path / "out.json"), "--workload", "theorems:2"])
    assert exc.value.code == 2
    assert "paths of equal length" in capsys.readouterr().err
    assert not (tmp_path / "out.json").exists()


def test_round_counts_kept_per_side(tmp_path, monkeypatch):
    rounds = {("parent", 1): 3, ("change", 1): 5, ("parent", 2): 4, ("change", 2): 6}
    calls = []

    def fake_run(root, workload, seed, seconds, trace):
        side = root.name
        calls.append((side, seed, trace))
        return {"correct": True, "attempted": 10, "failed": 0,
                "metrics": {"ops_per_s": {"value": 1.0, "unit": "1/s"},
                            "peak_rss_mb": {"value": 20.0 + seed, "unit": "MB"}},
                "rounds": 1 if trace else rounds[side, seed], "unmeasured": {}}

    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [
        {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.25}]}))
    monkeypatch.setattr(bench_pairs, "run", fake_run)
    out = tmp_path / "out.json"
    assert bench_pairs.main(["--parent", str(tmp_path / "parent"),
                             "--change", str(tmp_path / "change"), "--out", str(out),
                             "--workload", "mutants:2", "--first-seed", "1"]) == 0
    summary = json.loads(out.read_text())["workloads"]["mutants"]
    assert summary["rounds"] == {"parent": [3, 4], "change": [5, 6]}
    assert summary["metrics"]["peak_rss_mb"]["values"] == {
        "parent": [21.0, 22.0], "change": [21.0, 22.0]}
    # the side that runs first alternates, then one traced run a side
    assert calls == [("parent", 1, 0), ("change", 1, 0), ("change", 2, 0),
                     ("parent", 2, 0), ("parent", 1, 1), ("change", 1, 1)]


def test_traced_order_alternates_per_workload(tmp_path, monkeypatch):
    traced = []

    def fake_run(root, workload, seed, seconds, trace):
        if trace:
            traced.append((workload, root.name))
        return {"correct": True, "attempted": 1, "failed": 0,
                "metrics": {"ops_per_s": {"value": 1.0, "unit": "1/s"}},
                "rounds": 1, "unmeasured": {}}

    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [
        {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.25}]}))
    monkeypatch.setattr(bench_pairs, "run", fake_run)
    out = tmp_path / "out.json"
    assert bench_pairs.main(["--parent", str(tmp_path / "parent"),
                             "--change", str(tmp_path / "change"), "--out", str(out),
                             "--workload", "validate:2", "--workload", "mutants:2",
                             "--workload", "ideals:2"]) == 0
    assert traced == [("validate", "parent"), ("validate", "change"),
                      ("mutants", "change"), ("mutants", "parent"),
                      ("ideals", "parent"), ("ideals", "change")]
    workloads = json.loads(out.read_text())["workloads"]
    assert {name: w["traced_order"] for name, w in workloads.items()} == {
        "validate": ["parent", "change"], "mutants": ["change", "parent"],
        "ideals": ["parent", "change"]}
    assert all(set(w["traced"]) == {"parent", "change"} for w in workloads.values())


WIDE = [50, 150, 60, 140, 70, 130, 80, 120, 90, 110]  # median 100, IQR 55


@pytest.mark.parametrize("better, parent, change, expected", [
    ("higher", range(100, 110), range(150, 160), "gain"),
    ("higher", range(100, 110), range(60, 70), "worse"),
    ("lower", range(100, 110), range(130, 140), "worse"),
    ("higher", WIDE, [v + 5 for v in WIDE], "unresolved"),
    ("higher", range(100, 110), range(98, 108), "no worse"),
    # wider spread than the bound, but every change run beats every parent run
    ("higher", WIDE, [151] * 10, "no worse"),
], ids=["gain", "worse", "worse-lower", "unresolved", "no-worse", "no-worse-all-beat"])
def test_verdict_per_metric(tmp_path, monkeypatch, better, parent, change, expected):
    values = {"parent": list(parent), "change": list(change)}

    def fake_run(root, workload, seed, seconds, trace):
        value = values[root.name][seed - 1] if not trace else 1.0
        return {"correct": True, "attempted": 1, "failed": 0,
                "metrics": {"ops_per_s": {"value": float(value), "unit": "1/s"}},
                "rounds": 1, "unmeasured": {}}

    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [
        {"name": "ops_per_s", "unit": "1/s", "better": better, "bound": 0.25}]}))
    monkeypatch.setattr(bench_pairs, "run", fake_run)
    out = tmp_path / "out.json"
    assert bench_pairs.main(["--parent", str(tmp_path / "parent"),
                             "--change", str(tmp_path / "change"), "--out", str(out),
                             "--workload", "mutants:10", "--first-seed", "1"]) == 0
    summary = json.loads(out.read_text())["workloads"]["mutants"]["metrics"]["ops_per_s"]
    assert summary["verdict"] == expected


def test_progress_shows_the_first_named_metric(tmp_path, monkeypatch, capsys):
    # neither BENCHMARK.json nor the runs name ops_per_s
    def fake_run(root, workload, seed, seconds, trace):
        return {"correct": True, "attempted": 1, "failed": 0,
                "metrics": {"metric": {"value": 2.0 if root.name == "change" else 1.0,
                                       "unit": "s"}},
                "rounds": 1, "unmeasured": {}}

    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [
        {"name": "metric", "unit": "s", "better": "lower", "bound": 0.25}]}))
    monkeypatch.setattr(bench_pairs, "run", fake_run)
    out = tmp_path / "out.json"
    assert bench_pairs.main(["--parent", str(tmp_path / "parent"),
                             "--change", str(tmp_path / "change"), "--out", str(out),
                             "--workload", "ideals:2"]) == 0
    assert "ideals seed=1 parent: metric=1 " in capsys.readouterr().err
    summary = json.loads(out.read_text())["workloads"]["ideals"]["metrics"]["metric"]
    assert summary["values"] == {"parent": [1.0, 1.0], "change": [2.0, 2.0]}


def test_a_failed_run_raises_with_the_tail_of_its_stderr(tmp_path, monkeypatch):
    stderr = "x" * 3000 + "error: theorems answer differs from the reference\n"

    def failing_run(command, **kwargs):
        return subprocess.CompletedProcess(command, 1, stdout="", stderr=stderr)

    monkeypatch.setattr(bench_pairs.subprocess, "run", failing_run)
    with pytest.raises(RuntimeError) as exc:
        bench_pairs.run(tmp_path, "theorems", 3, 1.0, 0)
    message = str(exc.value)
    assert "exited 1" in message and "--seed 3" in message
    assert message.endswith(stderr[-2000:]) and stderr[-2001:] not in message


@pytest.mark.parametrize("change_failed, expected", [
    (0, "gain"), (1, "no worse")], ids=["same-share", "larger-share"])
def test_no_gain_when_the_change_fails_a_larger_share(tmp_path, monkeypatch,
                                                      change_failed, expected):
    def fake_run(root, workload, seed, seconds, trace):
        change = root.name == "change"
        failed = change_failed if change else 0
        return {"correct": failed == 0, "attempted": 10, "failed": failed,
                "metrics": {"ops_per_s": {"value": (150.0 if change else 100.0) + seed,
                                          "unit": "1/s"}},
                "rounds": 1, "unmeasured": {}}

    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [
        {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.25}]}))
    monkeypatch.setattr(bench_pairs, "run", fake_run)
    out = tmp_path / "out.json"
    assert bench_pairs.main(["--parent", str(tmp_path / "parent"),
                             "--change", str(tmp_path / "change"), "--out", str(out),
                             "--workload", "theorems:10"]) == 0
    summary = json.loads(out.read_text())["workloads"]["theorems"]["metrics"]["ops_per_s"]
    assert summary["wins"] == 10 and summary["verdict"] == expected
