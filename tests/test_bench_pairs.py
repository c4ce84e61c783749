"""tools/bench_pairs.py checks its --workload specs before any run starts."""

import importlib.util
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
