"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest perfbench -q

The smoke runs use tiny inputs (ring:Z4 and paper-2-4).  The planted tests
break a copy of the package under .perfbench_work/ and check that the
benchmark counts the wrong answers.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import reference as ref  # noqa: E402
import workloads as wl  # noqa: E402
from hyperlab import cli  # noqa: E402
from run import Replay  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, root=ROOT):
    out = subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                         cwd=root, capture_output=True, text=True, timeout=170)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


def cli_output(argv) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    return rc, buf.getvalue()


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_emits_every_metric(workload, trace):
    result = bench("--workload", workload, "--seed", "3", "--seconds", "0.2",
                   "--trace", trace, "--smoke")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["end_to_end"] if trace == "0" else SPEC["per_layer"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()}


def test_spec_lists_every_layer_metric():
    names = {m["name"] for m in SPEC["per_layer"]}
    assert set(layers.METRICS) <= names
    assert {m["name"] for m in SPEC["end_to_end"]} >= {"setup_s", "ops_per_s"}


def test_same_seed_same_inputs():
    def doc(seed):
        rng = random.Random(seed)
        return wl.to_document(wl.renamed(wl.build("ring:Z2xZ3"), rng), rng)
    assert doc(5) == doc(5) and doc(5) != doc(6)


def test_reference_ideals_match_their_definition():
    assert ref.expected_ideals("ring:Z6") == [
        (frozenset(range(6)), False), (frozenset({0, 2, 4}), True),
        (frozenset({0, 3}), True), (frozenset({0}), False)]
    assert len(ref.expected_ideals("paper-2-4^2")) == 16
    assert sum(p for _, p in ref.expected_ideals("paper-2-4^2")) == 2


def test_checker_flags_missing_ideal():
    rng = random.Random(1)
    a = wl.renamed(wl.build("ring:Z4"), rng)
    path = ROOT / ".perfbench_work" / "test-ideals.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(wl.to_document(a, rng)))
    rc, out = cli_output(["ideals", "--json", str(path)])
    assert ref.check_ideals(a, rc, out) is None
    doc = json.loads(out)
    doc["ideals"].pop(1)
    assert ref.check_ideals(a, rc, json.dumps(doc)) is not None


def test_checker_flags_flipped_theorems_byte():
    corpus = wl.SMOKE_CORPUS
    rc, out = cli_output(["theorems", "--json", "--corpus", ",".join(corpus)])
    assert ref.check_theorems(corpus, rc, out) is None
    for pos in (out.index("VERIFIED") + 3, len(out) // 2, len(out) - 3):
        flipped = out[:pos] + chr(ord(out[pos]) ^ 1) + out[pos + 1:]
        assert ref.check_theorems(corpus, rc, flipped) is not None


def test_checker_flags_witness_that_does_not_replay():
    rng = random.Random(2)
    base = wl.renamed(wl.build("ring:Z4"), rng)
    g = dict(base.g)
    g[(1, 1)] = 2  # 1*1 = 2 breaks the identity and associativity
    a = wl.Structure(base.name, 2, 2, base.names, base.zero, base.one, base.f, g)
    path = ROOT / ".perfbench_work" / "test-mutant.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(wl.to_document(a, rng)))
    expected = ref.failing_axioms(a)
    assert {"ASSOC_G", "ONE_IDENTITY"} <= expected
    replay = Replay(ROOT / "src")
    rc, out = cli_output(["validate", "--json", str(path)])
    assert ref.check_violations(str(path), expected, False, rc, out, replay) is None
    doc = json.loads(out)
    row = next(r for r in doc["violations"] if r["axiom"] == "ASSOC_G")
    ms, left, _ = ast.literal_eval(row["witness"])
    row["witness"] = repr((ms, left, left))
    assert ref.check_violations(str(path), expected, False, rc, json.dumps(doc), replay)


def test_reference_axioms_agree_with_the_package_on_mutants():
    import hyperlab
    for a in wl.mutants({"paper-2-4": 4, "ring:Z12": 4, "ring:Z2xZ6": 4}, random.Random(7)):
        structure = hyperlab.document_to_structure(wl.to_document(a, random.Random(0)))
        got = {v.axiom for v in hyperlab.check_krasner(structure)}
        assert got == ref.failing_axioms(a)


def test_missing_hook_is_reported_unmeasured():
    script = (
        "import sys; sys.path[:0] = [%r, %r]\n"
        "import hyperlab.harness, layers, json\n"
        "del hyperlab.harness.run_property\n"
        "t = layers.Tracer(); t.install()\n"
        "print(json.dumps([t.missing(), t.metrics()['harness.P1.s']]))\n"
    ) % (str(HERE), str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    missing, value = json.loads(out.stdout)
    assert "run_property not found" in missing["harness.P1.s"]
    assert "harness.generate_s" not in missing and value == 0


def _planted_checkout(name: str, module: str, old: str, new: str) -> Path:
    root = ROOT / ".perfbench_work" / f"planted-{name}"
    shutil.rmtree(root, ignore_errors=True)
    shutil.copytree(ROOT / "src", root / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    target = root / "src" / "hyperlab" / module
    text = target.read_text()
    if old not in text:
        pytest.skip(f"{module} no longer contains {old!r}")
    target.write_text(text.replace(old, new, 1))
    return root


@pytest.mark.parametrize("workload, module, old, new", [
    ("ideals", "ideals.py", "return IdealLattice(a, tuple(found), flags)",
     "return IdealLattice(a, tuple(found[1:]), flags[1:])"),
    ("mutants", "cli.py", '"witness": str(v.witness)',
     '"witness": str(v.witness[:1] + v.witness[:1] + v.witness[:1])'),
    ("theorems", "harness.py", 'return json.dumps(doc, indent=2, sort_keys=True) + "\\n"',
     'return json.dumps(doc, indent=2, sort_keys=True) + " "'),
])
def test_planted_wrong_answer_makes_fail_ratio_nonzero(workload, module, old, new):
    root = _planted_checkout(workload, module, old, new)
    result = bench("--workload", workload, "--seed", "1", "--seconds", "0.1",
                   "--trace", "0", "--smoke", root=root)
    assert not result["correct"] and 0 < result["failed"] <= result["attempted"]


def test_refuses_to_run_without_the_package():
    root = ROOT / ".perfbench_work" / "empty-checkout"
    shutil.rmtree(root, ignore_errors=True)
    root.mkdir(parents=True)
    out = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", "mutants",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=root, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0 and out.stdout == ""
