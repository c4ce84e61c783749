"""Golden report bytes, pinned by sha256.

`theorems`: the default-corpus output.  C10 only compares two runs of the
same code; these digests were captured before the statement and predicate
registries were merged, so any change to a report byte (a reason, a
certificate, an instance order) fails here.  The `--json` output over
the benchmark corpus (`conftest.BENCH_CORPUS`) is pinned as well; its
digest was captured before multiplicative sets were listed by the closure
walk.

`theorems` under a scan budget: the `--json` bytes of ``run_suite`` with
a budget small enough to skip rows (1 and, on the benchmark corpus, 40) and
one that skips none, captured while the budget was still passed to every
ideal-level predicate.

`validate`: the rendered `check_krasner` violations (axiom, witness,
detail) of paper-3-3 and of fixed one-entry f- and g-mutants
(`conftest.validate_inputs`), in full and with ``first_violation=True``.
An ASSOC witness names the first split of its multiset in
`core.multiset_splits` order and the first that disagrees with it, so these
digests also pin that order.  They were captured before
`multiset_splits` was rewritten as a product over run prefixes.

Regenerate a digest only for a change that is meant to alter its bytes.
"""

import hashlib
import itertools

import pytest

import hyperlab as H
from hyperlab.cli import main

from conftest import BENCH_CORPUS, validate_inputs

GOLDEN = {
    ("theorems", "--json"):
        "40032a96347dfbb8fcd3345863589caee88abb5e0fb7264bf3afe7fd0a4a7caf",
    ("theorems",):
        "68666881122e589913820f1eac653306c5019ac0b1fb6a862f4acb3a6f18b913",
}

BENCH_GOLDEN = "953be4128165a169d22b092915c3ff8c9532649294e13128b30b43810a8f25b0"

# (corpus, budget) -> (rows skipped by the budget, sha256)
BUDGET_GOLDEN = {
    (("ring:Z12", "ring:Z4xZ3", "paper-2-4"), 1):
        (1054, "627186dc4c03722ed9fdccf16d192d66a21aee35ea7d6a7165b20558a2067e9f"),
    (("ring:Z12", "ring:Z2xZ4"), 40):
        (0, "79e309964efa0527c5a2a2d9a11d2ce515869cf60779b07f1b277e7385e2016d"),
    (BENCH_CORPUS, 40):
        (2555, "c50dd40659ce6874fcda1f4f9318c1c1de1e0d7dca5716c0445e36b3b4a42376"),
}

VALIDATE_GOLDEN = {
    False: "6ad0e455c8448eee62e91453d899afee13f2f366d877d7b700d07894205e37dc",
    True: "561b469da0df9da19268f6fb53bda280762a3b983341f0cb834ed340a48310b6",
}


@pytest.mark.parametrize("argv", list(GOLDEN), ids=" ".join)
def test_default_corpus_report_bytes(capsys, argv):
    assert main(list(argv)) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == GOLDEN[argv]


def test_benchmark_corpus_report_bytes(capsys):
    assert main(["theorems", "--json", "--corpus", ",".join(BENCH_CORPUS)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == BENCH_GOLDEN


@pytest.mark.parametrize("corpus,budget", list(BUDGET_GOLDEN),
                         ids=["budget-1", "budget-40", "bench-budget-40"])
def test_budgeted_report_bytes(corpus, budget):
    reports = H.run_suite(corpus, budget=budget)
    skipped = sum("budget exceeded" in r.reason for r in reports)
    digest = hashlib.sha256(H.reports_to_json(reports).encode("utf-8")).hexdigest()
    assert (skipped, digest) == BUDGET_GOLDEN[corpus, budget]


@pytest.mark.parametrize("first", list(VALIDATE_GOLDEN), ids=["all", "first"])
def test_validate_witness_bytes(first):
    lines = []
    for a in validate_inputs():
        for v in H.check_krasner(a, first_violation=first):
            lines.append(f"{a.label}\t{v.axiom}\t{v.witness}\t{v.detail}\n")
    digest = hashlib.sha256("".join(lines).encode("utf-8")).hexdigest()
    assert digest == VALIDATE_GOLDEN[first]


def test_validate_golden_reaches_ordered_assoc_witnesses():
    # the digests pin the split order only through an ASSOC witness whose
    # multiset has three or more distinct splits
    reached = set()
    for a in validate_inputs():
        for v in H.check_krasner(a):
            if v.axiom in ("ASSOC_F", "ASSOC_G"):
                k = a.m if v.axiom == "ASSOC_F" else a.n
                if len(set(itertools.combinations(v.witness[0], k))) >= 3:
                    reached.add(v.axiom)
    assert reached == {"ASSOC_F", "ASSOC_G"}
