"""Acceptance gate: ten end-to-end criteria, one test per criterion.

Each test prints a single PASS line once its assertions hold, so a verbose
run shows exactly one pass/fail line per criterion.
"""

import json
import time

import pytest

import hyperlab as H
from hyperlab.cli import main

from conftest import mutated

RING_SIZES = (2, 3, 4, 6, 12)


def test_c01_fixture_validation():
    names = ["paper-2-4"] + [f"ring:Z{k}" for k in RING_SIZES]
    for name in names:
        a = H.fixture(name).structure
        start = time.perf_counter()
        assert H.check_krasner(a) == []
        assert time.perf_counter() - start < 1.0

    madar = H.fixture("paper-2-4").structure
    broken = [mutated(madar, f_key=(2, 2), f_value=(1,))]
    for k in RING_SIZES:
        ring = H.fixture(f"ring:Z{k}").structure
        key = tuple(sorted((1, k - 1)))
        broken.append(mutated(ring, g_key=key, g_value=0))
    for b in broken:
        violations = H.check_krasner(b)
        assert violations
        assert all(H.replay(b, v) for v in violations)
    print("C01 fixture validation and mutation replay: PASS")


def test_c02_designated_example_reproduction(madar):
    q = madar.subset([0])
    s = madar.subset([2, 3])
    assert H.is_weakly_s_prime(madar, q, s).holds is True
    verdict = H.is_prime(madar, q)
    assert verdict.holds is False
    assert verdict.counterexample == (1, 1, 2, 3)
    assert madar.eval_g(verdict.counterexample) == 0
    assert all(x not in q for x in verdict.counterexample)
    print("C02 designated example reproduction: PASS")


def test_c03_discrepancy_fixture_handling(ex33, capsys):
    fx = H.fixture("paper-3-3")
    with pytest.raises(H.DisjointnessViolated):
        H.is_weakly_s_prime(ex33, fx.ideal, fx.mult_set)
    code = main(["theorems", "--corpus", "paper-3-3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "DISCREPANCY" in out
    assert "meets the designated multiplicative set" in out
    print("C03 discrepancy fixture handling: PASS")


def test_c04_radical_route_agreement(corpus):
    compared = 0
    for ctx in corpus:
        a = ctx.structure
        if not ctx.usable or a.one is None:
            continue
        for q in ctx.lattice.proper():
            via_primes = H.radical(a, q, ctx.lattice)
            via_powers = a.subset(
                [x for x in range(a.size) if H.radical_membership(a, q, x)])
            assert via_primes == via_powers, \
                f"{ctx.name}: routes differ on {q.render(a.names)}"
            compared += 1
    assert compared >= 10
    print(f"C04 radical route agreement ({compared} ideals): PASS")


def test_c05_implication_chain(corpus):
    checked = 0
    for ctx in corpus:
        if not ctx.usable:
            continue
        a = ctx.structure
        for q in ctx.lattice.proper():
            for s in ctx.mult_sets:
                if q & s:
                    continue
                record = H.classify(a, q, s, ctx.lattice)
                assert H.chain_violations(record) == []
                checked += 1
    assert checked >= 50
    print(f"C05 implication chain over {checked} records: PASS")


def test_c06_suite_clean_and_fast():
    start = time.perf_counter()
    reports = H.run_suite(H.DEFAULT_CORPUS)
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    assert not any(r.status == H.COUNTEREXAMPLE for r in reports)
    for pid in H.PROPERTY_IDS:
        assert any(r.property_id == pid and r.status == H.VERIFIED
                   for r in reports), f"{pid} has no verified instance"
    print(f"C06 statement suite clean in {elapsed:.1f}s: PASS")


def test_c07_route_equivalence(default_suite):
    p10 = [r for r in default_suite if r.property_id == "P10"]
    assert p10
    assert not any(r.status == H.COUNTEREXAMPLE for r in p10)
    assert any(r.status == H.VERIFIED for r in p10)
    print(f"C07 definitional and colon routes agree on "
          f"{len(p10)} instances: PASS")


def test_c08_separation_witnesses():
    found = H.search_separating_instances(
        H.DEFAULT_CORPUS, "weakly-s-prime", "s-prime")
    assert {"structure": "ring:Z4", "q": "{0}", "s": "{1}"} in found
    found = H.search_separating_instances(
        H.DEFAULT_CORPUS, "weakly-prime", "prime")
    assert {"structure": "ring:Z6", "q": "{0}", "s": "{1}"} in found
    for stronger, weaker in H.IMPLICATION_CHAIN:
        assert H.search_separating_instances(
            H.DEFAULT_CORPUS, stronger, weaker) == []
    print("C08 separation witnesses and empty chain searches: PASS")


def test_c09_product_equivalence(default_suite):
    p17 = [r for r in default_suite if r.property_id == "P17"]
    on_target = [r for r in p17 if r.instance.startswith("ring:Z4xZ3")]
    assert on_target
    assert all(r.status == H.VERIFIED for r in p17)
    print(f"C09 product characterization on {len(p17)} instances: PASS")


def test_c10_deterministic_reports(capsys):
    argv = ["theorems", "--json"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    doc = json.loads(first)
    assert doc["summary"]["counterexamples"] == 0
    print("C10 byte-identical theorem reports: PASS")
