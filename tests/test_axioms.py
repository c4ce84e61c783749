"""Axiom scans, violation replay, and the iterated operations."""

import itertools
import time

import pytest

import hyperlab as H
from hyperlab import axioms
from hyperlab.axioms import AXIOM_ORDER

from conftest import VALIDATE_IDS, mutated, validate_inputs

VALID_FIXTURES = ("paper-2-4", "ring:Z2", "ring:Z3", "ring:Z4", "ring:Z6",
                  "ring:Z12", "ring:Z2xZ3", "ring:Z4xZ3")

# paper-3-3 and the nine one-entry mutants whose violations test_golden pins
GOLDEN_INPUTS = pytest.mark.parametrize("a", list(validate_inputs()), ids=VALIDATE_IDS)


@pytest.mark.parametrize("name", VALID_FIXTURES)
def test_valid_fixtures_pass(name):
    a = H.fixture(name).structure
    start = time.monotonic()
    assert H.check_krasner(a) == []
    assert time.monotonic() - start < 1.0


def test_high_arity_scan_stays_fast():
    # Z/2 as a (2,15)-structure: f = sum, g = product.  Its ASSOC_G multisets
    # have 29 entries over two values, so an enumerator that walks positions
    # instead of runs of equal values makes C(29, 15) splits of each.
    a = H.HyperStructure.from_tables(
        2, 15, ("0", "1"),
        {ms: (sum(ms) % 2,) for ms in itertools.combinations_with_replacement(range(2), 2)},
        {ms: min(ms) for ms in itertools.combinations_with_replacement(range(2), 15)},
        zero=0, one=1)
    start = time.monotonic()
    assert H.check_krasner(a) == []
    assert time.monotonic() - start < 1.0


def test_axiom_order_is_fixed():
    assert AXIOM_ORDER == (
        "F_VALUE_EMPTY", "NEUTRAL", "INVERSE_UNIQUE", "ASSOC_F",
        "REVERSIBILITY", "QUASI_SOLVABLE", "ASSOC_G", "DISTRIB",
        "ZERO_ABSORB", "ONE_IDENTITY")


@GOLDEN_INPUTS
def test_violations_replay(a):
    for v in H.check_krasner(a):
        assert H.replay(a, v)


@GOLDEN_INPUTS
def test_first_violation_mode(a):
    full = H.check_krasner(a)
    only = H.check_krasner(a, first_violation=True)
    assert only == full[:1]


@GOLDEN_INPUTS
def test_violations_follow_axiom_order(a):
    full = H.check_krasner(a)
    ranks = [AXIOM_ORDER.index(v.axiom) for v in full]
    assert ranks == sorted(ranks)
    hypergroup = H.check_canonical_hypergroup(a)
    assert full[:len(hypergroup)] == hypergroup
    assert all(v.axiom in axioms.G_AXIOMS for v in full[len(hypergroup):])


def test_first_violation_stops_inside_the_first_failing_scan(monkeypatch, z6):
    broken = mutated(z6, g_key=(2, 3), g_value=1)
    splits = []
    real_splits = axioms.multiset_splits

    def counted_splits(ms, k):
        splits.append(ms)
        return real_splits(ms, k)

    monkeypatch.setattr(axioms, "multiset_splits", counted_splits)
    full = H.check_krasner(broken)
    assert [v.axiom for v in full[:2]] == ["ASSOC_G", "ASSOC_G"]
    full_splits = len(splits)

    def unreachable(a):
        raise AssertionError("scanned an axiom after the first violation")

    for name in list(axioms.G_AXIOMS)[1:]:  # every g-side axiom after ASSOC_G
        monkeypatch.setitem(axioms.G_AXIOMS, name, unreachable)
    splits.clear()
    assert H.check_krasner(broken, first_violation=True) == full[:1]
    # ASSOC_G stopped at its first witness, not after its whole scan
    assert len(splits) < full_splits


class TestPrintedTablesDiscrepancy:
    def test_distributivity_fails(self, ex33):
        violations = H.check_krasner(ex33)
        assert violations
        assert {v.axiom for v in violations} == {"DISTRIB"}
        first = violations[0]
        assert first.witness == ((1, 2), (0, 1, 2))


class TestMutations:
    def test_madar_f_mutation_breaks_inverses(self, madar):
        broken = mutated(madar, f_key=(2, 2), f_value=(1,))
        violations = H.check_krasner(broken)
        assert any(v.axiom == "INVERSE_UNIQUE" for v in violations)
        for v in violations:
            assert H.replay(broken, v)

    def test_z6_g_mutation_breaks_associativity(self, z6):
        broken = mutated(z6, g_key=(2, 3), g_value=1)
        violations = H.check_krasner(broken)
        assert any(v.axiom == "ASSOC_G" for v in violations)
        for v in violations:
            assert H.replay(broken, v)

    def test_second_neutral_only_when_zero_is_neutral(self):
        g = {(0, 0): 0, (0, 1): 0, (1, 1): 1}

        def z2(m, zero):
            sums = {ms: (sum(ms) % 2,)
                    for ms in itertools.combinations_with_replacement(range(2), m)}
            return H.HyperStructure.from_tables(m, 2, ("0", "1"), sums, g, zero=zero)

        # under the ternary sum, 1 is a second scalar neutral besides 0
        assert [(v.axiom, v.witness) for v in H.check_canonical_hypergroup(z2(3, 0))] == [
            ("NEUTRAL", (1,))]
        # binary sum with 1 marked as zero: zero fails the neutral law at both
        # elements, and 0, the true neutral, is not reported besides
        neutral = [v.witness for v in H.check_canonical_hypergroup(z2(2, 1))
                   if v.axiom == "NEUTRAL"]
        assert neutral == [(0,), (1,)]

    def test_replay_rejects_fabricated_witness(self, z6):
        fake = H.AxiomViolation("ASSOC_G", ((0, 0, 0), (0, 0), (0, 0)), "")
        assert not H.replay(z6, fake)


class TestIteratedOperations:
    def test_iterate_f_frozen(self, madar):
        assert list(H.iterate_f(madar, 1, (1, 1))) == sorted(
            madar.eval_f((1, 1)))
        assert H.iterate_f(madar, 2, (1, 1, 1)).render(madar.names) == "{0,1}"

    def test_iterate_g_frozen(self, madar):
        assert madar.names[H.iterate_g(madar, 2, (2,) * 7)] == "2"

    def test_iterate_argument_counts(self, madar, z6):
        with pytest.raises(H.ArityError):
            H.iterate_g(madar, 2, (2,) * 6)
        with pytest.raises(H.ArityError):
            H.iterate_f(z6, 0, (1,))
        # level 1 is the plain operation
        assert H.iterate_g(z6, 1, (2, 3)) == z6.eval_g((2, 3))


class TestInverses:
    def test_ring_inverses(self, z6):
        inv = z6.inverse_map
        assert inv == {0: 0, 1: 5, 2: 4, 3: 3, 4: 2, 5: 1}

    def test_madar_inverses_are_self(self, madar):
        # every element is its own inverse under the printed table
        inv = madar.inverse_map
        assert inv == {i: i for i in range(4)}

    def test_inverse_candidates(self, z6):
        assert H.inverse_candidates(z6, 2) == (4,)
