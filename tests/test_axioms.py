"""Axiom scans, violation replay, and the iterated operations."""

import itertools
import time

import pytest

import hyperlab as H
from hyperlab.axioms import AXIOM_ORDER

from conftest import mutated

VALID_FIXTURES = ("paper-2-4", "ring:Z2", "ring:Z3", "ring:Z4", "ring:Z6",
                  "ring:Z12", "ring:Z2xZ3", "ring:Z4xZ3")


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


class TestPrintedTablesDiscrepancy:
    def test_distributivity_fails(self, ex33):
        violations = H.check_krasner(ex33)
        assert violations
        assert {v.axiom for v in violations} == {"DISTRIB"}
        first = violations[0]
        assert first.witness == ((1, 2), (0, 1, 2))

    def test_violations_replay(self, ex33):
        for v in H.check_krasner(ex33):
            assert H.replay(ex33, v)

    def test_first_violation_mode(self, ex33):
        full = H.check_krasner(ex33)
        only = H.check_krasner(ex33, first_violation=True)
        assert only == full[:1]


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
