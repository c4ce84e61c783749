"""Element sets, multiset helpers, and table construction."""

import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

import hyperlab as H
from hyperlab.core import (
    ElementSet,
    graded_multisets,
    insert_sorted,
    multiset_splits,
    multisets,
    sorted_key,
)


class TestElementSet:
    def test_construction_and_membership(self):
        s = ElementSet.from_indices([3, 1, 3], 6)
        assert list(s) == [1, 3]
        assert 1 in s and 3 in s and 0 not in s
        assert len(s) == 2
        assert bool(s)
        assert not ElementSet.empty(6)

    def test_index_out_of_range(self):
        with pytest.raises(H.UnknownElementError):
            ElementSet.from_indices([6], 6)

    def test_set_algebra(self):
        a = ElementSet.from_indices([0, 1], 4)
        b = ElementSet.from_indices([1, 2], 4)
        assert list(a | b) == [0, 1, 2]
        assert list(a & b) == [1]
        assert list(a - b) == [0]
        assert a <= ElementSet.full(4)
        assert not a.isdisjoint(b)
        assert a.isdisjoint(ElementSet.from_indices([2, 3], 4))
        assert list(a.complement()) == [2, 3]

    def test_universe_mismatch(self):
        with pytest.raises(ValueError):
            ElementSet.full(4) | ElementSet.full(5)

    def test_render(self):
        s = ElementSet.from_indices([0, 2], 3)
        assert s.render(("x", "y", "z")) == "{x,z}"


class TestMultisetHelpers:
    def test_sorted_key(self):
        assert sorted_key((3, 1, 2)) == (1, 2, 3)

    def test_insert_sorted(self):
        assert insert_sorted((1, 3), 2) == (1, 2, 3)
        assert insert_sorted((1, 3), 0) == (0, 1, 3)
        assert insert_sorted((1, 3), 5) == (1, 3, 5)
        assert insert_sorted((), 5) == (5,)

    def test_multisets_count(self):
        got = list(multisets(4, 3))
        assert len(got) == math.comb(4 + 3 - 1, 3)
        assert got == sorted(got)

    def test_graded_order_prefers_distinct(self):
        ms = graded_multisets(range(4), 4)
        assert ms[0] == (0, 1, 2, 3)
        grades = [len(t) - len(set(t)) for t in ms]
        assert grades == sorted(grades)
        assert set(ms) == set(multisets(4, 4))

    def test_splits_known_case(self):
        got = multiset_splits((1, 1, 2), 2)
        assert ((1, 1), (2,)) in got
        assert ((1, 2), (1,)) in got
        assert len(got) == 2

    def test_splits_empty_take(self):
        assert multiset_splits((1, 2, 2), 0) == [((), (1, 2, 2))]

    @settings(max_examples=80, derandomize=True)
    @given(st.lists(st.integers(0, 4), min_size=1, max_size=7))
    def test_splits_match_positional_enumeration(self, values):
        ms = tuple(sorted(values))
        for k in range(len(ms) + 2):
            got = multiset_splits(ms, k)
            # the order picks validate's ASSOC witnesses, so it is pinned too
            assert got == _recursive_splits(ms, k)
            assert [t for t, _ in got] == sorted((t for t, _ in got), reverse=True)
            expect = set()
            for positions in itertools.combinations(range(len(ms)), k):
                taken = tuple(ms[i] for i in positions)
                rest = tuple(ms[i] for i in range(len(ms)) if i not in positions)
                expect.add((taken, rest))
            assert len(got) == len(set(got))
            assert set(got) == expect


def _recursive_splits(ms, k):
    """The earlier recursive enumerator, kept as the ordered oracle."""
    groups = []
    for v in ms:
        if groups and groups[-1][0] == v:
            groups[-1] = (v, groups[-1][1] + 1)
        else:
            groups.append((v, 1))
    suffix = [0] * (len(groups) + 1)
    for i in range(len(groups) - 1, -1, -1):
        suffix[i] = suffix[i + 1] + groups[i][1]
    out = []
    taken = []
    rest = []

    def rec(gi, need):
        if gi == len(groups):
            if need == 0:
                out.append((tuple(taken), tuple(rest)))
            return
        v, c = groups[gi]
        low = max(0, need - (suffix[gi] - c))
        for take in range(low, min(c, need) + 1):
            taken.extend([v] * take)
            rest.extend([v] * (c - take))
            rec(gi + 1, need - take)
            del taken[len(taken) - take:]
            del rest[len(rest) - (c - take):]

    rec(0, k)
    return out


class TestTableConstruction:
    def test_permutation_conflict_rejected(self):
        with pytest.raises(H.TableError, match="permutations"):
            H.HyperStructure.from_tables(
                2, 2, ("0", "1"),
                {(0, 0): (0,), (0, 1): (1,), (1, 0): (0,), (1, 1): (0,)},
                {(0, 0): 0, (0, 1): 0, (1, 1): 1},
                zero=0)

    @pytest.mark.parametrize("n, f, g, message", [
        (2, {(0, 0): (0,), (0, 1): (1,), (1, 0): (0,), (1, 1): (0,)},
         {(0, 0): 0, (0, 1): 0, (1, 1): 1},
         "f entries (0, 1) and (1, 0) are permutations of one multiset "
         "but disagree: (1,) vs (0,)"),
        # an agreeing spelling comes between: the message names the first
        (3, {(0, 0): (0,), (0, 1): (1,), (1, 1): (0,)},
         {(0, 0, 0): 0, (0, 0, 1): 0, (0, 1, 1): 1, (1, 0, 1): 1, (1, 1, 0): 0, (1, 1, 1): 1},
         "g entries (0, 1, 1) and (1, 1, 0) are permutations of one multiset "
         "but disagree: 1 vs 0"),
    ], ids=["f", "g"])
    def test_permutation_conflict_message(self, n, f, g, message):
        with pytest.raises(H.TableError) as caught:
            H.HyperStructure.from_tables(2, n, ("0", "1"), f, g, zero=0)
        assert str(caught.value) == message

    def test_totality_enforced(self):
        with pytest.raises(H.TableError, match="not total"):
            H.HyperStructure.from_tables(
                2, 2, ("0", "1"),
                {(0, 0): (0,), (0, 1): (1,)},
                {(0, 0): 0, (0, 1): 0, (1, 1): 1},
                zero=0)

    def test_empty_f_value_rejected(self):
        with pytest.raises(H.TableError, match="empty"):
            H.HyperStructure.from_tables(
                2, 2, ("0", "1"),
                {(0, 0): (), (0, 1): (1,), (1, 1): (0,)},
                {(0, 0): 0, (0, 1): 0, (1, 1): 1},
                zero=0)

    def test_duplicate_names_rejected(self):
        with pytest.raises(H.TableError, match="distinct"):
            H.HyperStructure.from_tables(
                2, 2, ("0", "0"),
                {(0, 0): (0,), (0, 1): (1,), (1, 1): (0,)},
                {(0, 0): 0, (0, 1): 0, (1, 1): 1},
                zero=0)

    def test_bad_arity_key_rejected(self):
        with pytest.raises(H.TableError, match="arity"):
            H.HyperStructure.from_tables(
                2, 2, ("0", "1"),
                {(0, 0, 0): (0,), (0, 1): (1,), (1, 1): (0,)},
                {(0, 0): 0, (0, 1): 0, (1, 1): 1},
                zero=0)

    def test_arities_below_two_rejected(self):
        with pytest.raises(H.TableError):
            H.HyperStructure.from_tables(
                1, 2, ("0",), {(0,): (0,)}, {(0, 0): 0}, zero=0)


class TestEvaluation:
    def test_commutative_by_construction(self, z6):
        assert z6.eval_g((2, 3)) == z6.eval_g((3, 2))

    def test_eval_arity_checked(self, z6):
        with pytest.raises(H.ArityError):
            z6.eval_g((1, 2, 3))
        with pytest.raises(H.UnknownElementError):
            z6.eval_g((1, 9))

    def test_setwise_f_frozen_values(self, madar, ex33):
        got = madar.eval_f_on_sets([madar.subset([1]), madar.subset([1, 3])])
        assert got.render(madar.names) == "{0,1,2,3}"
        got = ex33.eval_f_on_sets(
            [ex33.subset([1, 2]), ex33.subset([2]), ex33.subset([2])])
        assert got.render(ex33.names) == "{0,1,2}"

    def test_setwise_g_raw_image(self, z4):
        q = z4.subset([0, 2])
        assert list(z4.eval_g_on_sets([q, q])) == [0]

    def test_empty_argument_set_rejected(self, z4):
        with pytest.raises(H.EmptyArgumentError):
            z4.eval_g_on_sets([z4.subset([]), z4.subset([1])])

    def test_index_of(self, z6):
        assert z6.index_of("5") == 5
        with pytest.raises(H.UnknownElementError):
            z6.index_of("6")


def test_the_package_exports_its_public_imports():
    assert H.__all__ == sorted(H.__all__)
    assert {"enumerate_hyperideals", "is_prime", "load_structure", "set_product"} <= set(H.__all__)
    assert not {"axioms", "core", "types"} & set(H.__all__)
