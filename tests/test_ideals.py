"""Hyperideal recognition, enumeration, colon ideals, and radicals."""

import itertools
import math
import random
import time

import pytest

import hyperlab as H
import hyperlab.ideals as ideals_module
from hyperlab.core import multisets, sorted_key
from conftest import (
    ORACLE_INPUTS,
    SMALL_FIXTURES,
    listed_first_unfactored,
    oracle_structures,
    random_mutant,
)


def naive_is_ideal(a, members):
    """Independent ideal check over ordered tuples and plain Python sets."""
    if a.zero not in members:
        return False
    # closure of f over member tuples
    for args in itertools.product(members, repeat=a.m):
        if not set(a.eval_f(args)) <= members:
            return False
    # inverses stay inside
    for x in members:
        inverses = [y for y in range(a.size)
                    if a.zero in a.eval_f((x, y) + (a.zero,) * (a.m - 2))]
        if len(inverses) != 1 or inverses[0] not in members:
            return False
    # within-subset solvability: b in f(ctx, x) for some member x
    for ctx in itertools.product(members, repeat=a.m - 1):
        reachable = set()
        for x in members:
            reachable |= set(a.eval_f(ctx + (x,)))
        if not members <= reachable:
            return False
    # g-absorption in every position
    for ctx in itertools.product(range(a.size), repeat=a.n - 1):
        for x in members:
            if a.eval_g(ctx + (x,)) not in members:
                return False
    return True


@pytest.mark.parametrize("name", ["paper-2-4", "ring:Z4", "ring:Z6"])
def test_enumeration_matches_naive_oracle(name):
    a = H.fixture(name).structure
    lattice = H.enumerate_hyperideals(a)
    member_masks = {q.mask for q in lattice}
    for bits in range(1 << a.size):
        subset = {i for i in range(a.size) if bits >> i & 1}
        expected = naive_is_ideal(a, subset)
        assert (bits in member_masks) == expected, subset


def test_frozen_lattices(lattices, madar, z4, z6, z12):
    render = lambda a, lat: [q.render(a.names) for q in lat]
    assert render(madar, lattices[madar.label]) == [
        "{0}", "{0,1}", "{0,2}", "{0,1,2,3}"]
    assert render(z4, lattices[z4.label]) == ["{0}", "{0,2}", "{0,1,2,3}"]
    assert render(z6, lattices[z6.label]) == [
        "{0}", "{0,3}", "{0,2,4}", "{0,1,2,3,4,5}"]
    assert render(z12, lattices[z12.label]) == [
        "{0}", "{0,6}", "{0,4,8}", "{0,3,6,9}", "{0,2,4,6,8,10}",
        "{0,1,2,3,4,5,6,7,8,9,10,11}"]


def test_prime_flags(lattices, madar, z6, z12):
    lat = lattices[madar.label]
    assert [q.render(madar.names) for q in lat.primes()] == ["{0,1}"]
    lat = lattices[z6.label]
    assert [q.render(z6.names) for q in lat.primes()] == ["{0,3}", "{0,2,4}"]
    lat = lattices[z12.label]
    assert [q.render(z12.names) for q in lat.primes()] == [
        "{0,3,6,9}", "{0,2,4,6,8,10}"]


def test_lattice_indexing(lattices, z4):
    lat = lattices[z4.label]
    assert lat.index_of(z4.subset([0, 2])) == 1
    assert len(lat.proper()) == 2
    with pytest.raises(ValueError):
        lat.index_of(z4.subset([0, 1]))


def test_is_hyperideal_failure_notes(ex33, z6):
    verdict = H.is_hyperideal(ex33, ex33.subset([0, 2]))
    assert verdict.holds is False
    assert "inverse" in verdict.note
    verdict = H.is_hyperideal(z6, z6.subset([0, 1]))
    assert verdict.holds is False


def subset_scan(a):
    """Reference lattice: is_hyperideal on every subset that holds zero."""
    zero_bit = 1 << a.zero
    found = [H.ElementSet(mask, a.size) for mask in range(1 << a.size)
             if mask & zero_bit and H.is_hyperideal(a, H.ElementSet(mask, a.size)).holds]
    found.sort(key=lambda s: (len(s), s.mask))
    return [q.mask for q in found], [scan_prime(a, q) for q in found]


def scan_prime(a, q):
    if q.mask == a.full_set().mask:
        return False
    return all(a.g_table[ms] not in q or any(x in q for x in ms)
               for ms in itertools.combinations_with_replacement(range(a.size), a.n))


def assert_matches_scan(a):
    lattice = H.enumerate_hyperideals(a)
    assert ([q.mask for q in lattice], list(lattice.prime_flags)) == subset_scan(a)


@pytest.mark.parametrize("name", SMALL_FIXTURES)
def test_closure_route_matches_subset_scan(name):
    assert_matches_scan(H.fixture(name).structure)


@pytest.mark.parametrize("name", ["paper-2-4", "ring:Z12", "ring:Z2xZ4", "ring:Z24"])
def test_every_closed_set_of_a_valid_structure_is_an_ideal(name, monkeypatch):
    checked = []

    def counting_is_hyperideal(a, q):
        checked.append(q.mask)
        return H.is_hyperideal(a, q)

    monkeypatch.setattr(ideals_module, "is_hyperideal", counting_is_hyperideal)
    lattice = H.enumerate_hyperideals(H.fixture(name).structure)
    assert sorted(checked) == sorted(q.mask for q in lattice)


@pytest.mark.parametrize("name", ["paper-2-4", "paper-3-3", "ring:Z6", "ring:Z8",
                                  "ring:Z9", "ring:Z12", "ring:Z2xZ4"])
def test_closure_route_matches_subset_scan_on_mutants(name):
    base = H.fixture(name).structure
    rng = random.Random(name)
    for _ in range(30):
        assert_matches_scan(random_mutant(base, rng))


def products_by_sets(lattice):
    """``IdealLattice.products`` by multiplying the ideals of each index
    multiset with ``eval_g_on_sets``: the oracle of the row route."""
    a = lattice.structure
    rows = []
    for ms in multisets(len(lattice.sets), a.n):
        support = 0
        for i in ms:
            support |= 1 << i
        product = a.eval_g_on_sets([lattice.sets[i] for i in ms])
        rows.append((ms, support, product.mask))
    return tuple(rows)


@pytest.mark.parametrize("key", ORACLE_INPUTS)
def test_row_primality_matches_the_listing_oracle(key):
    for a in oracle_structures(key):
        lattice = H.enumerate_hyperideals(a)
        full = a.full_set().mask
        assert lattice.prime_flags == tuple(
            q.mask != full and listed_first_unfactored(a, q.mask) is None for q in lattice)
        # every mask of a small carrier, ideal or not; the lattice otherwise
        for mask in range(1 << a.size) if a.size <= 6 else [q.mask for q in lattice]:
            expected = listed_first_unfactored(a, mask)
            assert ideals_module.is_prime_like(a, mask) == (expected is None), (a, mask)
            assert ideals_module.first_unfactored(a, mask) == expected, (a, mask)


@pytest.mark.parametrize("key", ORACLE_INPUTS)
def test_products_match_the_set_product_oracle(key):
    for a in oracle_structures(key):
        lattice = H.enumerate_hyperideals(a)
        assert lattice.products == products_by_sets(lattice), a.label


def test_a_row_reused_with_a_smaller_last_entry():
    # n = 3, Q = {0}: the row of (1,3) is met again at (2,2), where it sends
    # 2, below the first context's last entry, into Q
    size = 4
    f = {ms: ((ms[0] + ms[1]) % size,)
         for ms in itertools.combinations_with_replacement(range(size), 2)}
    g = dict.fromkeys(itertools.combinations_with_replacement(range(size), 3), 0)
    g.update({(1, 1, 1): 1, (1, 1, 2): 2, (1, 1, 3): 1, (1, 2, 2): 1, (1, 3, 3): 3,
              (2, 2, 3): 3, (2, 3, 3): 3, (3, 3, 3): 3, (1, 2, 3): 0, (2, 2, 2): 0})
    a = H.HyperStructure.from_tables(2, 3, [str(i) for i in range(size)], f, g, zero=0)
    row_of, rows = a.translations.g
    assert row_of[1, 3] == row_of[2, 2] and rows[row_of[2, 2]][2] == 0
    for mask in range(1, (1 << size) - 1):
        expected = listed_first_unfactored(a, mask)
        assert ideals_module.is_prime_like(a, mask) == (expected is None), mask
        assert ideals_module.first_unfactored(a, mask) == expected, mask
    verdict = H.is_prime(a, a.zero_set())
    assert (verdict.holds, verdict.counterexample) == (False, (1, 2, 3))


def direct_is_hyperideal(a, q):
    """``is_hyperideal`` by direct table lookups, each absorption product
    read as ``g_table[sorted_key(ctx + (x,))]``: the oracle of the row route."""
    if a.zero not in q:
        return H.Verdict(False, note="does not contain zero")
    members = q.indices()
    for ms in itertools.combinations_with_replacement(members, a.m):
        value = a.f_table[ms]
        if not value.issubset(q):
            bad = next(x for x in value if x not in q)
            return H.Verdict(False, counterexample=ms,
                             note=f"not closed under f: {a.names[bad]} escapes")
    for x in members:
        if x not in a.inverse_map:
            return H.Verdict(False, counterexample=(x,),
                             note=f"{a.names[x]} has no unique inverse")
        if a.inverse_map[x] not in q:
            return H.Verdict(False, counterexample=(x,),
                             note=f"inverse {a.names[a.inverse_map[x]]} of {a.names[x]} missing")
    for ctx in itertools.combinations_with_replacement(members, a.m - 1):
        reached = a.subset(y for x in members for y in a.f_table[sorted_key(ctx + (x,))])
        if not q <= reached:
            missing = min(set(q) - set(reached))
            return H.Verdict(False, counterexample=ctx,
                             note=f"{a.names[missing]} unreachable inside the subset")
    for ctx in itertools.combinations_with_replacement(range(a.size), a.n - 1):
        for x in members:
            got = a.g_table[sorted_key(ctx + (x,))]
            if got not in q:
                return H.Verdict(False, counterexample=ctx + (x,),
                                 note=f"absorption fails: product {a.names[got]} escapes")
    return H.Verdict(True)


def direct_forced_masks(a):
    """``_forced_masks`` by walking the g table: entry by entry, each value is
    forced by every element of its key."""
    inv = a.inverse_map
    forced = [1 << a.zero | (1 << inv[x] if x in inv else 0) for x in range(a.size)]
    for key, value in a.g_table.items():
        for x in set(key):
            forced[x] |= 1 << value
    return forced


@pytest.mark.parametrize("name", ["paper-2-4", "paper-3-3", "ring:Z6"])
def test_row_route_matches_direct_lookups_on_mutants(name):
    base = H.fixture(name).structure
    rng = random.Random(name)
    notes = set()
    for a in [base] + [random_mutant(base, rng) for _ in range(40)]:
        assert ideals_module._forced_masks(a) == direct_forced_masks(a), a.label
        for mask in range(1 << a.size):
            if mask >> a.zero & 1:
                q = H.ElementSet(mask, a.size)
                got, expected = H.is_hyperideal(a, q), direct_is_hyperideal(a, q)
                assert ((got.holds, got.counterexample, got.note)
                        == (expected.holds, expected.counterexample, expected.note)), (a, q)
                notes.add((got.note or "").split(":")[0])
    # both outcomes of the absorption test occur
    assert {"", "absorption fails"} <= notes


@pytest.mark.parametrize("name", ["paper-3-3", "ring:Z12", "paper-2-4"])
def test_scale_row_matches_direct_lookups(name):
    a = H.fixture(name).structure
    for c in range(a.size):
        if a.n > 2 and a.one is None:
            with pytest.raises(H.IdentityRequired):
                ideals_module.scale_row(a, c, "test")
            continue
        pad = (a.one,) * (a.n - 2)
        assert ideals_module.scale_row(a, c, "test") == tuple(
            a.g_table[sorted_key((c, x) + pad)] for x in range(a.size))


def divisor_lattice(j, k=1):
    """mask -> prime flag of the ideals dZ_j x eZ_k for d | j and e | k."""
    a = H.fixture(f"ring:Z{j}" if k == 1 else f"ring:Z{j}xZ{k}").structure
    coords = [tuple(map(int, name.split("|"))) if k > 1 else (int(name), 0)
              for name in a.names]
    expected = {}
    for d in (d for d in range(1, j + 1) if j % d == 0):
        for e in (e for e in range(1, k + 1) if k % e == 0):
            mask = sum(1 << i for i, (x, y) in enumerate(coords)
                       if x % d == 0 and y % e == 0)
            expected[mask] = ((e == 1 and is_prime_number(d))
                              or (d == 1 and is_prime_number(e)))
    return a, expected


def is_prime_number(d):
    return d > 1 and all(d % p for p in range(2, math.isqrt(d) + 1))


@pytest.mark.parametrize("j, k, count", [(24, 1, 8), (60, 1, 12), (64, 1, 7),
                                         (2, 32, 12), (4, 16, 15)])
def test_large_rings_give_divisor_lattices(j, k, count):
    a, expected = divisor_lattice(j, k)
    start = time.perf_counter()
    lattice = H.enumerate_hyperideals(a)
    assert time.perf_counter() - start < 1.0
    assert len(lattice) == len(expected) == count
    assert dict(zip((q.mask for q in lattice), lattice.prime_flags)) == expected


def degenerate(size):
    """Every subset that holds zero is a hyperideal: f(x, y) = {x, y}."""
    f = {}
    for x, y in itertools.combinations_with_replacement(range(size), 2):
        f[(x, y)] = (0, x) if x == y else (y,) if x == 0 else (x, y)
    g = dict.fromkeys(itertools.combinations_with_replacement(range(size), 2), 0)
    return H.HyperStructure.from_tables(2, 2, [str(i) for i in range(size)], f, g, zero=0)


def test_enumeration_capacity(monkeypatch):
    a = degenerate(14)
    monkeypatch.setattr(ideals_module, "ENUMERATION_CAP", 1000)
    start = time.perf_counter()
    with pytest.raises(H.CapacityError):
        H.enumerate_hyperideals(a)
    assert time.perf_counter() - start < 1.0
    assert len(H.enumerate_hyperideals(degenerate(8))) == 1 << 7


class TestGeneratedAndColon:
    def test_generated_frozen(self, ex33, z12):
        assert H.generated_hyperideal(ex33, 2).render(ex33.names) == "{0,2}"
        assert H.generated_hyperideal(z12, 8).render(z12.names) == "{0,4,8}"

    def test_generated_needs_identity(self, madar):
        with pytest.raises(H.IdentityRequired):
            H.generated_hyperideal(madar, 2)

    def test_colon_frozen(self, ex33, z6):
        assert H.colon(ex33, ex33.subset([0, 2]), 2).render(ex33.names) == "{0,1,2}"
        assert H.colon_zero(ex33, 2).render(ex33.names) == "{0}"
        assert H.colon(z6, z6.subset([0, 3]), 2).render(z6.names) == "{0,3}"

    def test_colon_contains_ideal(self, z12, lattices):
        lat = lattices[z12.label]
        for q in lat.proper():
            for x in range(z12.size):
                assert q <= H.colon(z12, q, x)

    def test_scaled(self, z12):
        assert H.scaled(z12, 5, 3) == 3
        assert H.scaled_set(z12, 2, z12.subset([0, 6])).render(z12.names) == "{0}"


class TestRadical:
    def test_frozen_values(self, z4, z6, z12, lattices):
        assert H.radical(z4, z4.subset([0]), lattices[z4.label]).render(z4.names) == "{0,2}"
        assert H.radical(z6, z6.subset([0]), lattices[z6.label]).render(z6.names) == "{0}"
        assert H.radical(z12, z12.subset([0]), lattices[z12.label]).render(z12.names) == "{0,6}"

    def test_primes_route_equals_powers_route(self, z4, z6, z12, z2z3, lattices):
        for a in (z4, z6, z12, z2z3):
            lat = lattices[a.label]
            for q in lat.proper():
                via_primes = H.radical(a, q, lat)
                via_powers = a.subset(
                    [x for x in range(a.size) if H.radical_membership(a, q, x)])
                assert via_primes.mask == via_powers.mask

    def test_membership_cycles_terminate(self, z12):
        q = z12.subset([0, 4, 8])
        assert H.radical_membership(z12, q, 2)
        assert not H.radical_membership(z12, q, 3)

    def test_membership_needs_identity_only_for_wide_g(self, madar):
        assert H.radical_membership(madar, madar.subset([0, 1]), 1)
        with pytest.raises(H.IdentityRequired):
            H.radical_membership(madar, madar.subset([0]), 2)


def test_set_product_is_raw_image(z4, z6):
    assert H.set_product(z4, [z4.subset([0, 2])] * 2).render(z4.names) == "{0}"
    got = H.set_product(z6, [z6.subset([0, 2, 4]), z6.subset([0, 3])])
    assert got.render(z6.names) == "{0}"
