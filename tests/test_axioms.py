"""Axiom scans, violation replay, and the iterated operations."""

import dataclasses
import functools
import itertools
import math
import random
import time

import pytest

import hyperlab as H
from hyperlab import axioms, core
from hyperlab.axioms import AXIOM_ORDER
from hyperlab.core import sorted_key

from conftest import ORACLE_INPUTS, VALIDATE_IDS, mutated, oracle_structures, validate_inputs

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
        "NEUTRAL", "INVERSE_UNIQUE", "ASSOC_F", "REVERSIBILITY",
        "QUASI_SOLVABLE", "ASSOC_G", "DISTRIB", "ZERO_ABSORB", "ONE_IDENTITY")


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
        monkeypatch.setitem(axioms.G_AXIOMS, name,
                            dataclasses.replace(axioms.G_AXIOMS[name], scan=unreachable))
    splits.clear()
    assert H.check_krasner(broken, first_violation=True) == full[:1]
    # ASSOC_G stopped at its first witness, not after its whole scan
    assert len(splits) < full_splits


def _z5_derived():
    # Z/5 as a (3,3)-structure: f = 3-fold sum, g = 3-fold product
    return H.HyperStructure.from_tables(
        3, 3, tuple("01234"),
        {ms: (sum(ms) % 5,) for ms in itertools.combinations_with_replacement(range(5), 3)},
        {ms: ms[0] * ms[1] * ms[2] % 5
         for ms in itertools.combinations_with_replacement(range(5), 3)},
        zero=0, one=1, label="Z5-derived")


def _z7_quotient():
    # the Krasner quotient Z7/G for G = {1,2,4}: classes {0}, G, 3G
    cosets = ((0,), (1, 2, 4), (3, 5, 6))
    cls = {x: i for i, coset in enumerate(cosets) for x in coset}
    pairs = list(itertools.combinations_with_replacement(range(3), 2))
    return H.HyperStructure.from_tables(
        2, 2, ("0", "G", "3G"),
        {(i, j): {cls[(x + y) % 7] for x in cosets[i] for y in cosets[j]} for i, j in pairs},
        {(i, j): cls[cosets[i][0] * cosets[j][0] % 7] for i, j in pairs},
        zero=0, one=1, label="Z7/{1,2,4}")


ORACLE_BASES = {
    "paper-2-4": lambda: H.fixture("paper-2-4").structure,
    "paper-3-3": lambda: H.fixture("paper-3-3").structure,
    "ring:Z4": lambda: H.fixture("ring:Z4").structure,
    "ring:Z5": lambda: H.fixture("ring:Z5").structure,
    "ring:Z6": lambda: H.fixture("ring:Z6").structure,
    "ring:Z2xZ3": lambda: H.fixture("ring:Z2xZ3").structure,
    "Z5-derived": _z5_derived,
    "Z7/{1,2,4}": _z7_quotient,
}


def _mutants(a, seed, count=12, entries=1):
    """Seeded copies of ``a`` with ``entries`` f entries (each a random
    non-empty subset) replaced, then as many with ``entries`` g entries
    replaced."""
    rng = random.Random(seed)
    f_keys, g_keys = sorted(a.f_table), sorted(a.g_table)
    for _ in range(count):
        f_entries = {k: tuple(v) for k, v in a.f_table.items()}
        for key in rng.sample(f_keys, entries):
            f_entries[key] = ([x for x in range(a.size) if rng.random() < 0.5]
                              or [rng.randrange(a.size)])
        yield "f", H.HyperStructure.from_tables(a.m, a.n, a.names, f_entries, a.g_table,
                                                a.zero, a.one, label=a.label)
    for _ in range(count):
        g_entries = dict(a.g_table)
        for key in rng.sample(g_keys, entries):
            g_entries[key] = rng.randrange(a.size)
        yield "g", H.HyperStructure.from_tables(a.m, a.n, a.names, a.f_table, g_entries,
                                                a.zero, a.one, label=a.label)


def all_splits_assoc(a, k, nested):
    """The ASSOC scan over every (2k-1)-multiset and every split of it."""
    # Any two length-k windows of a (2k-1)-tuple overlap in at least one slot,
    # so every pair of k-sub-multisets occurs as a window pair of some tuple:
    # requiring all splits of each multiset to agree covers all position pairs.
    for ms in itertools.combinations_with_replacement(range(a.size), 2 * k - 1):
        base_inner = None
        base_val = None
        for inner, outer in core.multiset_splits(ms, k):
            val = nested(a, inner, outer)
            if base_inner is None:
                base_inner, base_val = inner, val
            elif val != base_val:
                names = a.render_elements
                yield ((ms, base_inner, inner),
                       f"nesting {names(base_inner)} and {names(inner)} inside "
                       f"{names(ms)} give different results")
                break


def per_multiset_undistributed(a, scaled):
    """(ms, lhs, rhs) of the first m-multiset that the scaled row does not
    distribute over, or None, by one f lookup pair per m-multiset."""
    for ms in itertools.combinations_with_replacement(range(a.size), a.m):
        lhs = 0
        for t in a.f_table[ms]:
            lhs |= 1 << scaled[t]
        rhs = a.f_table[tuple(sorted(scaled[x] for x in ms))].mask
        if lhs != rhs:
            return ms, lhs, rhs
    return None


def per_multiset_distrib(a):
    """The DISTRIB scan by the per-multiset scan of every g context's row."""
    for ctx in itertools.combinations_with_replacement(range(a.size), a.n - 1):
        failure = per_multiset_undistributed(
            a, tuple(a.g_table[sorted_key(ctx + (x,))] for x in range(a.size)))
        if failure is not None:
            ms, lhs, rhs = failure
            yield ((ctx, ms),
                   f"g over f{a.render_elements(ms)} with fixed arguments "
                   f"{a.render_elements(ctx)} is {H.ElementSet(lhs, a.size).render(a.names)}, "
                   f"expected {H.ElementSet(rhs, a.size).render(a.names)}")


# the registry with ASSOC and DISTRIB scanned multiset by multiset
ORACLE_SCANS = {"ASSOC_F": lambda a: all_splits_assoc(a, a.m, axioms._nested_f),
                "ASSOC_G": lambda a: all_splits_assoc(a, a.n, axioms._nested_g),
                "DISTRIB": per_multiset_distrib}
ORACLE_AXIOMS = {name: dataclasses.replace(entry, scan=ORACLE_SCANS.get(name, entry.scan))
                 for name, entry in {**axioms.HYPERGROUP_AXIOMS, **axioms.G_AXIOMS}.items()}


@pytest.mark.parametrize("base", [*ORACLE_BASES, "ring:Z12", "ring:Z2xZ6"])
def test_composition_matches_all_splits_scan(base):
    # the all-splits and per-multiset scans are the oracles of the row
    # routes: the same violations, in full and first-only
    a = ORACLE_BASES[base]() if base in ORACLE_BASES else H.fixture(base).structure
    failed = {"ASSOC_F": set(), "ASSOC_G": set()}
    cases = [("base", a), *_mutants(a, seed=base), *_mutants(a, seed=base, count=6, entries=2)]
    for op, b in cases:
        full = H.check_krasner(b)
        assert full == axioms._scan(b, ORACLE_AXIOMS, False), (base, op)
        assert H.check_krasner(b, first_violation=True) == axioms._scan(b, ORACLE_AXIOMS, True)
        for axiom, fails in failed.items():
            fails.add(any(v.axiom == axiom for v in full))
    assert failed == {"ASSOC_F": {True, False}, "ASSOC_G": {True, False}}


def unbound_walk(monkeypatch):
    """Lift the generator walk's composition budget: the budget sends most
    small tables to the all-pairs route, and unbounded they are decided on
    their generators."""
    monkeypatch.setattr(core, "_generators",
                        functools.partial(core._generators, budget=math.inf))


@pytest.fixture(params=["bounded", "unbounded"])
def walk(request, monkeypatch):
    """The generator walk as built, then unbounded."""
    if request.param == "unbounded":
        unbound_walk(monkeypatch)
    return request.param


SMALL_TABLE_SHAPES = pytest.mark.parametrize(
    "op, k, size", [("g", 2, 3), ("g", 3, 2), ("g", 4, 2), ("f", 2, 2), ("f", 3, 2)])


@SMALL_TABLE_SHAPES
def test_composition_matches_all_splits_scan_on_every_small_table(op, k, size):
    # every commutative table of one shape, so no case the row-pair listing
    # might miss is left to the seeded draw
    names = tuple(map(str, range(size)))
    keys = list(itertools.combinations_with_replacement(range(size), k))
    values = ([tuple(x for x in range(size) if mask >> x & 1) for mask in range(1, 1 << size)]
              if op == "f" else range(size))
    binary = {ms: (0,) for ms in itertools.combinations_with_replacement(range(size), 2)}
    verdicts = set()
    for row in itertools.product(values, repeat=len(keys)):
        table = dict(zip(keys, row))
        if op == "f":
            a = H.HyperStructure.from_tables(k, 2, names, table, dict.fromkeys(binary, 0), 0)
            found = list(axioms._assoc_f(a))
            assert found == list(all_splits_assoc(a, k, axioms._nested_f)), table
        else:
            a = H.HyperStructure.from_tables(2, k, names, binary, table, 0)
            found = list(axioms._assoc_g(a))
            assert found == list(all_splits_assoc(a, k, axioms._nested_g)), table
        verdicts.add(not found)
    assert verdicts == {True, False}


@SMALL_TABLE_SHAPES
def test_generator_route_matches_all_splits_scan_on_every_small_table(monkeypatch, op, k, size):
    unbound_walk(monkeypatch)
    test_composition_matches_all_splits_scan_on_every_small_table(op, k, size)


@pytest.mark.parametrize("name", ["paper-2-4", "ring:Z4", "ring:Z5", "ring:Z2xZ3"])
def test_row_images_match_per_multiset_scan_on_every_map(name):
    # the per-multiset scan is the oracle of the DISTRIB row route, here on
    # every map carrier -> carrier, not only on the rows g has
    a = H.fixture(name).structure
    verdicts = set()
    for row in itertools.product(range(a.size), repeat=a.size):
        found = axioms._undistributed(a, row)
        assert found == per_multiset_undistributed(a, row), row
        verdicts.add(found is None)
    assert verdicts == {True, False}


@pytest.mark.parametrize("base", list(ORACLE_BASES))
def test_row_images_match_per_multiset_scan_on_mutants(base):
    a = ORACLE_BASES[base]()
    verdicts = set()
    for op, b in [("base", a), *_mutants(a, seed=base)]:
        for row in b.translations.g[1]:
            found = axioms._undistributed(b, row)
            assert found == per_multiset_undistributed(b, row), (base, op, row)
            verdicts.add(found is None)
    assert verdicts == {True, False}


def direct_reversibility(a):
    """The REVERSIBILITY scan by f-table lookups, one per (ms, x, position)."""
    inv = a.inverse_map
    for ms in itertools.combinations_with_replacement(range(a.size), a.m):
        for x in a.f_table[ms]:
            for i, kept in enumerate(ms):
                others = ms[:i] + ms[i + 1:]
                if (i and ms[i - 1] == kept) or any(o not in inv for o in others):
                    continue
                if kept not in a.f_table[tuple(sorted((x,) + tuple(inv[o] for o in others)))]:
                    yield ((ms, x, i),
                           f"{a.names[x]} lies in f{a.render_elements(ms)} but "
                           f"{a.names[kept]} is not recoverable from position {i}")


def direct_solvability(a):
    """The QUASI_SOLVABLE scan by f-table lookups, one per (ctx, x)."""
    for ctx in itertools.combinations_with_replacement(range(a.size), a.m - 1):
        reached = set().union(*(a.f_table[sorted_key(ctx + (x,))] for x in range(a.size)))
        if len(reached) < a.size:
            b = min(set(range(a.size)) - reached)
            yield ((ctx, b),
                   f"{a.names[b]} is not reachable from f{a.render_elements(ctx)} "
                   f"for any choice of the remaining argument")


def direct_one_identity(a):
    """The ONE_IDENTITY scan by g-table lookups, one per element."""
    for x in range(a.size if a.one is not None else 0):
        got = a.g_table[tuple(sorted((x,) + (a.one,) * (a.n - 1)))]
        if got != x:
            yield (x,), f"g({a.names[x]}, one^{a.n - 1}) = {a.names[got]}, expected {a.names[x]}"


@pytest.mark.parametrize("base", list(ORACLE_BASES))
def test_row_scans_match_direct_lookups_on_mutants(base):
    a = ORACLE_BASES[base]()
    failed = set()
    for op, b in [("base", a), *_mutants(a, seed=base)]:
        for scan, oracle in ((axioms._reversibility, direct_reversibility),
                             (axioms._solvability, direct_solvability),
                             (axioms._one_identity, direct_one_identity)):
            found = list(scan(b))
            assert found == list(oracle(b)), (base, op, scan.__name__)
            if found:
                failed.add(scan.__name__)
    assert failed >= {"_reversibility", "_solvability"}


def _every_table(size, k, values):
    """Every commutative table of arity k over ``size`` elements with values
    drawn from ``values``."""
    keys = list(itertools.combinations_with_replacement(range(size), k))
    for row in itertools.product(values, repeat=len(keys)):
        yield dict(zip(keys, row))


@pytest.mark.parametrize("base, n", [("ring:Z3", 2), ("ring:Z2", 3), ("ring:Z2", 4)])
def test_distrib_matches_per_multiset_scan_on_every_small_g_table(walk, base, n):
    # the generator decision and its fallback against the per-multiset scan,
    # on every g table over the carrier of base, with base's f
    f = H.fixture(base).structure
    verdicts = set()
    for g_table in _every_table(f.size, n, range(f.size)):
        a = H.HyperStructure(f.m, n, f.names, f.f_table, g_table, f.zero)
        found = list(axioms._distrib(a))
        assert found == list(per_multiset_distrib(a)), g_table
        assert list(itertools.islice(axioms._distrib(a), 1)) == found[:1], g_table
        verdicts.add(not found)
    assert verdicts == {True, False}


def _reversibility_cases(a, cases):
    found = list(axioms._reversibility(a))
    assert found == list(direct_reversibility(a)), a.f_table
    cases.add((bool(a.inverse_map), not found))


@pytest.mark.parametrize("m", [2, 3])
def test_reversibility_matches_direct_lookups_on_every_small_f_table(m):
    binary = {ms: 0 for ms in itertools.combinations_with_replacement(range(2), 2)}
    values = [H.ElementSet(mask, 2) for mask in (1, 2, 3)]
    cases = set()
    for f_table in _every_table(2, m, values):
        _reversibility_cases(H.HyperStructure(m, 2, ("0", "1"), f_table, binary, 0), cases)
    assert cases == {(True, True), (True, False), (False, True)}


def test_reversibility_matches_direct_lookups_on_seeded_size_3_tables():
    rng = random.Random("reversibility")
    keys = list(itertools.combinations_with_replacement(range(3), 2))
    binary = dict.fromkeys(keys, 0)
    cases = set()
    for _ in range(2000):
        f_table = {ms: H.ElementSet(rng.randrange(1, 8), 3) for ms in keys}
        _reversibility_cases(H.HyperStructure(2, 2, ("0", "1", "2"), f_table, binary, 0),
                             cases)
    assert cases == {(True, True), (True, False), (False, True)}


def _compose_g(r, s):
    return tuple(r[y] for y in s)


def _compose_f(r, s):
    return tuple(functools.reduce(lambda out, t: out | r[t], H.ElementSet(mask, len(r)), 0)
                 for mask in s)


def _closure(start, rows, compose):
    """The rows reached from ``start`` by composing any two reached rows, in
    either order, until nothing new is reached."""
    reached = set(start)
    while True:
        new = {compose(r, s) for r in reached for s in reached} & rows - reached
        if not new:
            return reached
        reached |= new


@pytest.mark.parametrize("key", ORACLE_INPUTS)
def test_generators_cover_every_row(walk, key):
    decided = 0
    for a in oracle_structures(key):
        t = a.translations
        for (_, rows), gens, compose in ((t.f, t.f_generators, _compose_f),
                                         (t.g, t.g_generators, _compose_g)):
            if gens is None:
                continue
            decided += 1
            assert gens == sorted(set(gens)) and gens[:1] == [0]
            assert _closure({rows[i] for i in gens}, set(rows), compose) == set(rows)
    assert decided or walk == "bounded"


def _min_table():
    # g = min on ring:Z64's carrier: associative, but every row is its own
    # generator, so the walk gives up
    z64 = H.fixture("ring:Z64").structure
    g = {ms: ms[0] for ms in itertools.combinations_with_replacement(range(64), 2)}
    return H.HyperStructure(2, 2, z64.names, z64.f_table, g, z64.zero, z64.one)


def _counting(calls, fn):
    def call(*args):
        calls.append(args)
        return fn(*args)
    return call


def test_walk_gives_up_within_half_the_all_pairs_compositions():
    t = _min_table().translations
    rows, calls = t.g[1], []
    getters = [_counting(calls, get) for get in t.g_getters]
    assert core._generators(rows, rows, getters) is None
    assert 0 < len(calls) <= len(rows) * (len(rows) - 1) // 2
    assert core._generators(rows, rows, t.g_getters, budget=math.inf) == list(range(64))


def _undistributed_counts(monkeypatch, a):
    calls = []
    monkeypatch.setattr(axioms, "_undistributed", _counting(calls, axioms._undistributed))
    counts = []
    for first in (True, False):
        calls.clear()
        list(itertools.islice(axioms._distrib(a), 1 if first else None))
        counts.append(len(calls))
    return counts


def test_distrib_tests_no_more_rows_than_a_scan_in_context_order(monkeypatch):
    # a failing structure: the scan in context order tests every row up to
    # the first failing one, or every row; the generators' verdicts are
    # reused, so neither count grows
    z64 = H.fixture("ring:Z64").structure
    cases = [_min_table(), *(b for _, b in _mutants(z64, seed="distrib", count=2)),
             *(b for base in ORACLE_BASES for _, b in _mutants(ORACLE_BASES[base](), seed=base))]
    routes, counts = set(), []
    for a in cases:
        rows = a.translations.g[1]
        failing = next((i for i, row in enumerate(rows) if axioms._undistributed(a, row)), None)
        first, full = _undistributed_counts(monkeypatch, a)
        counts.append([first, full])
        if failing is None:
            assert first == full <= len(rows)
        else:
            assert first <= failing + 1 and full == len(rows)
            routes.add(a.translations.g_generators is not None)
    assert routes == {True, False}
    assert counts[0] == [2, 64]  # the min table: the walk gave up


def test_ring_z64_decides_on_its_generators(monkeypatch):
    a = H.fixture("ring:Z64").structure
    t = a.translations
    assert (t.f_generators, t.g_generators) == ([0, 1], [0, 1, 2, 3, 5])
    undistributed, composed = [], []
    monkeypatch.setattr(axioms, "_undistributed", _counting(undistributed, axioms._undistributed))
    for name in ("f_getters", "g_getters"):
        monkeypatch.setitem(t.__dict__, name,
                            [_counting(composed, get) for get in getattr(t, name)])
    monkeypatch.setattr(axioms, "multiset_splits", None)  # no witness is looked for
    assert H.check_krasner(a) == []
    assert len(undistributed) == 5
    # f: 2 generators; g: 5; each pair composed both ways, and each of the
    # five DISTRIB rows composes f's 64 rows through its image table
    assert len(composed) == 2 + 20 + 5 * 64


def test_empty_f_value_is_reported():
    # every construction refuses an empty f value, the dataclass call too
    z4 = H.fixture("ring:Z4").structure
    f_table = dict(z4.f_table)
    f_table[(1, 2)] = H.ElementSet.empty(z4.size)
    with pytest.raises(H.TableError, match=r"f value for \(1, 2\) is empty"):
        H.HyperStructure(z4.m, z4.n, z4.names, f_table, z4.g_table, z4.zero, z4.one)
    with pytest.raises(H.TableError, match=r"f value for \(1, 2\) is empty"):
        mutated(z4, f_key=(1, 2), f_value=())


@pytest.mark.parametrize("name", ["paper-2-4", "ring:Z12"])
def test_valid_structure_runs_no_split_scan(monkeypatch, name):
    # a valid structure is decided from its translation rows alone: no
    # multiset is split or nested, and each operation's rows are built
    # once per structure, shared by the check and the ideal questions
    a = H.fixture(name).structure
    called, builds = [], []

    def counted(real):
        def call(*args):
            called.append(real.__name__)
            return real(*args)
        return call

    for fn in ("_nested_f", "_nested_g", "multiset_splits"):
        monkeypatch.setattr(axioms, fn, counted(getattr(axioms, fn)))
    real_translations = core._translations

    def counted_translations(size, k, items):
        # g passes its table's items view, f a generator of mask pairs
        builds.append("g" if getattr(items, "mapping", None) == a.g_table else "f")
        return real_translations(size, k, items)

    monkeypatch.setattr(core, "_translations", counted_translations)
    assert H.check_krasner(a) == []
    lattice = H.enumerate_hyperideals(a)
    if a.n > 2 and a.one is None:
        with pytest.raises(H.IdentityRequired):
            H.colon(a, lattice[0], 1)
    else:
        H.colon(a, lattice[0], 1)
    assert called == []
    assert sorted(builds) == ["f", "g"]

    # a check that stops before ASSOC_F builds neither
    builds.clear()
    x = (a.zero + 1) % a.size
    broken = mutated(a, f_key=tuple(sorted((x,) + (a.zero,) * (a.m - 1))), f_value=(a.zero,))
    (first,) = H.check_krasner(broken, first_violation=True)
    assert first.axiom == "NEUTRAL"
    assert builds == []


@pytest.mark.parametrize("base, key, value", [("ring:Z6", (2, 3), 1),
                                              ("paper-2-4", (1, 1, 1, 3), 3)])
def test_first_assoc_witness_comes_from_the_all_splits_scan(base, key, value):
    broken = mutated(H.fixture(base).structure, g_key=key, g_value=value)
    (first,) = H.check_krasner(broken, first_violation=True)
    assert first.axiom == "ASSOC_G"
    assert (first.witness, first.detail) == next(all_splits_assoc(broken, broken.n,
                                                                  axioms._nested_g))


@pytest.fixture(scope="module")
def square():
    madar = H.fixture("paper-2-4").structure
    return H.product(madar, madar, label="paper-2-4^2")


def test_assoc_splits_only_the_multisets_it_reports(monkeypatch, square):
    # g(1,2,3,5) raised by one: the f side passes, ASSOC_G fails
    broken = mutated(square, g_key=(1, 2, 3, 5), g_value=square.g_table[1, 2, 3, 5] + 1)
    split = []
    real_splits = axioms.multiset_splits

    def counted_splits(ms, k):
        split.append(ms)
        return real_splits(ms, k)

    monkeypatch.setattr(axioms, "multiset_splits", counted_splits)
    (first,) = H.check_krasner(broken, first_violation=True)
    assert first.axiom == "ASSOC_G"
    assert split == [first.witness[0]]
    split.clear()
    full = H.check_krasner(broken)
    assoc = [v.witness[0] for v in full if v.axiom == "ASSOC_G"]
    assert full[0] == first and len(assoc) > 1
    assert split == assoc


# (axiom, base, operation, sorted key, new value): a one-entry mutant that
# check_krasner reports under that axiom, on a (2,2) and a (2,4) base
REPLAY_MUTANTS = (
    ("NEUTRAL", "ring:Z6", "f", (0, 0), (0, 1)),
    ("INVERSE_UNIQUE", "ring:Z6", "f", (1, 1), (0, 1, 2)),
    ("ASSOC_F", "ring:Z6", "f", (3, 3), (0, 3)),
    ("REVERSIBILITY", "ring:Z6", "f", (1, 1), (1, 2)),
    ("QUASI_SOLVABLE", "ring:Z6", "f", (1, 1), (1,)),
    ("ASSOC_G", "ring:Z6", "g", (2, 2), 0),
    ("DISTRIB", "ring:Z6", "g", (3, 3), 0),
    ("ZERO_ABSORB", "ring:Z6", "g", (0, 3), 3),
    ("ONE_IDENTITY", "ring:Z6", "g", (1, 1), 0),
    ("NEUTRAL", "paper-2-4", "f", (0, 1), (0, 1)),
    ("INVERSE_UNIQUE", "paper-2-4", "f", (2, 3), (0, 1)),
    ("ASSOC_F", "paper-2-4", "f", (1, 1), (0,)),
    ("REVERSIBILITY", "paper-2-4", "f", (1, 2), (2, 3)),
    ("QUASI_SOLVABLE", "paper-2-4", "f", (1, 2), (2,)),
    ("ASSOC_G", "paper-2-4", "g", (1, 1, 1, 1), 2),
    ("DISTRIB", "paper-2-4", "g", (1, 1, 1, 1), 1),
    ("ZERO_ABSORB", "paper-2-4", "g", (0, 0, 0, 0), 1),
)


def test_every_axiom_has_a_replay_mutant():
    assert {row[0] for row in REPLAY_MUTANTS} == set(AXIOM_ORDER)


@pytest.mark.parametrize("axiom, base, op, key, value", REPLAY_MUTANTS,
                         ids=[f"{axiom}-{base}" for axiom, base, *_ in REPLAY_MUTANTS])
def test_witnesses_replay_on_the_mutant_and_not_on_its_base(axiom, base, op, key, value):
    a = H.fixture(base).structure
    broken = mutated(a, **{f"{op}_key": key, f"{op}_value": value})
    found = H.check_krasner(broken)
    assert axiom in {v.axiom for v in found}
    for v in found:
        assert H.replay(broken, v) is True, v
        assert H.replay(a, v) is False, v


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
        # a witness that is not a split of a multiset over the carrier
        for witness in (((0, 1, 2), (0, 1), (3, 4)),   # right is not inside ms
                        ((0, 1, 2), (0, 1, 2), (0,)),  # parts of the wrong size
                        ((0, 1, 9), (0, 1), (1, 9)),   # 9 is outside the carrier
                        ((0, 1, 2), (0, 1))):          # a part missing
            for axiom in ("ASSOC_F", "ASSOC_G"):
                assert H.replay(z6, H.AxiomViolation(axiom, witness, "")) is False
        # one malformed witness per axiom: a wrong arity, a missing part, or
        # an index outside the carrier of six elements
        for axiom, witness in (("NEUTRAL", (70,)),
                               ("INVERSE_UNIQUE", (99,)),
                               ("REVERSIBILITY", ((0, 9), 1, 0)),
                               ("REVERSIBILITY", ((0, 1), 1, 2)),
                               ("QUASI_SOLVABLE", ((0, 0), 1)),
                               ("DISTRIB", ((9,), (0, 1))),
                               ("ZERO_ABSORB", ((7,),)),
                               ("ONE_IDENTITY", (99,)),
                               ("ONE_IDENTITY", 3)):
            assert axiom in AXIOM_ORDER
            assert H.replay(z6, H.AxiomViolation(axiom, witness, "")) is False
        for tag in ("NOT_AN_AXIOM", "F_VALUE_EMPTY"):
            with pytest.raises(ValueError):
                H.replay(z6, H.AxiomViolation(tag, ((0, 1),), ""))


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
