import itertools
import random

import pytest

import hyperlab as H
from hyperlab.core import graded_key

# every fixture of 16 elements or fewer
SMALL_FIXTURES = (
    ["paper-2-4", "paper-3-3", "paper-3-3-s1"]
    + [f"ring:Z{k}" for k in range(2, 17)]
    + [f"ring:Z{j}xZ{k}" for j in range(2, 9) for k in range(2, 9) if j * k <= 16])

# the 14 structures of the benchmark's theorems workload
BENCH_CORPUS = (
    "paper-2-4", "ring:Z4", "ring:Z6", "ring:Z12", "ring:Z2xZ3", "ring:Z4xZ3",
    "ring:Z8", "ring:Z9", "ring:Z16", "ring:Z2xZ2", "ring:Z2xZ4",
    "ring:Z3xZ3", "ring:Z2xZ6", "ring:Z2xZ8",
)


# inputs of the primality and ideal-product oracles: every fixture of 16
# elements or fewer, paper-2-4 squared, and 40 seeded random mutants of each
# of three bases (enumerate_hyperideals accepts invalid tables)
MUTANT_BASES = ("paper-2-4", "paper-3-3", "ring:Z6")
ORACLE_INPUTS = (*SMALL_FIXTURES, "paper-2-4^2", *(f"mutants:{b}" for b in MUTANT_BASES))


def random_mutant(a, rng):
    """Copy of ``a`` with one to three f or g entries replaced at random."""
    f_entries = {k: tuple(v) for k, v in a.f_table.items()}
    g_entries = dict(a.g_table)
    for _ in range(rng.randint(1, 3)):
        if rng.random() < 0.5:
            key = rng.choice(sorted(f_entries))
            f_entries[key] = tuple(rng.sample(range(a.size), rng.randint(1, 2)))
        else:
            g_entries[rng.choice(sorted(g_entries))] = rng.randrange(a.size)
    return H.HyperStructure.from_tables(a.m, a.n, a.names, f_entries, g_entries,
                                        a.zero, a.one, label=a.label + "-mutant")


def oracle_structures(key):
    """The structures of one ``ORACLE_INPUTS`` entry."""
    if key == "paper-2-4^2":
        madar = H.fixture("paper-2-4").structure
        return [H.product(madar, madar, label=key)]
    if key.startswith("mutants:"):
        base = key.removeprefix("mutants:")
        rng = random.Random(base)
        return [random_mutant(H.fixture(base).structure, rng) for _ in range(40)]
    return [H.fixture(key).structure]


def listed_first_unfactored(a, mask):
    """The graded-first multiset outside the mask valued in it, or None, by
    listing every such multiset and taking the least: the oracle of the
    row test and the graded scan."""
    outside = [x for x in range(a.size) if not mask >> x & 1]
    missed = [ms for ms in itertools.combinations_with_replacement(outside, a.n)
              if mask >> a.g_table[ms] & 1]
    return min(missed, key=graded_key) if missed else None


def multiplicative_by_search(a, max_size):
    """``multiplicative_subsets`` by testing every zero-free subset of at
    most ``max_size`` elements: the oracle of the closure walk."""
    pool = [x for x in range(a.size) if x != a.zero]
    out = []
    for k in range(1, max_size + 1):
        for combo in itertools.combinations(pool, k):
            candidate = H.ElementSet.from_indices(combo, a.size)
            if H.is_multiplicative(a, candidate).holds:
                out.append(candidate)
    out.sort(key=lambda s: (len(s), s.mask))
    return out


@pytest.fixture(scope="session")
def madar():
    return H.fixture("paper-2-4").structure


@pytest.fixture(scope="session")
def ex33():
    return H.fixture("paper-3-3").structure


@pytest.fixture(scope="session")
def z4():
    return H.fixture("ring:Z4").structure


@pytest.fixture(scope="session")
def z6():
    return H.fixture("ring:Z6").structure


@pytest.fixture(scope="session")
def z12():
    return H.fixture("ring:Z12").structure


@pytest.fixture(scope="session")
def z2z3():
    return H.fixture("ring:Z2xZ3").structure


@pytest.fixture(scope="session")
def lattices(madar, z4, z6, z12, z2z3):
    return {a.label: H.enumerate_hyperideals(a)
            for a in (madar, z4, z6, z12, z2z3)}


@pytest.fixture(scope="session")
def corpus():
    return H.build_corpus(H.DEFAULT_CORPUS)


@pytest.fixture(scope="session")
def default_suite():
    """One shared run of the full statement suite over the default corpus."""
    return H.run_suite(H.DEFAULT_CORPUS)


def mutated(a, *, f_key=None, f_value=None, g_key=None, g_value=None):
    """Copy of a structure with one table entry replaced."""
    f_entries = {k: tuple(v) for k, v in a.f_table.items()}
    g_entries = dict(a.g_table)
    if f_key is not None:
        f_entries[f_key] = f_value
    if g_key is not None:
        g_entries[g_key] = g_value
    return H.HyperStructure.from_tables(
        a.m, a.n, a.names, f_entries, g_entries, a.zero, a.one,
        label=a.label + "-mutated")


# (base, operation, sorted key, new value): one table entry replaced.  With
# paper-3-3 these are the inputs whose violations tests/test_golden.py pins.
VALIDATE_MUTANTS = (
    ("paper-2-4", "f", (3, 3), (0, 2)),
    ("paper-2-4", "f", (1, 1), (0, 1, 2, 3)),
    ("paper-2-4", "g", (1, 1, 1, 3), 3),
    ("ring:Z6", "f", (0, 4), (0, 2, 4, 5)),
    ("ring:Z6", "f", (4, 4), (1, 2, 3, 5)),
    ("ring:Z6", "g", (2, 4), 3),
    ("ring:Z2xZ4", "f", (2, 6), (1, 4, 5, 6)),
    ("ring:Z2xZ4", "f", (4, 4), (0, 1, 3, 4, 7)),
    ("ring:Z2xZ4", "g", (2, 5), 1),
)

# test ids of validate_inputs(), in the same order
VALIDATE_IDS = ("paper-3-3", *(f"{base}-{op}{''.join(map(str, key))}"
                               for base, op, key, _ in VALIDATE_MUTANTS))


def validate_inputs():
    yield H.fixture("paper-3-3").structure
    for base, op, key, value in VALIDATE_MUTANTS:
        a = H.fixture(base).structure
        yield (mutated(a, f_key=key, f_value=value) if op == "f"
               else mutated(a, g_key=key, g_value=value))
