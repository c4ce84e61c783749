"""Seeded inputs for the benchmark workloads.

Structures are built here from their definitions, not through hyperlab, so
the inputs do not change when the code under test changes.  A structure is
index-based: ``f`` maps each sorted m-multiset of indices to a frozenset of
indices, ``g`` maps each sorted n-multiset to one index.

The seed renames the elements and spells each table key in a random argument
order, so each seed hands the program different documents for the same
structures.  It keeps the carrier order: that order decides where the
exhaustive scans exit early, and reordering it moves the ideal-lattice scan
of ring:Z18 between 1.3 s and 3.9 s, which would swamp any code change.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations_with_replacement

# ROADMAP item 1's two corpora: DEFAULT_CORPUS and the 8-ring corpus.
THEOREMS_CORPUS = (
    "paper-2-4", "ring:Z4", "ring:Z6", "ring:Z12", "ring:Z2xZ3", "ring:Z4xZ3",
    "ring:Z8", "ring:Z9", "ring:Z16", "ring:Z2xZ2", "ring:Z2xZ4",
    "ring:Z3xZ3", "ring:Z2xZ6", "ring:Z2xZ8",
)
SMOKE_CORPUS = ("paper-2-4", "ring:Z4")

VALIDATE_DOCS = ("paper-2-4^2", "ring:Z64", "ring:Z8xZ8")
IDEALS_DOCS = ("ring:Z16", "ring:Z2xZ8", "ring:Z4xZ4", "paper-2-4^2",
               "ring:Z18", "ring:Z3xZ6")
# Mutants per base.  A mutant gives two calls, a full check and a
# --first-violation one, and the calls fall into clusters of similar time by
# base and kind.  ring:Z24 gets more mutants so that the 50th and 90th
# percentiles land inside a cluster, not on the edge between two, where a
# few slow calls would move them.
MUTANTS = {"paper-2-4": 24, "ring:Z12": 24, "ring:Z2xZ6": 24, "ring:Z16": 24, "ring:Z24": 36}

SMOKE_DOCS = ("ring:Z4", "paper-2-4")
SMOKE_MUTANTS = {"ring:Z4": 3, "paper-2-4": 3}


@dataclass(frozen=True)
class Structure:
    name: str
    m: int
    n: int
    names: tuple[str, ...]
    zero: int
    one: int | None
    f: dict  # sorted m-tuple of indices -> frozenset of indices
    g: dict  # sorted n-tuple of indices -> index

    @property
    def size(self) -> int:
        return len(self.names)


def ring(k: int) -> Structure:
    f = {ms: frozenset({sum(ms) % k}) for ms in combinations_with_replacement(range(k), 2)}
    g = {ms: ms[0] * ms[1] % k for ms in combinations_with_replacement(range(k), 2)}
    return Structure(f"ring:Z{k}", 2, 2, tuple(str(i) for i in range(k)), 0, 1 % k, f, g)


# The 4-element (2,4)-hyperring of the source paper, typed in from its tables.
_PAPER_F = {
    (0, 0): {0}, (0, 1): {1}, (0, 2): {2}, (0, 3): {3},
    (1, 1): {0, 1}, (1, 2): {3}, (1, 3): {2, 3},
    (2, 2): {0}, (2, 3): {1}, (3, 3): {0, 1},
}


def paper24() -> Structure:
    f = {ms: frozenset(v) for ms, v in _PAPER_F.items()}
    g = {ms: 2 if all(x in (2, 3) for x in ms) else 0
         for ms in combinations_with_replacement(range(4), 4)}
    return Structure("paper-2-4", 2, 4, ("0", "1", "2", "3"), 0, None, f, g)


def product(a: Structure, b: Structure, name: str) -> Structure:
    """Componentwise product; the pair (x, y) gets index x*|b| + y and name 'x|y'."""
    nb = b.size
    names = tuple(f"{x}|{y}" for x in a.names for y in b.names)
    size = len(names)

    def split(ms):
        return (tuple(sorted(i // nb for i in ms)), tuple(sorted(i % nb for i in ms)))

    f = {}
    for ms in combinations_with_replacement(range(size), a.m):
        left, right = split(ms)
        f[ms] = frozenset(x * nb + y for x in a.f[left] for y in b.f[right])
    g = {}
    for ms in combinations_with_replacement(range(size), a.n):
        left, right = split(ms)
        g[ms] = a.g[left] * nb + b.g[right]
    one = None if a.one is None or b.one is None else a.one * nb + b.one
    return Structure(name, a.m, a.n, names, a.zero * nb + b.zero, one, f, g)


def build(name: str) -> Structure:
    """Structures named like hyperlab fixtures, plus 'paper-2-4^2'."""
    if name == "paper-2-4":
        return paper24()
    if name == "paper-2-4^2":
        return product(paper24(), paper24(), name)
    body = name.removeprefix("ring:Z")
    if "xZ" in body:
        j, k = (int(p) for p in body.split("xZ"))
        return product(ring(j), ring(k), name)
    return ring(int(body))


def renamed(a: Structure, rng: random.Random) -> Structure:
    """The same structure with random three-letter element names."""
    codes = rng.sample(range(26 ** 3), a.size)
    names = tuple("".join(chr(97 + c // 26 ** p % 26) for p in range(3)) for c in codes)
    return Structure(a.name, a.m, a.n, names, a.zero, a.one, a.f, a.g)


def to_document(a: Structure, rng: random.Random) -> dict:
    """JSON document with keys in random order and random argument order."""
    names = a.names

    def spell(ms):
        args = [names[i] for i in ms]
        rng.shuffle(args)
        return ",".join(args)

    doc = {"name": a.name, "m": a.m, "n": a.n, "carrier": list(names),
           "zero": names[a.zero]}
    if a.one is not None:
        doc["one"] = names[a.one]
    f_items = sorted(a.f.items())
    g_items = sorted(a.g.items())
    rng.shuffle(f_items)
    rng.shuffle(g_items)
    doc["f"] = {spell(ms): [names[v] for v in sorted(val)] for ms, val in f_items}
    doc["g"] = {spell(ms): names[v] for ms, v in g_items}
    return doc


def mutate(a: Structure, op: str, rng: random.Random, stratum: int, strata: int) -> Structure:
    """Change one ``op`` ("f" or "g") entry; f values stay non-empty, tables stay total.

    The entry comes from the ``stratum``-th of ``strata`` equal slices of
    the sorted keys.  The scans walk keys in sorted order, so spreading the
    changes over the slices keeps the mix of early and late failures the
    same from seed to seed.
    """
    keys = sorted(a.f if op == "f" else a.g)
    lo = len(keys) * stratum // strata
    ms = keys[rng.randrange(lo, max(lo + 1, len(keys) * (stratum + 1) // strata))]
    if op == "f":
        while True:
            flipped = a.f[ms] ^ {rng.randrange(a.size)}
            if flipped:
                break
        f = dict(a.f)
        f[ms] = frozenset(flipped)
        return Structure(a.name, a.m, a.n, a.names, a.zero, a.one, f, a.g)
    g = dict(a.g)
    g[ms] = rng.choice([v for v in range(a.size) if v != a.g[ms]])
    return Structure(a.name, a.m, a.n, a.names, a.zero, a.one, a.f, g)


def mutants(counts: dict[str, int], rng: random.Random) -> list[Structure]:
    """``counts[base]`` mutants of each base, half with f changed and half with g.

    The even split keeps the mix the same for every seed too: an f mutant
    usually fails early in the hypergroup axioms, a g mutant only in the
    later g-side scans.
    """
    out = []
    for base, count in counts.items():
        a = renamed(build(base), rng)
        for op, n in (("f", (count + 1) // 2), ("g", count // 2)):
            out.extend(mutate(a, op, rng, k, n) for k in range(n))
    return out
