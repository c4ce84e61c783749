"""Products, homomorphisms, substructures, and the built-in fixture corpus.

Fixture names understood by :func:`fixture`:

* ``paper-2-4``: the 4-element structure with a 2-ary hyperaddition and a
  4-ary multiplication, no scalar identity; ships with the designated
  hyperideal {0} and multiplicative set {2,3}.
* ``paper-3-3``: the 3-element structure with 3-ary operations exactly as
  printed in its source, identity 1, designated Q={0,2} and S={1,2}.  The
  printed table fails distributivity and Q meets S; the fixture is kept
  verbatim so the checker can report both findings.
* ``paper-3-3-s1``: same structure with the alternative S={1} that restores
  disjointness; marked non-canonical.
* ``ring:Zk`` (2 <= k <= 64): the ring of integers mod k as a structure with
  singleton hyperaddition values.
* ``ring:ZjxZk``: the cartesian product of two such rings (j*k <= 64).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .core import ElementSet, HyperStructure, multisets, sorted_key
from .errors import ArityError, TableError, UnknownFixtureError


def product(a1: HyperStructure, a2: HyperStructure, label: str = "") -> HyperStructure:
    """Componentwise product structure on pairs, row-major element order.

    The axioms hold componentwise, so a product of two Krasner
    (m,n)-hyperrings is one and the result is not re-checked here; run
    :func:`check_krasner` on it when a factor is not known to be valid.
    """
    if (a1.m, a1.n) != (a2.m, a2.n):
        raise ArityError(
            f"factors have arities ({a1.m},{a1.n}) and ({a2.m},{a2.n})")
    size2 = a2.size
    names = tuple(f"{x}|{y}" for x in a1.names for y in a2.names)
    size = len(names)

    f_entries = {}
    for ms in multisets(size, a1.m):
        lefts = tuple(i // size2 for i in ms)
        rights = tuple(i % size2 for i in ms)
        left_val = a1.f_table[sorted_key(lefts)]
        right_val = a2.f_table[sorted_key(rights)]
        f_entries[ms] = tuple(x * size2 + y for x in left_val for y in right_val)

    g_entries = {}
    for ms in multisets(size, a1.n):
        lefts = sorted_key(i // size2 for i in ms)
        rights = sorted_key(i % size2 for i in ms)
        g_entries[ms] = a1.g_table[lefts] * size2 + a2.g_table[rights]

    one = None
    if a1.one is not None and a2.one is not None:
        one = a1.one * size2 + a2.one
    return HyperStructure.from_tables(
        a1.m, a1.n, names, f_entries, g_entries,
        zero=a1.zero * size2 + a2.zero, one=one,
        label=label or f"{a1.label or 'A1'}x{a2.label or 'A2'}")


def product_ideal(a1: HyperStructure, a2: HyperStructure,
                  q1: ElementSet, q2: ElementSet) -> ElementSet:
    """Q1 x Q2 as a subset of the product carrier (also S1 x S2 for
    multiplicative sets)."""
    mask = 0
    for x in q1:
        for y in q2:
            mask |= 1 << (x * a2.size + y)
    return ElementSet(mask, a1.size * a2.size)


@dataclass(frozen=True)
class Homomorphism:
    """Total map between structures of equal arities, checked exhaustively."""

    source: HyperStructure
    target: HyperStructure
    mapping: tuple[int, ...]

    def __post_init__(self) -> None:
        if (self.source.m, self.source.n) != (self.target.m, self.target.n):
            raise ArityError("source and target arities differ")
        if len(self.mapping) != self.source.size:
            raise ValueError("mapping must cover the whole source carrier")
        if any(not 0 <= v < self.target.size for v in self.mapping):
            raise ValueError("mapping hits elements outside the target carrier")

    def violations(self) -> list[str]:
        src, tgt, h = self.source, self.target, self.mapping
        out = []
        for ms in multisets(src.size, src.m):
            image = 0
            for v in src.f_table[ms]:
                image |= 1 << h[v]
            direct = tgt.f_table[sorted_key(h[i] for i in ms)]
            if image != direct.mask:
                out.append(f"f mismatch at {src.render_elements(ms)}")
        for ms in multisets(src.size, src.n):
            if h[src.g_table[ms]] != tgt.g_table[sorted_key(h[i] for i in ms)]:
                out.append(f"g mismatch at {src.render_elements(ms)}")
        if src.one is not None and tgt.one is not None and h[src.one] != tgt.one:
            out.append("identity is not preserved")
        return out

    def is_homomorphism(self) -> bool:
        return not self.violations()

    def is_injective(self) -> bool:
        return len(set(self.mapping)) == len(self.mapping)

    def identity_incomplete(self) -> bool:
        """True when the identity condition could not be checked."""
        return self.source.one is None or self.target.one is None

    def image(self) -> ElementSet:
        return ElementSet.from_indices(self.mapping, self.target.size)

    def map_set(self, subset: ElementSet) -> ElementSet:
        return ElementSet.from_indices(
            (self.mapping[x] for x in subset), self.target.size)


def preimage_ideal(h: Homomorphism, q2: ElementSet) -> ElementSet:
    """Pullback of a target subset along the map."""
    if q2.universe != h.target.size:
        raise ValueError("subset does not live in the target carrier")
    return ElementSet.from_indices(
        (x for x in range(h.source.size) if h.mapping[x] in q2), h.source.size)


def identity_homomorphism(a: HyperStructure) -> Homomorphism:
    return Homomorphism(a, a, tuple(range(a.size)))


def substructure(a: HyperStructure, subset: ElementSet, label: str = "") -> HyperStructure:
    """Restriction of the tables to a closed subset containing zero.

    A scalar identity for the restricted operation is detected automatically
    (the parent identity usually falls outside the subset).
    """
    if a.zero not in subset:
        raise TableError("substructure must contain zero")
    members = subset.indices()
    back = {orig: new for new, orig in enumerate(members)}
    names = tuple(a.names[i] for i in members)

    f_entries = {}
    for ms in multisets(len(members), a.m):
        orig = sorted_key(members[i] for i in ms)
        value = a.f_table[orig]
        if not value.issubset(subset):
            raise TableError(
                f"subset is not closed under f at {a.render_elements(orig)}")
        f_entries[ms] = tuple(back[v] for v in value)
    g_entries = {}
    for ms in multisets(len(members), a.n):
        orig = sorted_key(members[i] for i in ms)
        value = a.g_table[orig]
        if value not in subset:
            raise TableError(
                f"subset is not closed under g at {a.render_elements(orig)}")
        g_entries[ms] = back[value]

    one = None
    for e in range(len(members)):
        pad = (e,) * (a.n - 1)
        if all(g_entries[tuple(sorted((x,) + pad))] == x for x in range(len(members))):
            one = e
            break
    return HyperStructure.from_tables(
        a.m, a.n, names, f_entries, g_entries, zero=back[a.zero], one=one,
        label=label or (f"{a.label}[sub]" if a.label else "sub"))


def inclusion(sub: HyperStructure, parent: HyperStructure) -> Homomorphism:
    """Name-based inclusion of a substructure into its parent."""
    return Homomorphism(sub, parent,
                        tuple(parent.index_of(name) for name in sub.names))


def crt_homomorphism(j: int, k: int) -> Homomorphism:
    """Residue map from the mod-(j*k) ring onto the product of the factors."""
    source = fixture(f"ring:Z{j * k}").structure
    target = fixture(f"ring:Z{j}xZ{k}").structure
    mapping = tuple(target.index_of(f"{x % j}|{x % k}") for x in range(j * k))
    return Homomorphism(source, target, mapping)


@dataclass(frozen=True)
class Fixture:
    """A named structure plus its designated test data."""

    name: str
    structure: HyperStructure
    ideal: ElementSet | None = None
    mult_set: ElementSet | None = None
    canonical: bool = True
    notes: tuple[str, ...] = ()
    factors: tuple[Fixture, Fixture] | None = None


_MADAR_F = {
    (0, 0): (0,), (0, 1): (1,), (0, 2): (2,), (0, 3): (3,),
    (1, 1): (0, 1), (1, 2): (3,), (1, 3): (2, 3),
    (2, 2): (0,), (2, 3): (1,), (3, 3): (0, 1),
}

_EX33_F = {
    (0, 0, 0): (0,), (0, 0, 1): (1,), (0, 0, 2): (2,),
    (0, 1, 1): (1,), (0, 1, 2): (0, 1, 2), (0, 2, 2): (2,),
    (1, 1, 1): (1,), (1, 1, 2): (0, 1, 2), (1, 2, 2): (0, 1, 2),
    (2, 2, 2): (2,),
}


def _build_madar() -> HyperStructure:
    g_entries = {ms: 2 if all(x in (2, 3) for x in ms) else 0
                 for ms in multisets(4, 4)}
    return HyperStructure.from_tables(
        2, 4, ("0", "1", "2", "3"), _MADAR_F, g_entries, zero=0, label="paper-2-4")


def _build_ex33() -> HyperStructure:
    def g3(ms):
        if 0 in ms:
            return 0
        return 1 if ms == (1, 1, 1) else 2
    g_entries = {ms: g3(ms) for ms in multisets(3, 3)}
    return HyperStructure.from_tables(
        3, 3, ("0", "1", "2"), _EX33_F, g_entries, zero=0, one=1, label="paper-3-3")


def _build_ring(k: int) -> HyperStructure:
    names = tuple(str(i) for i in range(k))
    f_entries = {ms: ((ms[0] + ms[1]) % k,) for ms in multisets(k, 2)}
    g_entries = {ms: (ms[0] * ms[1]) % k for ms in multisets(k, 2)}
    return HyperStructure.from_tables(
        2, 2, names, f_entries, g_entries, zero=0, one=1 % k, label=f"ring:Z{k}")


_EX33_NOTES = (
    "designated hyperideal meets the designated multiplicative set",
    "printed tables fail distributivity",
    "designated subset {0,2} is not a hyperideal of the printed tables",
)

# ASCII digits without a leading zero (\d takes every script's digits; one name
# per ring), few enough for int()'s digit limit; fullmatch, since $ allows "\n"
_RING_NAME = re.compile(r"ring:Z([1-9][0-9]{0,2})(?:xZ([1-9][0-9]{0,2}))?")


def fixture(name: str) -> Fixture:
    """Build the named fixture; every call builds it afresh."""
    if name == "paper-2-4":
        a = _build_madar()
        return Fixture(name, a, ideal=a.subset((0,)), mult_set=a.subset((2, 3)))
    if name == "paper-3-3":
        a = _build_ex33()
        return Fixture(name, a, ideal=a.subset((0, 2)), mult_set=a.subset((1, 2)),
                       canonical=False, notes=_EX33_NOTES)
    if name == "paper-3-3-s1":
        a = _build_ex33()
        return Fixture(name, a, ideal=a.subset((0, 2)), mult_set=a.subset((1,)),
                       canonical=False,
                       notes=_EX33_NOTES[1:] + (
                           "alternative multiplicative set restoring disjointness",))
    match = _RING_NAME.fullmatch(name)
    if match is None:
        raise UnknownFixtureError(f"unknown fixture {name!r}")
    j = int(match.group(1))
    if match.group(2) is None:
        if not 2 <= j <= 64:
            raise UnknownFixtureError(f"ring size {j} out of range 2..64")
        return Fixture(name, _build_ring(j))
    k = int(match.group(2))
    if j < 2 or k < 2 or j * k > 64:
        raise UnknownFixtureError(f"product ring {j}x{k} out of range")
    left = fixture(f"ring:Z{j}")
    right = fixture(f"ring:Z{k}")
    built = product(left.structure, right.structure, label=name)
    return Fixture(name, built, factors=(left, right))
