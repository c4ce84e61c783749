"""Hyperideal recognition, enumeration, and ideal arithmetic.

A hyperideal is a subset that is a subhypergroup under f and absorbs g in
every argument position.  Apart from reachability inside the subset, these
conditions are Horn rules (zero is in; f-images of members, the unique
inverse of a member and every g-product with a member are in), so the sets
obeying them form a closure system and every hyperideal is one of its closed
sets.  :func:`_closed_sets` walks a closure system with Kuznetsov's
Close-by-One search, each step joining a closed set with one principal
closure.  The lattice walks f's rows from {0}, excluding elements without a
unique inverse, and keeps the closed sets that pass :func:`is_hyperideal`;
``predicates.multiplicative_subsets`` walks g's rows from the empty set,
excluding zero, up to its size cap.  Each ideal carries a primality flag so
the radical can be computed by intersection.

Absorption, reachability, primality, the lattice's ideal products and
:func:`scale_row` (the one lookup of g(c, x, 1^(n-2)), read by colons,
scaled sets and principal hyperideals) read the structure's translation
rows (``HyperStructure.translations``).  The lattice flags, ``is_prime`` and
the integral-domain test ask :func:`is_prime_like`; the last two take their
witness from :func:`first_unfactored`.  The ideal products check the
ideal-scan budget that the lattice carries before they are built.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass, field
from functools import cached_property, reduce
from itertools import combinations, combinations_with_replacement
from operator import or_

from .core import ElementSet, HyperStructure, _translations, graded_key, sorted_key
from .errors import CapacityError, IdentityRequired
from .verdict import Verdict

ENUMERATION_CAP = 1 << 20
DEFAULT_IDEAL_SCAN_BUDGET = 10 ** 7


def is_hyperideal(a: HyperStructure, q: ElementSet) -> Verdict:
    """Check the subhypergroup and absorption conditions; witness on failure."""
    if a.zero not in q:
        return Verdict(False, note="does not contain zero")
    members = q.indices()
    for args in combinations_with_replacement(members, a.m):
        value = a.f_table[args]
        if not value.issubset(q):
            bad = next(x for x in value if x not in q)
            return Verdict(False, counterexample=args,
                           note=f"not closed under f: {a.names[bad]} escapes")
    inv = a.inverse_map
    for x in members:
        if x not in inv:
            return Verdict(False, counterexample=(x,),
                           note=f"{a.names[x]} has no unique inverse")
        if inv[x] not in q:
            return Verdict(False, counterexample=(x,),
                           note=f"inverse {a.names[inv[x]]} of {a.names[x]} missing")
    row_of, rows = a.translations.f
    for ctx in combinations_with_replacement(members, a.m - 1):
        missing = q.mask & ~reduce(or_, map(rows[row_of[ctx]].__getitem__, members))
        if missing:
            missing = (missing & -missing).bit_length() - 1
            return Verdict(False, counterexample=ctx,
                           note=f"{a.names[missing]} unreachable inside the subset")
    # a g row maps Q into Q or not, whichever context it is the row of
    row_of, rows = a.translations.g
    escaping = {i for i, row in enumerate(rows) if any(not q.mask >> row[x] & 1 for x in members)}
    if escaping:
        ctx, i = next((ctx, i) for ctx, i in row_of.items() if i in escaping)
        x = next(x for x in members if not q.mask >> rows[i][x] & 1)
        return Verdict(False, counterexample=ctx + (x,),
                       note=f"absorption fails: product {a.names[rows[i][x]]} escapes")
    return Verdict(True)


@dataclass(frozen=True)
class IdealLattice:
    """All hyperideals of one structure, ascending by (cardinality, mask),
    and the scan budget of ``products`` (None: ``DEFAULT_IDEAL_SCAN_BUDGET``)."""

    structure: HyperStructure
    sets: tuple[ElementSet, ...]
    prime_flags: tuple[bool, ...]
    budget: int | None = field(default=None, compare=False)

    def __len__(self) -> int:
        return len(self.sets)

    def __iter__(self):
        return iter(self.sets)

    def __getitem__(self, i: int) -> ElementSet:
        return self.sets[i]

    def index_of(self, q: ElementSet) -> int:
        for i, s in enumerate(self.sets):
            if s.mask == q.mask:
                return i
        raise ValueError("subset is not an enumerated hyperideal")

    def primes(self) -> tuple[ElementSet, ...]:
        return tuple(s for s, p in zip(self.sets, self.prime_flags) if p)

    def proper(self) -> tuple[ElementSet, ...]:
        full = self.structure.full_set().mask
        return tuple(s for s in self.sets if s.mask != full)

    @cached_property
    def products(self) -> tuple[tuple[tuple[int, ...], int, int], ...]:
        """(multiset, support mask, product mask) for every n-multiset of
        lattice indices: the ideal product g(L_i1, ..., L_in) as a carrier
        mask and the set of indices it uses as a lattice-index mask.

        The product is the union of the images of L_in under the g rows of
        the contexts drawn from L_i1, ..., L_i(n-1).  Each prefix of indices
        carries the states its contexts are in, where a k-context's state is
        interned from those of its extensions by one element (at k = n - 1,
        its row id), so a prefix's extensions share its work.

        Built on first use and kept for the lattice's lifetime.  Raises
        CapacityError before building anything when len^n exceeds the
        lattice's budget.
        """
        a = self.structure
        limit = DEFAULT_IDEAL_SCAN_BUDGET if self.budget is None else self.budget
        if len(self) ** a.n > limit:
            raise CapacityError(
                f"{len(self)}^{a.n} ideal tuples exceed the scan budget {limit}")
        table, steps = a.translations.g[0], []
        for k in range(a.n - 1, 0, -1):
            table, step = _translations(a.size, k, table)
            steps.insert(0, step)
        members = [q.indices() for q in self.sets]
        image = [[sum(1 << v for v in set(map(row.__getitem__, ideal))) for ideal in members]
                 for row in a.translations.g[1]]
        level = [((), {0})]
        for step in steps:
            level = [(prefix + (j,), {step[s][y] for s in states for y in members[j]})
                     for prefix, states in level
                     for j in range(prefix[-1] if prefix else 0, len(members))]
        return tuple((prefix + (j,), reduce(or_, (1 << i for i in prefix), 1 << j),
                      reduce(or_, (image[r][j] for r in states)))
                     for prefix, states in level for j in range(prefix[-1], len(members)))


def _forced_masks(a: HyperStructure) -> list[int]:
    """Per element x, the mask every closed set holding x must hold as well.

    That is zero, the unique inverse of x where one exists, and g(ctx, x)
    for every ctx in A^(n-1): entry x of every distinct translation row of g.
    """
    inv = a.inverse_map
    forced = [1 << a.zero | (1 << inv[x] if x in inv else 0) for x in range(a.size)]
    for row in a.translations.g[1]:
        for x, value in enumerate(row):
            forced[x] |= 1 << value
    return forced


def _closed_sets(arity: int, table: tuple[dict, list], forced: list[int], seed: int,
                 excluded: int, cap: int) -> list[int]:
    """Every closed set holding ``seed``, free of ``excluded``, of at most
    ``cap`` elements, ascending by (size, mask), for the rule its caller
    gives: a closed set holds ``forced[x]`` for each member x and the value
    of every ``arity``-multiset of members, read from the mask-valued
    translation rows ``table``.

    Close-by-One: a closed set C found by adding x is extended only by
    elements above x, and the join D = cl(C + cl(seed + y)) is kept only
    when it adds nothing below y, so each closed set is reached once, from
    the closure of its elements below its last generator.  That parent lies
    inside D and closure is monotone, so dropping every set that holds an
    excluded element or exceeds the cap loses no other set, and a join whose
    union with C already exceeds the cap need not be computed.  Raises
    CapacityError once more than ``ENUMERATION_CAP`` closures were computed.
    """
    row_of, rows = table
    size = len(forced)
    full = (1 << size) - 1
    closures = 0

    def close(closed: int, seed: int) -> int:
        # the least closed set holding the closed set `closed` and `seed`;
        # taking up y reads only the multisets of taken-up elements holding
        # y, as every other one was read when its last element was taken up
        nonlocal closures
        closures += 1
        if closures > ENUMERATION_CAP:
            raise CapacityError(
                f"the join search passed the enumeration cap of {ENUMERATION_CAP} closures")
        taken = list(ElementSet(closed, size))
        done, mask = closed, closed | seed
        while (pending := mask & ~done) and mask != full:
            low = pending & -pending
            y = low.bit_length() - 1
            done |= low
            insort(taken, y)
            mask |= forced[y]
            for ctx in combinations_with_replacement(taken, arity - 1):
                mask |= rows[row_of[ctx]][y]
        return mask

    bottom = close(0, seed)
    if bottom & excluded:
        return []
    principal = [close(bottom, 1 << x) for x in range(size)]
    found = []
    stack = [(bottom, -1)]
    while stack:
        closed, last = stack.pop()
        found.append(closed)
        for x in range(last + 1, size):
            dropped = excluded | (1 << x) - 1 & ~closed
            if (closed >> x & 1 or principal[x] & dropped
                    or (closed | principal[x]).bit_count() > cap):
                continue
            joined = close(closed, principal[x])
            if not joined & dropped and joined.bit_count() <= cap:
                stack.append((joined, x))
    return sorted(found, key=lambda mask: (mask.bit_count(), mask))


def enumerate_hyperideals(a: HyperStructure) -> IdealLattice:
    """Every hyperideal, ascending by (cardinality, mask), with prime flags.

    Exact on any table, valid or not: every hyperideal is a closed set of
    the Horn rules above, and each closed set the search finds is kept only
    if :func:`is_hyperideal` accepts it.  The cost follows the number of
    closed sets, not the carrier size; raises CapacityError once the search
    has computed more than ``ENUMERATION_CAP`` closures.
    """
    excluded = sum(1 << x for x in range(a.size) if x not in a.inverse_map)
    closed = _closed_sets(a.m, a.translations.f, _forced_masks(a), 1 << a.zero,
                          excluded, a.size)
    found = [q for q in (ElementSet(mask, a.size) for mask in closed)
             if is_hyperideal(a, q).holds]
    full = a.full_set().mask
    flags = tuple(q.mask != full and is_prime_like(a, q.mask) for q in found)
    return IdealLattice(a, tuple(found), flags)


def is_prime_like(a: HyperStructure, mask: int) -> bool:
    """True when no multiset outside the mask has its g-value inside: no
    (n-1)-context drawn from outside has a g row sending an element outside
    into the mask.  Each distinct row is tested once, on the whole outside."""
    outside = [x for x in range(a.size) if not mask >> x & 1]
    inside = set(ElementSet(mask, a.size))
    row_of, rows = a.translations.g
    tested = set()
    for i in map(row_of.__getitem__, combinations_with_replacement(outside, a.n - 1)):
        if i not in tested:
            tested.add(i)
            if not inside.isdisjoint(map(rows[i].__getitem__, outside)):
                return False
    return True


def first_unfactored(a: HyperStructure, mask: int) -> tuple[int, ...] | None:
    """The graded-first multiset (``core.graded_key``) outside the mask whose
    g-value lies in it, or None: the lexicographically first one with all
    entries distinct, else the first of the lowest grade; grade 1 ends it."""
    outside = [x for x in range(a.size) if not mask >> x & 1]
    g, n = a.g_table, a.n
    found = next((ms for ms in combinations(outside, n) if mask >> g[ms] & 1), None)
    if found is None:
        for ms in combinations_with_replacement(outside, n):
            if mask >> g[ms] & 1 and (found is None or graded_key(ms) < graded_key(found)):
                found = ms
                if len(set(ms)) == n - 1:
                    break
    return found


def scale_row(a: HyperStructure, c: int, what: str) -> tuple[int, ...]:
    """g(c, x, one^(n-2)) for each x, in index order: the translation row of
    (c, one^(n-2)); ``what`` names the caller in the IdentityRequired raised
    when n > 2 and there is no identity."""
    if a.n > 2 and a.one is None:
        raise IdentityRequired(f"{what} needs a scalar identity when n > 2")
    row_of, rows = a.translations.g
    return rows[row_of[sorted_key((c,) + (a.one,) * (a.n - 2))]]


def colon_mask(a: HyperStructure, q: ElementSet, c: int, what: str) -> int:
    """(Q : c) as a mask, from c's scale row; ``what`` as in :func:`scale_row`."""
    return sum(1 << x for x, value in enumerate(scale_row(a, c, what))
               if q.mask >> value & 1)


def generated_hyperideal(a: HyperStructure, x: int) -> ElementSet:
    """Principal hyperideal: all scalar multiples of x."""
    return ElementSet.from_indices(scale_row(a, x, "generated hyperideal"), a.size)


def colon(a: HyperStructure, q: ElementSet, x: int) -> ElementSet:
    """(Q : x) = elements whose scaled product with x lands in Q."""
    return ElementSet(colon_mask(a, q, x, "colon ideal"), a.size)


def colon_zero(a: HyperStructure, x: int) -> ElementSet:
    """Annihilator of x: the colon ideal of the zero ideal."""
    return colon(a, a.zero_set(), x)


def scaled(a: HyperStructure, s: int, x: int) -> int:
    """g(s, x, one^(n-2)): the s-multiple of a single element."""
    return scale_row(a, s, "scaled product")[x]


def scaled_set(a: HyperStructure, s: int, q: ElementSet) -> ElementSet:
    """Image of a subset under multiplication by s."""
    row = scale_row(a, s, "scaled product")
    return ElementSet.from_indices((row[x] for x in q), a.size)


def set_product(a: HyperStructure, sets) -> ElementSet:
    """Raw setwise g-image of n subsets (not its ideal closure)."""
    return a.eval_g_on_sets(list(sets))


def radical(a: HyperStructure, q: ElementSet, lattice: IdealLattice) -> ElementSet:
    """Intersection of the prime hyperideals containing Q; full set if none."""
    mask = a.full_set().mask
    for s, flag in zip(lattice.sets, lattice.prime_flags):
        if flag and q.issubset(s):
            mask &= s.mask
    return ElementSet(mask, a.size)


def radical_membership(a: HyperStructure, q: ElementSet, x: int) -> bool:
    """True when some admissible g-power of x lies in Q.

    Powers are x itself, the identity-padded powers g(x^(u), one^(n-u)) for
    u up to n, and the left iterates of the pure power; the finite carrier
    forces the iterates to cycle, which bounds the search.
    """
    if x in q:
        return True
    if a.n > 2 and a.one is None:
        raise IdentityRequired("radical membership needs a scalar identity when n > 2")
    for u in range(2, a.n):
        padded = tuple(sorted((x,) * u + (a.one,) * (a.n - u)))
        if a.g_table[padded] in q:
            return True
    power = a.g_table[(x,) * a.n]
    seen = set()
    while power not in seen:
        if power in q:
            return True
        seen.add(power)
        power = a.g_table[tuple(sorted((power,) + (x,) * (a.n - 1)))]
    return False
