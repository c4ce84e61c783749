"""Prime-type predicates over hyperideals, with certificates.

Universal scans run over sorted multisets (commutative tables make that
lossless).  Counterexamples come first in a graded order: multisets with
more distinct entries first, ties broken lexicographically, so they are
deterministic and favour witnesses whose entries differ.

The S-flavoured predicates ask for one s in S that handles every
qualifying multiset, and they decide it on colon masks (the colon view of
S-primality: Q is S-prime iff some (Q : s) is prime, Hamed & Malek 2020).
Each qualifying multiset is a row with its support mask; for s in S,
P_s = {x : g(s, x, 1^(n-2)) in Q} is the colon (Q : s), and s handles a
row exactly when the row's support meets P_s.

* Element level (S-prime, weakly S-prime, and weakly prime as S = {1}):
  the rows are the g-table entries whose value lies in Q (and is nonzero
  for the weakly variants), from ``Translations.support_rows``.  Primality and
  the integral-domain test (primality of {0}) ask the g-row test behind
  the lattice's prime flags, ``ideals.is_prime_like``; only when it fails
  does ``ideals.first_unfactored`` look for the graded-first witness.
* Ideal level (strongly weakly S-prime, ``strongly_associated``): the rows
  are the lattice-index n-multisets whose ideal product is nonzero and
  inside Q, read from the lattice's ``products`` table, which checks its
  own cost; s handles a factor ideal L_i when s * L_i lies in Q, that is
  when L_i lies in P_s.

``_one_colon_meets_all`` is that quantifier.  It computes P_s only once a
qualifying row exists, so ``IdentityRequired`` stays as lazy as the
definition.  A negative verdict carries the graded-first row that misses
every P_s at once when one exists; otherwise the verdict explains that
each s fails on its own multiset.  Colons are ``ideals.colon_mask``.

``PREDICATES`` is the one registry of named predicates: ``classify``,
``evaluate_predicate``, ``CLASSIFY_KEYS``, the CLI choices and the suite's
verdict memo (``harness._verdict``, behind every statement and ``search``)
all read it; the memo keys the names in ``IGNORES_S`` without S.  The
multiplicative sets S are the zero-free closed sets of g up to a size cap,
listed by the closure walk of ``ideals`` (``multiplicative_subsets``).
"""

from __future__ import annotations

from dataclasses import replace

from .core import ElementSet, HyperStructure, graded_key, graded_multisets, sorted_key
from .errors import (
    CapacityError,
    DisjointnessViolated,
    EmptyArgumentError,
    IdentityRequired,
    NotProper,
)
from .ideals import (
    IdealLattice,
    _closed_sets,
    colon,
    colon_mask,
    colon_zero,
    first_unfactored,
    is_prime_like,
    radical,
)
from .verdict import Verdict


def _require_proper(a: HyperStructure, q: ElementSet) -> None:
    if q.mask == a.full_set().mask:
        raise NotProper("the full carrier is not a proper hyperideal")


def _require_disjoint(a: HyperStructure, q: ElementSet, s: ElementSet) -> None:
    if not s:
        raise EmptyArgumentError("multiplicative set is empty")
    common = q & s
    if common:
        raise DisjointnessViolated(
            f"hyperideal meets the multiplicative set at {common.render(a.names)}")


def is_multiplicative(a: HyperStructure, s: ElementSet) -> Verdict:
    """Closure of S under g on n-tuples drawn from S."""
    if not s:
        raise EmptyArgumentError("multiplicative set is empty")
    members = s.indices()
    for ms in graded_multisets(members, a.n):
        if a.g_table[ms] not in s:
            return Verdict(False, counterexample=ms,
                           note=f"product {a.names[a.g_table[ms]]} escapes the set")
    return Verdict(True)


def is_prime(a: HyperStructure, q: ElementSet) -> Verdict:
    """Elementwise primality: a product in Q forces a factor in Q."""
    _require_proper(a, q)
    return _factor_inside(a, q.mask, "product lies in the hyperideal, no factor does")


def _substituted(a: HyperStructure, ms: tuple[int, ...], value: int) -> int:
    # product of ms with one occurrence of `value` replaced by the identity
    rest = list(ms)
    rest.remove(value)
    if a.n == 2 and a.one is None:
        return rest[0]
    if a.one is None:
        raise IdentityRequired("primary consequent needs a scalar identity when n > 2")
    return a.g_table[sorted_key(rest + [a.one])]


def is_primary(a: HyperStructure, q: ElementSet, lattice: IdealLattice) -> Verdict:
    """Products in Q force each outside factor into Q's radical after
    replacing that factor by the identity."""
    _require_proper(a, q)
    rad = radical(a, q, lattice)
    for ms in graded_multisets(range(a.size), a.n):
        if a.g_table[ms] not in q:
            continue
        for x in sorted(set(ms)):
            if x in q:
                continue
            if _substituted(a, ms, x) not in rad:
                return Verdict(
                    False, counterexample=ms,
                    note=f"identity-substituted product for {a.names[x]} "
                         "misses the radical")
    return Verdict(True)


def _one_colon_meets_all(rows, candidates, colon_of, what: str = "tuple") -> Verdict:
    """Does one s in `candidates` handle every row?

    ``rows`` are the (support mask, multiset) pairs of the qualifying
    multisets; ``colon_of(s)`` is the mask of what s sends into Q, and s
    handles a row when its support meets that mask.  ``colon_of`` is called
    only when a row exists, in candidate order, and the first s that
    handles every row is the witness.
    """
    if not rows:
        return Verdict(True, note="vacuously true")
    supports = {support for support, _ in rows}
    union = 0
    for c in candidates:
        handled = colon_of(c)
        if all(support & handled for support in supports):
            return Verdict(True, witness_s=c)
        union |= handled
    missed = [ms for support, ms in rows if not support & union]
    if missed:
        return Verdict(False, counterexample=min(missed, key=graded_key))
    return Verdict(False, note=f"every s fails, each on its own {what}")


def _factor_inside(a: HyperStructure, mask: int, note: str) -> Verdict:
    # primality of a mask on the g rows; the graded-first unfactored
    # multiset is looked for only once the rows have found one
    if is_prime_like(a, mask):
        return Verdict(True)
    return Verdict(False, counterexample=first_unfactored(a, mask), note=note)


def _element_scan(a: HyperStructure, q: ElementSet, s: ElementSet, rows) -> Verdict:
    _require_disjoint(a, q, s)
    return _one_colon_meets_all(rows, s.indices(),
                                lambda c: colon_mask(a, q, c, "scaled product"))


def is_s_prime(a: HyperStructure, q: ElementSet, s: ElementSet) -> Verdict:
    """Some s in S scales a factor of every Q-product back into Q."""
    return _element_scan(a, q, s, a.translations.support_rows(q.mask))


def is_weakly_s_prime(a: HyperStructure, q: ElementSet, s: ElementSet) -> Verdict:
    """As S-prime, but only nonzero Q-products qualify."""
    return _element_scan(a, q, s, a.translations.support_rows(q.mask & ~(1 << a.zero)))


def is_weakly_prime(a: HyperStructure, q: ElementSet) -> Verdict:
    """Weakly S-prime with the identity as the only scaling element."""
    _require_proper(a, q)

    def colon_of(one):
        if one is not None:
            return colon_mask(a, q, one, "scaled product")
        if a.n > 2:
            raise IdentityRequired("weakly prime needs a scalar identity when n > 2")
        return q.mask

    rows = a.translations.support_rows(q.mask & ~(1 << a.zero))
    return _one_colon_meets_all(rows, (a.one,), colon_of)


def _ideal_scan(a: HyperStructure, q: ElementSet, candidates,
                lattice: IdealLattice, what: str = "tuple") -> Verdict:
    """The quantifier over lattice-index multisets whose ideal product is
    nonzero and inside Q; s handles a factor L_i when L_i lies in P_s."""
    zero_mask, outside = 1 << a.zero, ~q.mask
    rows = [(support, ms) for ms, support, product in lattice.products
            if product != zero_mask and not product & outside]

    def colon_of(c):
        inside = ~colon_mask(a, q, c, "scaled product")
        return sum(1 << i for i, ideal in enumerate(lattice.sets)
                   if not ideal.mask & inside)

    return _one_colon_meets_all(rows, candidates, colon_of, what)


def strongly_associated(a: HyperStructure, q: ElementSet, s_elt: int,
                        lattice: IdealLattice) -> bool:
    """Inner check of the strongly-weakly definition for one fixed s."""
    return bool(_ideal_scan(a, q, (s_elt,), lattice).holds)


def is_strongly_weakly_s_prime(a: HyperStructure, q: ElementSet, s: ElementSet,
                               lattice: IdealLattice) -> Verdict:
    """Ideal-level variant: nonzero ideal products inside Q force some
    scaled factor ideal inside Q."""
    _require_disjoint(a, q, s)
    verdict = _ideal_scan(a, q, s.indices(), lattice, what="ideal tuple")
    if verdict.counterexample is None:
        return verdict
    return replace(verdict, note="counterexample holds hyperideal indices",
                   ideals=tuple(lattice[i] for i in verdict.counterexample))


def is_strongly_weakly_s_prime_colon(a: HyperStructure, q: ElementSet,
                                     s: ElementSet) -> Verdict:
    """Colon-ideal characterization of the strongly-weakly predicate.

    Independent of the definitional route: some s in S must satisfy, for
    every a outside (Q : s), that (Q : a) sits inside (Q : s) or equals the
    annihilator of a.
    """
    _require_disjoint(a, q, s)
    colons = [colon(a, q, x).mask for x in range(a.size)]
    first_failure = None
    for cand in s:
        inside = colons[cand]
        failing = next((x for x in range(a.size)
                        if not inside >> x & 1 and colons[x] & ~inside
                        and colons[x] != colon_zero(a, x).mask), None)
        if failing is None:
            return Verdict(True, witness_s=cand)
        if first_failure is None:
            first_failure = (cand, failing)
    cand, x = first_failure
    return Verdict(False, counterexample=(x,),
                   note=f"for s={a.names[cand]} the element {a.names[x]} "
                        "satisfies neither colon alternative")


def is_hyperintegral_domain(a: HyperStructure) -> Verdict:
    """No n-ary zero divisors: a zero product forces a zero factor, that
    is {0} is prime."""
    return _factor_inside(a, 1 << a.zero, "nonzero zero-divisor tuple")


# Every named predicate as a function of (A, Q, S, lattice).  The
# lambdas look the predicates up by module name at call time, so a wrapper
# bound over a name (for tracing, say) also sees the calls made from here.
PREDICATES = {
    "prime": lambda a, q, s, lattice: is_prime(a, q),
    "primary": lambda a, q, s, lattice: is_primary(a, q, lattice),
    "weakly-prime": lambda a, q, s, lattice: is_weakly_prime(a, q),
    "s-prime": lambda a, q, s, lattice: is_s_prime(a, q, s),
    "weakly-s-prime": lambda a, q, s, lattice: is_weakly_s_prime(a, q, s),
    "strongly-weakly-s-prime": lambda a, q, s, lattice:
        is_strongly_weakly_s_prime(a, q, s, lattice),
    "strongly-weakly-s-prime-colon": lambda a, q, s, lattice:
        is_strongly_weakly_s_prime_colon(a, q, s),
}

# The registry names whose predicate does not read S.
IGNORES_S = frozenset({"prime", "primary", "weakly-prime"})

CLASSIFY_KEYS = tuple(PREDICATES)


def classify(a: HyperStructure, q: ElementSet, s: ElementSet,
             lattice: IdealLattice) -> dict[str, Verdict]:
    """All predicate verdicts at once; unevaluable ones fold into notes."""
    _require_disjoint(a, q, s)
    record = {}
    for name, predicate in PREDICATES.items():
        try:
            record[name] = predicate(a, q, s, lattice)
        except IdentityRequired as exc:
            record[name] = Verdict(None, note=f"identity required: {exc}")
        except CapacityError as exc:
            record[name] = Verdict(None, note=f"capacity: {exc}")
    return record


IMPLICATION_CHAIN = (
    ("prime", "s-prime"),
    ("s-prime", "weakly-s-prime"),
    ("strongly-weakly-s-prime", "weakly-s-prime"),
)


def chain_violations(record: dict[str, Verdict]) -> list[str]:
    """Implication-chain failures inside one classification record."""
    out = []
    for stronger, weaker in IMPLICATION_CHAIN:
        lhs, rhs = record[stronger].holds, record[weaker].holds
        if lhs is True and rhs is False:
            out.append(f"{stronger} holds but {weaker} fails")
    return out


def evaluate_predicate(name: str, a: HyperStructure, q: ElementSet, s: ElementSet,
                       lattice: IdealLattice) -> Verdict:
    """Single-predicate dispatch using the classify record keys."""
    try:
        predicate = PREDICATES[name]
    except KeyError:
        raise ValueError(f"unknown predicate {name!r}") from None
    return predicate(a, q, s, lattice)


def multiplicative_subsets(a: HyperStructure, max_size: int) -> list[ElementSet]:
    """All zero-free g-closed subsets up to the size cap, by (size, mask):
    the nonempty sets of the closure walk on g's rows, excluding zero."""
    row_of, rows = a.translations.g
    table = (row_of, [tuple(1 << value for value in row) for row in rows])
    found = _closed_sets(a.n, table, [0] * a.size, 0, 1 << a.zero, max_size)
    return [ElementSet(mask, a.size) for mask in found if mask]
