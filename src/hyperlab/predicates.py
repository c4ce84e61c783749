"""Prime-type predicates over hyperideals, with certificates.

All universal scans run over sorted multisets (commutative tables make that
lossless) in a graded order: multisets with more distinct entries come
first, ties broken lexicographically.  Counterexamples are therefore
deterministic and favour witnesses whose entries differ.

The S-flavoured predicates share one quantifier shape: there must exist a
single s in S that handles every qualifying tuple.  ``_some_s_handles_all``
is that quantifier for the element-level and the ideal-level scans, and
for weakly prime as the case S = {1}.  A negative verdict carries the
first tuple that defeats every s at once when such a tuple exists;
otherwise the verdict explains that each s fails on its own tuple.

``PREDICATES`` is the one registry of named predicates: ``classify``,
``evaluate_predicate``, ``CLASSIFY_KEYS`` and the CLI choices all read it.
"""

from __future__ import annotations

from dataclasses import replace
from itertools import combinations

from .core import ElementSet, HyperStructure, graded_multisets, sorted_key
from .errors import (
    CapacityError,
    DisjointnessViolated,
    EmptyArgumentError,
    IdentityRequired,
    NotProper,
)
from .ideals import IdealLattice, colon, colon_zero, radical, scaled, scaled_set
from .verdict import Verdict

DEFAULT_IDEAL_SCAN_BUDGET = 10 ** 7


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
    for ms in graded_multisets(range(a.size), a.n):
        if a.g_table[ms] in q and not any(x in q for x in ms):
            return Verdict(False, counterexample=ms,
                           note="product lies in the hyperideal, no factor does")
    return Verdict(True)


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


def _some_s_handles_all(tuples, candidates, handles, what: str = "tuple") -> Verdict:
    """Does one s in `candidates` handle every tuple?  ``handles(s, t)``
    decides a single pair.

    `tuples` is consumed lazily and the scan stops once a tuple has
    defeated every s at once and no s is left standing.
    """
    alive = set(candidates)
    counterexample = None
    vacuous = True
    for t in tuples:
        vacuous = False
        defeated = [c for c in candidates if not handles(c, t)]
        alive.difference_update(defeated)
        if counterexample is None and len(defeated) == len(candidates):
            counterexample = t
        if counterexample is not None and not alive:
            break
    if vacuous:
        return Verdict(True, note="vacuously true")
    if alive:
        return Verdict(True, witness_s=min(alive))
    if counterexample is not None:
        return Verdict(False, counterexample=counterexample)
    return Verdict(False, note=f"every s fails, each on its own {what}")


def _element_scan(a: HyperStructure, q: ElementSet, s: ElementSet,
                  weakly: bool) -> Verdict:
    _require_disjoint(a, q, s)
    qualifying = (ms for ms in graded_multisets(range(a.size), a.n)
                  if a.g_table[ms] in q
                  and not (weakly and a.g_table[ms] == a.zero))
    return _some_s_handles_all(
        qualifying, s.indices(),
        lambda c, ms: any(scaled(a, c, x) in q for x in set(ms)))


def is_s_prime(a: HyperStructure, q: ElementSet, s: ElementSet) -> Verdict:
    """Some s in S scales a factor of every Q-product back into Q."""
    return _element_scan(a, q, s, weakly=False)


def is_weakly_s_prime(a: HyperStructure, q: ElementSet, s: ElementSet) -> Verdict:
    """As S-prime, but only nonzero Q-products qualify."""
    return _element_scan(a, q, s, weakly=True)


def is_weakly_prime(a: HyperStructure, q: ElementSet) -> Verdict:
    """Weakly S-prime with the identity as the only scaling element."""
    _require_proper(a, q)
    qualifying = (ms for ms in graded_multisets(range(a.size), a.n)
                  if a.g_table[ms] in q and a.g_table[ms] != a.zero)

    def handles(one, ms):
        if one is None and a.n > 2:
            raise IdentityRequired("weakly prime needs a scalar identity when n > 2")
        return any((x if one is None else scaled(a, one, x)) in q for x in set(ms))

    return _some_s_handles_all(qualifying, (a.one,), handles)


def _ideal_tuples_into(a: HyperStructure, q: ElementSet, lattice: IdealLattice):
    """Lattice-index n-multisets whose ideal product is nonzero and inside Q."""
    zero_mask = 1 << a.zero
    for ms in graded_multisets(range(len(lattice)), a.n):
        image = a.eval_g_on_sets([lattice[i] for i in ms])
        if image.mask != zero_mask and image.issubset(q):
            yield ms


def _scaled_factor_inside(a: HyperStructure, q: ElementSet, lattice: IdealLattice):
    """handles(s, ms): some factor ideal of ms, scaled by s, lies inside Q."""
    return lambda c, ms: any(scaled_set(a, c, lattice[i]).issubset(q)
                             for i in set(ms))


def strongly_associated(a: HyperStructure, q: ElementSet, s_elt: int,
                        lattice: IdealLattice) -> bool:
    """Inner check of the strongly-weakly definition for one fixed s."""
    return bool(_some_s_handles_all(_ideal_tuples_into(a, q, lattice), (s_elt,),
                                    _scaled_factor_inside(a, q, lattice)).holds)


def is_strongly_weakly_s_prime(a: HyperStructure, q: ElementSet, s: ElementSet,
                               lattice: IdealLattice,
                               budget: int | None = None) -> Verdict:
    """Ideal-level variant: nonzero ideal products inside Q force some
    scaled factor ideal inside Q."""
    _require_disjoint(a, q, s)
    limit = DEFAULT_IDEAL_SCAN_BUDGET if budget is None else budget
    if len(lattice) ** a.n > limit:
        raise CapacityError(
            f"{len(lattice)}^{a.n} ideal tuples exceed the scan budget {limit}")
    verdict = _some_s_handles_all(_ideal_tuples_into(a, q, lattice), s.indices(),
                                  _scaled_factor_inside(a, q, lattice),
                                  what="ideal tuple")
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
    first_failure = None
    for cand in s:
        q_colon_s = colon(a, q, cand)
        ok = True
        for x in range(a.size):
            if x in q_colon_s:
                continue
            q_colon_x = colon(a, q, x)
            if q_colon_x.issubset(q_colon_s):
                continue
            if q_colon_x.mask == colon_zero(a, x).mask:
                continue
            ok = False
            if first_failure is None:
                first_failure = (cand, x)
            break
        if ok:
            return Verdict(True, witness_s=cand)
    cand, x = first_failure
    return Verdict(False, counterexample=(x,),
                   note=f"for s={a.names[cand]} the element {a.names[x]} "
                        "satisfies neither colon alternative")


def is_hyperintegral_domain(a: HyperStructure) -> Verdict:
    """No n-ary zero divisors: a zero product forces a zero factor."""
    for ms in graded_multisets(range(a.size), a.n):
        if a.g_table[ms] == a.zero and a.zero not in ms:
            return Verdict(False, counterexample=ms, note="nonzero zero-divisor tuple")
    return Verdict(True)


# Every named predicate as a function of (A, Q, S, lattice, budget).  The
# lambdas look the predicates up by module name at call time, so a wrapper
# bound over a name (for tracing, say) also sees the calls made from here.
PREDICATES = {
    "prime": lambda a, q, s, lattice, budget: is_prime(a, q),
    "primary": lambda a, q, s, lattice, budget: is_primary(a, q, lattice),
    "weakly-prime": lambda a, q, s, lattice, budget: is_weakly_prime(a, q),
    "s-prime": lambda a, q, s, lattice, budget: is_s_prime(a, q, s),
    "weakly-s-prime": lambda a, q, s, lattice, budget: is_weakly_s_prime(a, q, s),
    "strongly-weakly-s-prime": lambda a, q, s, lattice, budget:
        is_strongly_weakly_s_prime(a, q, s, lattice, budget),
    "strongly-weakly-s-prime-colon": lambda a, q, s, lattice, budget:
        is_strongly_weakly_s_prime_colon(a, q, s),
}

CLASSIFY_KEYS = tuple(PREDICATES)


def classify(a: HyperStructure, q: ElementSet, s: ElementSet,
             lattice: IdealLattice, budget: int | None = None) -> dict[str, Verdict]:
    """All predicate verdicts at once; unevaluable ones fold into notes."""
    _require_disjoint(a, q, s)
    record = {}
    for name, predicate in PREDICATES.items():
        try:
            record[name] = predicate(a, q, s, lattice, budget)
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
                       lattice: IdealLattice, budget: int | None = None) -> Verdict:
    """Single-predicate dispatch using the classify record keys."""
    try:
        predicate = PREDICATES[name]
    except KeyError:
        raise ValueError(f"unknown predicate {name!r}") from None
    return predicate(a, q, s, lattice, budget)


def multiplicative_subsets(a: HyperStructure, max_size: int,
                           include_zero: bool = False) -> list[ElementSet]:
    """All g-closed subsets up to the size cap, zero-free by default."""
    pool = [x for x in range(a.size) if include_zero or x != a.zero]
    out = []
    for k in range(1, max_size + 1):
        for combo in combinations(pool, k):
            candidate = ElementSet.from_indices(combo, a.size)
            if is_multiplicative(a, candidate).holds:
                out.append(candidate)
    out.sort(key=lambda s: (len(s), s.mask))
    return out
