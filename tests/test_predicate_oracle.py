"""The colon-mask predicates against the definitional route they replaced.

The oracle below is the earlier "some s in S handles every qualifying
tuple" scan: it walks the qualifying multisets lazily in graded order and
asks ``handles(s, t)`` once per (s, tuple), re-multiplying every ideal
tuple on every call.  Each predicate must return an equal ``Verdict``, or
raise an exception of the same type, on every (Q, S) pair of every small
fixture and of seeded g-mutants.
"""

import random

import pytest

import hyperlab as H
from hyperlab.core import graded_multisets
from hyperlab.predicates import (
    DEFAULT_IDEAL_SCAN_BUDGET,
    _require_disjoint,
    _require_proper,
)
from conftest import SMALL_FIXTURES


def _some_s_handles_all(tuples, candidates, handles, what="tuple"):
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
        return H.Verdict(True, note="vacuously true")
    if alive:
        return H.Verdict(True, witness_s=min(alive))
    if counterexample is not None:
        return H.Verdict(False, counterexample=counterexample)
    return H.Verdict(False, note=f"every s fails, each on its own {what}")


def _element_scan(a, q, s, weakly):
    _require_disjoint(a, q, s)
    qualifying = (ms for ms in graded_multisets(range(a.size), a.n)
                  if a.g_table[ms] in q
                  and not (weakly and a.g_table[ms] == a.zero))
    return _some_s_handles_all(
        qualifying, s.indices(),
        lambda c, ms: any(H.scaled(a, c, x) in q for x in set(ms)))


def oracle_is_s_prime(a, q, s):
    return _element_scan(a, q, s, weakly=False)


def oracle_is_weakly_s_prime(a, q, s):
    return _element_scan(a, q, s, weakly=True)


def oracle_is_weakly_prime(a, q):
    _require_proper(a, q)
    qualifying = (ms for ms in graded_multisets(range(a.size), a.n)
                  if a.g_table[ms] in q and a.g_table[ms] != a.zero)

    def handles(one, ms):
        if one is None and a.n > 2:
            raise H.IdentityRequired("weakly prime needs a scalar identity when n > 2")
        return any((x if one is None else H.scaled(a, one, x)) in q for x in set(ms))

    return _some_s_handles_all(qualifying, (a.one,), handles)


def _ideal_tuples_into(a, q, lattice):
    zero_mask = 1 << a.zero
    for ms in graded_multisets(range(len(lattice)), a.n):
        image = a.eval_g_on_sets([lattice[i] for i in ms])
        if image.mask != zero_mask and image.issubset(q):
            yield ms


def _scaled_factor_inside(a, q, lattice):
    return lambda c, ms: any(H.scaled_set(a, c, lattice[i]).issubset(q)
                             for i in set(ms))


def oracle_strongly_associated(a, q, s_elt, lattice):
    return bool(_some_s_handles_all(_ideal_tuples_into(a, q, lattice), (s_elt,),
                                    _scaled_factor_inside(a, q, lattice)).holds)


def oracle_is_strongly_weakly_s_prime(a, q, s, lattice):
    _require_disjoint(a, q, s)
    if len(lattice) ** a.n > DEFAULT_IDEAL_SCAN_BUDGET:
        raise H.CapacityError("over budget")
    verdict = _some_s_handles_all(_ideal_tuples_into(a, q, lattice), s.indices(),
                                  _scaled_factor_inside(a, q, lattice),
                                  what="ideal tuple")
    if verdict.counterexample is None:
        return verdict
    return H.Verdict(False, counterexample=verdict.counterexample,
                     note="counterexample holds hyperideal indices",
                     ideals=tuple(lattice[i] for i in verdict.counterexample))


def outcome(fn, *args):
    """The value of fn(*args), or the type of the exception it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - the type is what is compared
        return type(exc)


def kind(result) -> str:
    if isinstance(result, type):
        return result.__name__
    if isinstance(result, bool):
        return f"associated={result}"
    if result.holds:
        return "witness" if result.witness_s is not None else "vacuous"
    return "counterexample" if result.counterexample is not None else "each-own"


def compare_routes(a):
    """Assert both routes agree on every (Q, S) pair; the outcome kinds seen."""
    lattice = H.enumerate_hyperideals(a)
    mult_sets = H.multiplicative_subsets(a, 3)
    kinds = set()

    def check(label, new, old, *args):
        got, want = outcome(new, *args), outcome(old, *args)
        assert got == want, (a.label, label, [str(x) for x in args[1:3]])
        kinds.add(kind(got))

    for q in lattice:
        check("is_weakly_prime", H.is_weakly_prime, oracle_is_weakly_prime, a, q)
        for s in mult_sets:
            check("is_s_prime", H.is_s_prime, oracle_is_s_prime, a, q, s)
            check("is_weakly_s_prime", H.is_weakly_s_prime,
                  oracle_is_weakly_s_prime, a, q, s)
            check("is_strongly_weakly_s_prime", H.is_strongly_weakly_s_prime,
                  oracle_is_strongly_weakly_s_prime, a, q, s, lattice)
            for c in s:
                check("strongly_associated", H.strongly_associated,
                      oracle_strongly_associated, a, q, c, lattice)
    return kinds


@pytest.mark.parametrize("name", SMALL_FIXTURES)
def test_colon_route_matches_oracle(name):
    compare_routes(H.fixture(name).structure)


def test_oracle_sees_every_outcome_kind():
    # paper-2-4 (n = 4, no identity) raises IdentityRequired only where a
    # qualifying tuple exists; ring:Z12 has witnesses and counterexamples
    kinds = set()
    for name in ("paper-2-4", "ring:Z12", "ring:Z2xZ4"):
        kinds |= compare_routes(H.fixture(name).structure)
    assert {"IdentityRequired", "DisjointnessViolated", "NotProper", "vacuous",
            "witness", "counterexample", "associated=True",
            "associated=False"} <= kinds


def g_mutant(a, rng):
    """Copy of ``a`` with one to three g entries replaced at random."""
    f_entries = {k: tuple(v) for k, v in a.f_table.items()}
    g_entries = dict(a.g_table)
    for _ in range(rng.randint(1, 3)):
        g_entries[rng.choice(sorted(g_entries))] = rng.randrange(a.size)
    return H.HyperStructure.from_tables(a.m, a.n, a.names, f_entries, g_entries,
                                        a.zero, a.one, label=a.label + "-g-mutant")


@pytest.mark.parametrize("name, seen", [
    ("paper-2-4", {"IdentityRequired", "vacuous"}),
    ("ring:Z6", {"witness", "counterexample"}),
    ("ring:Z8", {"associated=False", "associated=True"}),
    ("ring:Z2xZ4", {"each-own"}),  # every s fails, each on its own tuple
])
def test_colon_route_matches_oracle_on_g_mutants(name, seen):
    base = H.fixture(name).structure
    rng = random.Random(f"g-mutants:{name}")
    kinds = set()
    compared = 0
    while compared < 20:
        mutant = g_mutant(base, rng)
        if not len(H.enumerate_hyperideals(mutant)):
            continue
        kinds |= compare_routes(mutant)
        compared += 1
    assert seen <= kinds
