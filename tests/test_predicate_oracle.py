"""The row-based routes against the definitional routes they replaced.

The first oracle is the earlier "some s in S handles every qualifying
tuple" scan: it walks the qualifying multisets lazily in graded order and
asks ``handles(s, t)`` once per (s, tuple), re-multiplying every ideal
tuple on every call.  Each predicate must return an equal ``Verdict``, or
raise an exception of the same type, on every (Q, S) pair of every small
fixture and of seeded g-mutants.

The second set of oracles are the earlier scaled-product helpers (each
with its own identity pad), the graded scans of primality and of the
integral-domain test, the lattice's elementwise prime flag, the colon route
that re-derived (Q : x) per (s, x), and statement P6 walking every
g-multiset per s.  The scale-row and support-row versions must give equal
values, ``Verdict``s and P6/P10 report rows, and raise the same exception
with the same text, on the same (Q, S) pairs.
"""

import random

import pytest

import hyperlab as H
from hyperlab.core import graded_multisets, multiset_splits, multisets, sorted_key
from hyperlab.harness import _eval_p6, _eval_p10
from hyperlab.ideals import DEFAULT_IDEAL_SCAN_BUDGET, colon_mask
from hyperlab.predicates import _require_disjoint, _require_proper
from conftest import ORACLE_INPUTS, SMALL_FIXTURES, listed_first_unfactored, oracle_structures


def _identity_pad(a, needed, what):
    if needed == 0:
        return ()
    if a.one is None:
        raise H.IdentityRequired(f"{what} needs a scalar identity when n > 2")
    return (a.one,) * needed


def oracle_scaled(a, s, x):
    pad = _identity_pad(a, a.n - 2, "scaled product")
    return a.g_table[sorted_key((s, x) + pad)]


def oracle_scaled_set(a, s, q):
    pad = _identity_pad(a, a.n - 2, "scaled product")
    mask = 0
    for x in q:
        mask |= 1 << a.g_table[sorted_key((s, x) + pad)]
    return H.ElementSet(mask, a.size)


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
        lambda c, ms: any(oracle_scaled(a, c, x) in q for x in set(ms)))


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
        return any((x if one is None else oracle_scaled(a, one, x)) in q for x in set(ms))

    return _some_s_handles_all(qualifying, (a.one,), handles)


def _ideal_tuples_into(a, q, lattice):
    zero_mask = 1 << a.zero
    for ms in graded_multisets(range(len(lattice)), a.n):
        image = a.eval_g_on_sets([lattice[i] for i in ms])
        if image.mask != zero_mask and image.issubset(q):
            yield ms


def _scaled_factor_inside(a, q, lattice):
    return lambda c, ms: any(oracle_scaled_set(a, c, lattice[i]).issubset(q)
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


def seeded_g_mutants(name):
    """The 20 seeded g-mutants of fixture ``name`` with a non-empty lattice."""
    base = H.fixture(name).structure
    rng = random.Random(f"g-mutants:{name}")
    compared = 0
    while compared < 20:
        mutant = g_mutant(base, rng)
        if not len(H.enumerate_hyperideals(mutant)):
            continue
        yield mutant
        compared += 1


@pytest.mark.parametrize("name, seen", [
    ("paper-2-4", {"IdentityRequired", "vacuous"}),
    ("ring:Z6", {"witness", "counterexample"}),
    ("ring:Z8", {"associated=False", "associated=True"}),
    ("ring:Z2xZ4", {"each-own"}),  # every s fails, each on its own tuple
])
def test_colon_route_matches_oracle_on_g_mutants(name, seen):
    kinds = set()
    for mutant in seeded_g_mutants(name):
        kinds |= compare_routes(mutant)
    assert seen <= kinds


# ------------------------------------------------ scale rows, support rows

def oracle_generated_hyperideal(a, x):
    pad = _identity_pad(a, a.n - 2, "generated hyperideal")
    mask = 0
    for r in range(a.size):
        mask |= 1 << a.g_table[sorted_key((r, x) + pad)]
    return H.ElementSet(mask, a.size)


def oracle_colon(a, q, x):
    pad = _identity_pad(a, a.n - 2, "colon ideal")
    mask = 0
    for r in range(a.size):
        if a.g_table[sorted_key((r, x) + pad)] in q:
            mask |= 1 << r
    return H.ElementSet(mask, a.size)


def oracle_colon_zero(a, x):
    return oracle_colon(a, a.zero_set(), x)


def oracle_colon_mask(a, q, c, what):
    pad = _identity_pad(a, a.n - 2, what)
    mask = 0
    for x in range(a.size):
        if q.mask >> a.g_table[sorted_key((c, x) + pad)] & 1:
            mask |= 1 << x
    return mask


def oracle_is_prime(a, q):
    _require_proper(a, q)
    for ms in graded_multisets(range(a.size), a.n):
        if a.g_table[ms] in q and not any(x in q for x in ms):
            return H.Verdict(False, counterexample=ms,
                             note="product lies in the hyperideal, no factor does")
    return H.Verdict(True)


def oracle_is_hyperintegral_domain(a):
    for ms in graded_multisets(range(a.size), a.n):
        if a.g_table[ms] == a.zero and a.zero not in ms:
            return H.Verdict(False, counterexample=ms, note="nonzero zero-divisor tuple")
    return H.Verdict(True)


def oracle_elementwise_prime(a, q):
    if q.mask == a.full_set().mask:
        return False
    for ms in multisets(a.size, a.n):
        if a.g_table[ms] in q and not any(x in q for x in ms):
            return False
    return True


def oracle_colon_route(a, q, s):
    _require_disjoint(a, q, s)
    first_failure = None
    for cand in s:
        q_colon_s = oracle_colon(a, q, cand)
        ok = True
        for x in range(a.size):
            if x in q_colon_s:
                continue
            q_colon_x = oracle_colon(a, q, x)
            if q_colon_x.issubset(q_colon_s):
                continue
            if q_colon_x.mask == oracle_colon_zero(a, x).mask:
                continue
            ok = False
            if first_failure is None:
                first_failure = (cand, x)
            break
        if ok:
            return H.Verdict(True, witness_s=cand)
    cand, x = first_failure
    return H.Verdict(False, counterexample=(x,),
                     note=f"for s={a.names[cand]} the element {a.names[x]} "
                          "satisfies neither colon alternative")


def oracle_eval_p6(ctx, q, s):
    a = ctx.structure
    zero_mask = 1 << a.zero
    associated = [cand for cand in s
                  if H.strongly_associated(a, q, cand, ctx.lattice)]
    if not associated:
        return "SKIPPED", "no s in S passes the ideal-wise zero test", None
    checked = 0
    for cand in associated:
        for ms in graded_multisets(range(a.size), a.n):
            if a.eval_g(ms) != a.zero:
                continue
            if any(oracle_scaled(a, cand, x) in q for x in set(ms)):
                continue
            checked += 1
            for take in range(0, a.n):
                for kept, _ in multiset_splits(ms, take):
                    sets = [H.ElementSet.single(x, a.size) for x in kept]
                    sets += [q] * (a.n - take)
                    image = a.eval_g_on_sets(sets)
                    if image.mask != zero_mask:
                        cert = {"s": a.names[cand],
                                "tuple": [a.names[x] for x in ms],
                                "kept": [a.names[x] for x in kept],
                                "image": image.render(a.names)}
                        return ("COUNTEREXAMPLE",
                                "a Q-padded product escaped zero", cert)
    if checked == 0:
        return "SKIPPED", "no zero product avoids Q after scaling by s", None
    return "VERIFIED", "", {"tuples_checked": checked}


def oracle_eval_p10(ctx, q, s):
    a = ctx.structure
    direct = H.is_strongly_weakly_s_prime(a, q, s, ctx.lattice)
    via_colon = oracle_colon_route(a, q, s)
    cert = {"direct": bool(direct.holds), "colon": bool(via_colon.holds)}
    if bool(direct.holds) == bool(via_colon.holds):
        return "VERIFIED", "", cert
    return "COUNTEREXAMPLE", "direct and colon routes disagree", cert


def told(fn, *args):
    """The value of fn(*args), or the type and text of what it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - the type and text are compared
        return type(exc), str(exc)


def compare_rows(a):
    """Assert the row-based routes equal their oracles on every element and
    (Q, S) pair of ``a``; the P6 and P10 rows seen, without certificates."""
    lattice = H.enumerate_hyperideals(a)
    mult_sets = H.multiplicative_subsets(a, 3)
    ctx = H.StructureContext(H.Fixture(a.label, a), (), lattice, "", tuple(mult_sets))
    rows = set()

    def check(label, new, old, *args):
        got, want = told(new, *args), told(old, *args)
        assert got == want, (a.label, label, [str(x) for x in args[1:]])
        return got

    assert lattice.prime_flags == tuple(oracle_elementwise_prime(a, q) for q in lattice)
    check("is_hyperintegral_domain", H.is_hyperintegral_domain,
          oracle_is_hyperintegral_domain, a)
    for x in range(a.size):
        check("generated_hyperideal", H.generated_hyperideal,
              oracle_generated_hyperideal, a, x)
        check("colon_zero", H.colon_zero, oracle_colon_zero, a, x)
        for c in range(a.size):
            check("scaled", H.scaled, oracle_scaled, a, c, x)
    for q in lattice:
        check("is_prime", H.is_prime, oracle_is_prime, a, q)
        for x in range(a.size):
            check("colon", H.colon, oracle_colon, a, q, x)
            check("scaled_set", H.scaled_set, oracle_scaled_set, a, x, q)
            check("colon mask", colon_mask, oracle_colon_mask, a, q, x, "scaled product")
        for s in mult_sets:
            check("colon route", H.is_strongly_weakly_s_prime_colon,
                  oracle_colon_route, a, q, s)
            for pid, new, old in (("P6", _eval_p6, oracle_eval_p6),
                                  ("P10", _eval_p10, oracle_eval_p10)):
                status, reason = check(pid, new, old, ctx, q, s)[:2]
                if isinstance(status, type):  # raised: (type, text)
                    rows.add((pid, status.__name__))
                else:
                    rows.add((pid, status, reason))
    return rows


@pytest.mark.parametrize("name", SMALL_FIXTURES)
def test_rows_match_oracle(name):
    compare_rows(H.fixture(name).structure)


def test_rows_oracle_sees_every_row_kind():
    # paper-2-4 skips P6 and P10 for want of an identity; ring:Z12 reaches
    # both P6 skips and verifies both statements
    rows = set()
    for name in ("paper-2-4", "ring:Z12", "ring:Z2xZ4"):
        rows |= compare_rows(H.fixture(name).structure)
    assert {("P6", "IdentityRequired"), ("P10", "IdentityRequired"),
            ("P6", "SKIPPED", "no s in S passes the ideal-wise zero test"),
            ("P6", "SKIPPED", "no zero product avoids Q after scaling by s"),
            ("P6", "VERIFIED", ""), ("P10", "VERIFIED", ""),
            ("P10", "DisjointnessViolated")} <= rows


_P6_ESCAPES = ("P6", "COUNTEREXAMPLE", "a Q-padded product escaped zero")
_P10_DISAGREES = ("P10", "COUNTEREXAMPLE", "direct and colon routes disagree")


@pytest.mark.parametrize("name, seen", [
    ("paper-2-4", {("P6", "IdentityRequired"), ("P10", "IdentityRequired")}),
    ("ring:Z6", {_P6_ESCAPES, _P10_DISAGREES}),
    ("ring:Z8", {_P6_ESCAPES, _P10_DISAGREES}),
    ("ring:Z2xZ4", {_P6_ESCAPES, _P10_DISAGREES}),
])
def test_rows_match_oracle_on_g_mutants(name, seen):
    rows = set()
    for mutant in seeded_g_mutants(name):
        rows |= compare_rows(mutant)
    assert seen <= rows


def listed_factor_inside(a, mask, note):
    ms = listed_first_unfactored(a, mask)
    return H.Verdict(True) if ms is None else H.Verdict(False, counterexample=ms, note=note)


def listed_is_prime(a, q):
    _require_proper(a, q)
    return listed_factor_inside(a, q.mask, "product lies in the hyperideal, no factor does")


def listed_is_hyperintegral_domain(a):
    return listed_factor_inside(a, 1 << a.zero, "nonzero zero-divisor tuple")


@pytest.mark.parametrize("key", ORACLE_INPUTS)
def test_primality_verdicts_match_the_listing_oracle(key):
    # the row test with the graded witness against the list-then-min scan,
    # on every subset of a small carrier and on the lattice otherwise
    for a in oracle_structures(key):
        assert H.is_hyperintegral_domain(a) == listed_is_hyperintegral_domain(a), a
        qs = (H.ElementSet(mask, a.size) for mask in range(1 << a.size)) if a.size <= 6 \
            else H.enumerate_hyperideals(a)
        for q in qs:
            assert told(H.is_prime, a, q) == told(listed_is_prime, a, q), (a, q)


def test_one_element_carrier():
    a = H.HyperStructure.from_tables(2, 2, ("0",), {(0, 0): (0,)}, {(0, 0): 0}, 0,
                                     label="trivial")
    zero = a.zero_set()
    assert H.is_hyperintegral_domain(a) == oracle_is_hyperintegral_domain(a) == H.Verdict(True)
    assert told(H.is_prime, a, zero) == told(oracle_is_prime, a, zero)
    with pytest.raises(H.NotProper):
        H.is_prime(a, zero)
    lattice = H.enumerate_hyperideals(a)
    assert lattice.sets == (zero,)
    assert lattice.prime_flags == (oracle_elementwise_prime(a, zero),) == (False,)
    compare_rows(a)
