"""Executable statement suite over a fixture corpus.

Nineteen registered statements (P1..P19) about prime-flavored hyperideals
are replayed as exhaustive instance scans.  Every instance resolves to one
of three statuses:

* VERIFIED       hypotheses hold and the claimed conclusion checks out
* COUNTEREXAMPLE hypotheses hold but the conclusion fails (certificate
                 carries the offending data)
* SKIPPED        hypotheses unsatisfied, an identity element would be
                 required but is absent, or a capacity budget was exceeded

Two pseudo ids accompany them: AXIOMS (one record per corpus structure,
replaying the full validity check) and DISCREPANCY (records the known
defects of non-canonical fixtures; these stay SKIPPED so a clean corpus
report contains no COUNTEREXAMPLE rows).

A statement is one row of ``STATEMENTS``: its id, an instance generator
(corpus -> (description, payload) pairs, shared between statements that
range over the same instances) and an evaluator that takes the payload as
keyword arguments and returns (status, reason, certificate).  Adding a
statement means writing its evaluator and adding one row; a new generator
is needed only when no existing one yields the instances it ranges over.

Instance generation is fully deterministic: no sampling, no clocks, and
JSON reports are byte-identical across runs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import combinations_with_replacement

from .axioms import check_krasner
from .constructions import (
    Fixture,
    fixture,
    crt_homomorphism,
    identity_homomorphism,
    inclusion,
    preimage_ideal,
    product,
    product_ideal,
    substructure,
)
from .core import (
    MAX_CARRIER,
    ElementSet,
    HyperStructure,
    graded_key,
    multiset_splits,
)
from .errors import (
    CapacityError,
    DisjointnessViolated,
    IdentityRequired,
    NotProper,
)
from .ideals import (
    IdealLattice,
    colon,
    colon_mask,
    colon_zero,
    enumerate_hyperideals,
    radical,
    scaled,  # not called here; perfbench/layers.py hooks the name at this site
    scaled_set,
    set_product,
)
from .predicates import (
    IGNORES_S,
    evaluate_predicate,
    is_weakly_s_prime,
    multiplicative_subsets,
    strongly_associated,
)
from .verdict import Verdict

DEFAULT_CORPUS = (
    "paper-2-4",
    "ring:Z4",
    "ring:Z6",
    "ring:Z12",
    "ring:Z2xZ3",
    "ring:Z4xZ3",
)

VERIFIED = "VERIFIED"
COUNTEREXAMPLE = "COUNTEREXAMPLE"
SKIPPED = "SKIPPED"

# mult-set search caps: products get a tighter cap to bound the scans
MULT_SIZE_CAP = 3
PRODUCT_MULT_SIZE_CAP = 2


@dataclass(frozen=True)
class PropertyReport:
    property_id: str
    instance: str
    status: str
    reason: str = ""
    certificate: object = None


@dataclass(frozen=True)
class Instance:
    property_id: str
    description: str
    payload: dict = field(compare=False)


@dataclass
class StructureContext:
    """A fixture prepared for the suite: validity scan, lattice (carrying
    the run's ideal-scan budget), mult sets, for a product fixture the
    contexts of its two factors, the memo of the predicate verdicts decided
    on it so far (see ``_verdict``) and the subsets rendered so far, by mask
    (see ``_render``)."""

    fixture: Fixture
    violations: tuple
    lattice: IdealLattice | None
    lattice_error: str
    mult_sets: tuple[ElementSet, ...]
    factors: tuple[StructureContext, StructureContext] | None = None
    verdicts: dict = field(default_factory=dict, repr=False, compare=False)
    rendered: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def name(self) -> str:
        return self.fixture.name

    @property
    def structure(self) -> HyperStructure:
        return self.fixture.structure

    @property
    def usable(self) -> bool:
        return (self.fixture.canonical and not self.violations
                and self.lattice is not None)

    @cached_property
    def triple(self) -> HyperStructure:
        """This product times its first factor, for the 3-factor statement."""
        f1 = self.factors[0]
        label = f"{self.name}x{f1.name}"
        size = self.structure.size * f1.structure.size
        if size > MAX_CARRIER:
            raise CapacityError(f"{label} has {size} elements, over the "
                                f"{MAX_CARRIER}-element cap")
        return product(self.structure, f1.structure, label=label)


def build_context(name: str, budget: int | None = None) -> StructureContext:
    return _prepare(fixture(name), MULT_SIZE_CAP, budget, {})


def _prepare(fx: Fixture, mult_cap: int, budget: int | None,
             prepared: dict) -> StructureContext:
    """The context of ``fx``, kept in ``prepared`` by (name, cap), where a
    factor of several products of one corpus is prepared once."""
    violations = tuple(check_krasner(fx.structure))
    lattice, err = None, ""
    if not violations:
        try:
            lattice = replace(enumerate_hyperideals(fx.structure), budget=budget)
        except CapacityError as exc:
            err = str(exc)
    else:
        err = "structure fails the validity scan"
    mult_sets = tuple(multiplicative_subsets(fx.structure, mult_cap))
    factors = None
    if fx.factors:
        factors = tuple(prepared.get((f.name, PRODUCT_MULT_SIZE_CAP))
                        or _prepare(f, PRODUCT_MULT_SIZE_CAP, budget, prepared)
                        for f in fx.factors)
    ctx = prepared[fx.name, mult_cap] = StructureContext(
        fx, violations, lattice, err, mult_sets, factors)
    return ctx


def build_corpus(names, budget: int | None = None) -> list[StructureContext]:
    prepared = {}
    return [_prepare(fixture(name), MULT_SIZE_CAP, budget, prepared) for name in names]


def _render(ctx: StructureContext, subset: ElementSet) -> str:
    """``subset`` in the context structure's element names, rendered once."""
    text = ctx.rendered.get(subset.mask)
    if text is None:
        text = ctx.rendered[subset.mask] = subset.render(ctx.structure.names)
    return text


def _verdict(ctx: StructureContext, name: str, q: ElementSet,
             s: ElementSet | None = None) -> Verdict:
    """``evaluate_predicate(name, ...)`` on the context's structure and
    lattice (with its scan budget), decided once per context.

    ``name`` is a ``predicates.PREDICATES`` key, and the memo key is that
    name, Q and S, with no S for a name in ``IGNORES_S``.  The registry
    looks each predicate up by its module name at call time, so a wrapper
    bound over that name (a tracer, a test) sees every question the memo
    has not answered yet.  A call that raises is not memoised.

    Three questions are asked directly instead:

    * P6's ``strongly_associated``, which asks about one element s and is
      no registry predicate.  Asked as strongly weakly {s}-prime, a Q that
      meets S would raise ``DisjointnessViolated`` where P6 now raises
      ``IdentityRequired`` (paper-2-4 has no identity);
    * P16's restriction and P18's triple, which are structures built for
      one instance, with no context.
    """
    key = (name, q.mask, None if s is None or name in IGNORES_S else s.mask)
    verdict = ctx.verdicts.get(key)
    if verdict is None:
        verdict = ctx.verdicts[key] = evaluate_predicate(
            name, ctx.structure, q, s, ctx.lattice)
    return verdict


def _bool_by_convention(fn, *args, **kwargs) -> bool:
    """Predicate value with precondition failures folded to False.

    Product-statement equivalences quantify over ideal/mult-set pairs that
    may collide; a pair violating disjointness or propriety makes the
    predicate false rather than ill-posed there.
    """
    try:
        return bool(fn(*args, **kwargs).holds)
    except (DisjointnessViolated, NotProper):
        return False


def _outcome(ok: bool, failure: str, cert):
    """VERIFIED when the claimed conclusion holds, else COUNTEREXAMPLE."""
    return (VERIFIED, "", cert) if ok else (COUNTEREXAMPLE, failure, cert)


def _usable(corpus):
    return (ctx for ctx in corpus if ctx.usable)


def _qs_pairs(ctx: StructureContext):
    for q in ctx.lattice.proper():
        for s in ctx.mult_sets:
            if not (q & s):
                yield q, s


def _nonzero_ideals(lattice: IdealLattice) -> list[ElementSet]:
    zero_mask = 1 << lattice.structure.zero
    return [q for q in lattice.sets if q.mask != zero_mask]


def _zero_radical(ctx: StructureContext) -> ElementSet:
    a = ctx.structure
    return radical(a, a.zero_set(), ctx.lattice)


# ------------------------------------------------------ shared generators

def _gen_qs(corpus):
    """Every disjoint (Q, S) pair of every usable structure."""
    for ctx in _usable(corpus):
        for q, s in _qs_pairs(ctx):
            yield (f"{ctx.name}: Q={_render(ctx, q)} S={_render(ctx, s)}",
                   dict(ctx=ctx, q=q, s=s))


def _gen_q_without_one(corpus):
    """Every proper Q missing the identity, for statements with S = {1}."""
    for ctx in _usable(corpus):
        a = ctx.structure
        if a.one is None:
            continue
        for q in ctx.lattice.proper():
            if a.one in q:
                continue
            yield f"{ctx.name}: Q={_render(ctx, q)}", dict(ctx=ctx, q=q)


def _strongly_weakly_only(ctx, q, s, reasons) -> str:
    """Why Q lacks "strongly weakly S-prime, but not S-prime": reasons[0]
    when it is not strongly weakly S-prime, reasons[1] when it is S-prime,
    "" when the hypothesis holds.  s None means S = {1}, where the
    baseline is plain primality."""
    a = ctx.structure
    unit = s is None
    if unit:
        s = ElementSet.single(a.one, a.size)
    if not _verdict(ctx, "strongly-weakly-s-prime", q, s).holds:
        return reasons[0]
    if (_verdict(ctx, "prime", q) if unit else _verdict(ctx, "s-prime", q, s)).holds:
        return reasons[1]
    return ""


_S_REASONS = ("Q is not strongly weakly S-prime",
              "Q is S-prime, hypothesis needs the failure")
_UNIT_REASONS = ("Q is not strongly weakly prime (S = {1})",
                 "Q is prime, hypothesis needs the failure")


# ---------------------------------------------------------------- P1 .. P5

def _gen_p1(corpus):
    for ctx in _usable(corpus):
        a = ctx.structure
        for q, s in _qs_pairs(ctx):
            meeting = [i for i, p in enumerate(ctx.lattice.sets) if p & s]
            for js in combinations_with_replacement(meeting, a.n - 1):
                desc = (f"{ctx.name}: Q={_render(ctx, q)} S={_render(ctx, s)} "
                        f"ideals={[_render(ctx, ctx.lattice[j]) for j in js]}")
                yield desc, dict(ctx=ctx, q=q, s=s, js=js)


def _eval_p1(ctx, q, s, js):
    a = ctx.structure
    if not _verdict(ctx, "weakly-s-prime", q, s).holds:
        return SKIPPED, "Q is not weakly S-prime", None
    image = a.eval_g_on_sets([ctx.lattice[j] for j in js] + [q])
    ok = _bool_by_convention(_verdict, ctx, "weakly-s-prime", image, s)
    cert = {"image": _render(ctx, image)}
    return _outcome(ok, "product set lost weak S-primeness", cert)


def _gen_p2(corpus):
    for ctx in _usable(corpus):
        for q, s in _qs_pairs(ctx):
            for p in ctx.lattice.sets:
                if p & s:
                    desc = (f"{ctx.name}: Q={_render(ctx, q)} S={_render(ctx, s)} "
                            f"P={_render(ctx, p)}")
                    yield desc, dict(ctx=ctx, q=q, s=s, p=p)


def _eval_p2(ctx, q, s, p):
    if not _verdict(ctx, "weakly-s-prime", q, s).holds:
        return SKIPPED, "Q is not weakly S-prime", None
    meet = q & p
    ok = _bool_by_convention(_verdict, ctx, "weakly-s-prime", meet, s)
    cert = {"intersection": _render(ctx, meet)}
    return _outcome(ok, "intersection lost weak S-primeness", cert)


def _eval_p3(ctx, q, s):
    a = ctx.structure
    chosen = None
    for cand in s:
        quotient = colon(a, q, cand)
        if quotient.mask == a.full_set().mask:
            continue
        if _verdict(ctx, "weakly-prime", quotient).holds:
            chosen = cand
            break
    if chosen is None:
        return SKIPPED, "no s in S with a weakly prime colon ideal", None
    verdict = _verdict(ctx, "weakly-s-prime", q, s)
    cert = {"s": a.names[chosen],
            "colon": _render(ctx, colon(a, q, chosen))}
    if verdict.holds:
        return VERIFIED, "", cert
    cert["counterexample"] = verdict.render(a.names)
    return COUNTEREXAMPLE, "weakly prime colon did not force weak S-primeness", cert


def _gen_p4(corpus):
    for ctx in _usable(corpus):
        for s in ctx.mult_sets:
            yield f"{ctx.name}: S={_render(ctx, s)}", dict(ctx=ctx, s=s)


def _eval_p4(ctx, s):
    disjoint = [q for q in ctx.lattice.proper() if not (q & s)]

    def collapses(name) -> bool:
        # every Q with the S-property is prime
        return all(_verdict(ctx, "prime", q).holds for q in disjoint
                   if _verdict(ctx, name, q, s).holds)

    lhs = collapses("weakly-s-prime")
    # A is a hyperintegral domain exactly when {0} is prime
    rhs = (_verdict(ctx, "prime", ctx.structure.zero_set()).holds
           and collapses("s-prime"))
    cert = {"collapse": lhs, "domain_and_collapse": rhs}
    return _outcome(lhs == rhs, "equivalence fails for this (A, S)", cert)


def _gen_p5(corpus):
    for ctx in _usable(corpus):
        for s in ctx.mult_sets:
            for t in ctx.mult_sets:
                if not (s <= t):
                    continue
                for q in ctx.lattice.proper():
                    if q & t:
                        continue
                    desc = (f"{ctx.name}: S={_render(ctx, s)} T={_render(ctx, t)} "
                            f"Q={_render(ctx, q)}")
                    yield desc, dict(ctx=ctx, s=s, t=t, q=q)


def _transfer_condition(a: HyperStructure, s: ElementSet, t: ElementSet) -> bool:
    # every t has a partner t' pulling the (n-1)-th power back into S
    for t_elt in t:
        if not any(a.eval_g((t_elt,) * (a.n - 1) + (t2,)) in s for t2 in t):
            return False
    return True


def _eval_p5(ctx, s, t, q):
    a = ctx.structure
    if not _transfer_condition(a, s, t):
        return SKIPPED, "power-partner condition between S and T fails", None
    if not _verdict(ctx, "weakly-s-prime", q, t).holds:
        return SKIPPED, "Q is not weakly T-prime", None
    verdict = _verdict(ctx, "weakly-s-prime", q, s)
    if verdict.holds:
        return VERIFIED, "", None
    return COUNTEREXAMPLE, "weak T-primeness did not shrink to S", {
        "counterexample": verdict.render(a.names)}


# --------------------------------------------------------------- P6 .. P14

def _eval_p6(ctx, q, s):
    a = ctx.structure
    zero_mask = 1 << a.zero
    associated = [cand for cand in s
                  if strongly_associated(a, q, cand, ctx.lattice)]
    if not associated:
        return SKIPPED, "no s in S passes the ideal-wise zero test", None
    # shared by every s: the zero products and g(kept, Q^(n - len(kept)))
    zero_rows = sorted(a.translations.support_rows(zero_mask), key=lambda r: graded_key(r[1]))
    images = {}
    checked = 0
    for cand in associated:
        handled = colon_mask(a, q, cand, "scaled product")
        for support, ms in zero_rows:
            if support & handled:
                continue
            checked += 1
            for take in range(0, a.n):
                # take elements stay, the rest are replaced by Q
                for kept, _ in multiset_splits(ms, take):
                    if kept not in images:
                        sets = [ElementSet.single(x, a.size) for x in kept]
                        images[kept] = a.eval_g_on_sets(sets + [q] * (a.n - take))
                    image = images[kept]
                    if image.mask != zero_mask:
                        cert = {"s": a.names[cand],
                                "tuple": [a.names[x] for x in ms],
                                "kept": [a.names[x] for x in kept],
                                "image": _render(ctx, image)}
                        return (COUNTEREXAMPLE,
                                "a Q-padded product escaped zero", cert)
    if checked == 0:
        return SKIPPED, "no zero product avoids Q after scaling by s", None
    return VERIFIED, "", {"tuples_checked": checked}


def _eval_power_zero(ctx, q, s=None):
    """P7 (S given) and P9 (S = {1}): the n-th power of Q is zero."""
    gap = _strongly_weakly_only(ctx, q, s,
                                _UNIT_REASONS if s is None else _S_REASONS)
    if gap:
        return SKIPPED, gap, None
    a = ctx.structure
    image = set_product(a, [q] * a.n)
    cert = {"power_image": _render(ctx, image)}
    return _outcome(image.mask == 1 << a.zero, "n-th power of Q is not zero", cert)


def _eval_p8(ctx, q, s):
    a = ctx.structure
    if not _verdict(ctx, "strongly-weakly-s-prime", q, s).holds:
        return SKIPPED, "Q is not strongly weakly S-prime", None
    rad0 = _zero_radical(ctx)
    if q <= rad0:
        return VERIFIED, "", {"branch": "Q inside rad(0)",
                              "rad0": _render(ctx, rad0)}
    for cand in s:
        if scaled_set(a, cand, rad0) <= q:
            return VERIFIED, "", {"branch": f"s*rad(0) inside Q at s={a.names[cand]}",
                                  "rad0": _render(ctx, rad0)}
    return COUNTEREXAMPLE, "neither containment holds", {
        "rad0": _render(ctx, rad0)}


def _eval_p10(ctx, q, s):
    direct = _verdict(ctx, "strongly-weakly-s-prime", q, s)
    via_colon = _verdict(ctx, "strongly-weakly-s-prime-colon", q, s)
    cert = {"direct": bool(direct.holds), "colon": bool(via_colon.holds)}
    return _outcome(bool(direct.holds) == bool(via_colon.holds),
                    "direct and colon routes disagree", cert)


def _eval_p11(ctx, q):
    a = ctx.structure
    unit = ElementSet.single(a.one, a.size)
    direct = bool(_verdict(ctx, "strongly-weakly-s-prime", q, unit).holds)
    by_equality = True
    by_inclusion = True
    for x in range(a.size):
        if x in q:
            continue
        quotient = colon(a, q, x)
        annihilator = colon_zero(a, x)
        if quotient.mask == annihilator.mask:
            continue
        if quotient.mask != q.mask:
            by_equality = False
        if not (quotient <= q):
            by_inclusion = False
    cert = {"direct": direct, "colon_equality": by_equality,
            "colon_inclusion": by_inclusion}
    return _outcome(direct == by_equality == by_inclusion,
                    "colon characterization disagrees", cert)


def _eval_p12(ctx, q, s):
    gap = _strongly_weakly_only(ctx, q, s, _S_REASONS)
    if gap:
        return SKIPPED, gap, None
    a = ctx.structure
    rad0 = _zero_radical(ctx)
    zero_mask = 1 << a.zero
    for cand in s:
        image = a.eval_g_on_sets(
            [scaled_set(a, cand, rad0)] + [q] * (a.n - 1))
        if image.mask == zero_mask:
            return VERIFIED, "", {"s": a.names[cand],
                                  "rad0": _render(ctx, rad0)}
    return COUNTEREXAMPLE, "no s sends s*rad(0)*Q^(n-1) to zero", {
        "rad0": _render(ctx, rad0)}


def _gen_p13(corpus):
    for ctx in _usable(corpus):
        proper = list(ctx.lattice.proper())
        for i, q1 in enumerate(proper):
            for q2 in proper[i:]:
                for s in ctx.mult_sets:
                    if (q1 & s) or (q2 & s):
                        continue
                    desc = (f"{ctx.name}: Q1={_render(ctx, q1)} "
                            f"Q2={_render(ctx, q2)} S={_render(ctx, s)}")
                    yield desc, dict(ctx=ctx, q1=q1, q2=q2, s=s)


_PAIR_REASONS = ("an ideal is not strongly weakly S-prime",
                 "an ideal is S-prime, hypothesis needs failures")


def _eval_p13(ctx, q1, q2, s):
    for q in (q1, q2):
        gap = _strongly_weakly_only(ctx, q, s, _PAIR_REASONS)
        if gap:
            return SKIPPED, gap, None
    a = ctx.structure
    zero_mask = 1 << a.zero
    for cand in s:
        first = a.eval_g_on_sets([scaled_set(a, cand, q1)] + [q2] * (a.n - 1))
        second = a.eval_g_on_sets([scaled_set(a, cand, q2)] + [q1] * (a.n - 1))
        if first.mask == zero_mask and second.mask == zero_mask:
            return VERIFIED, "", {"s": a.names[cand]}
    return COUNTEREXAMPLE, "no shared s kills both mixed products", None


def _eval_p14(ctx, q):
    gap = _strongly_weakly_only(ctx, q, None, _UNIT_REASONS)
    if gap:
        return SKIPPED, gap, None
    a = ctx.structure
    rad0 = _zero_radical(ctx)
    image = a.eval_g_on_sets([rad0] + [q] * (a.n - 1))
    cert = {"rad0": _render(ctx, rad0), "image": _render(ctx, image)}
    return _outcome(image.mask == 1 << a.zero, "rad(0)*Q^(n-1) is not zero", cert)


# -------------------------------------------------------------- P15 .. P19

def _corpus_homomorphisms(corpus):
    by_name = {ctx.name: ctx for ctx in corpus}
    homs = []
    for ctx in _usable(corpus):
        homs.append(("identity on " + ctx.name,
                     identity_homomorphism(ctx.structure), ctx, ctx))
    for j, k in ((2, 3), (4, 3)):
        src_name, tgt_name = f"ring:Z{j * k}", f"ring:Z{j}xZ{k}"
        src, tgt = by_name.get(src_name), by_name.get(tgt_name)
        if src is not None and tgt is not None and src.usable and tgt.usable:
            homs.append((f"remainder map {src_name} -> {tgt_name}",
                         crt_homomorphism(j, k), src, tgt))
    return homs


def _gen_p15(corpus):
    for label, hom, src, tgt in _corpus_homomorphisms(corpus):
        embedding = hom.is_homomorphism() and hom.is_injective()
        for s in src.mult_sets:
            hs = hom.map_set(s)
            for q2 in tgt.lattice.proper():
                if q2 & hs:
                    continue
                desc = f"{label}: S={_render(src, s)} Q2={_render(tgt, q2)}"
                yield desc, dict(src=src, tgt=tgt, hom=hom,
                                 embedding=embedding, s=s, q2=q2)


def _eval_p15(src, tgt, hom, embedding, s, q2):
    if not embedding:
        return SKIPPED, "map is not an embedding", None
    if not _verdict(tgt, "weakly-s-prime", q2, hom.map_set(s)).holds:
        return SKIPPED, "target ideal is not weakly h(S)-prime", None
    pre = preimage_ideal(hom, q2)
    ok = _bool_by_convention(_verdict, src, "weakly-s-prime", pre, s)
    cert = {"preimage": _render(src, pre)}
    return _outcome(ok, "preimage lost weak S-primeness", cert)


def _gen_p16(corpus):
    for ctx in _usable(corpus):
        a = ctx.structure
        zero_mask = 1 << a.zero
        for c in ctx.lattice.proper():
            if c.mask == zero_mask:
                continue
            sub = substructure(a, c, label=f"{ctx.name}[{_render(ctx, c)}]")
            incl = inclusion(sub, a)
            for s_par in ctx.mult_sets:
                if not s_par.issubset(c):
                    continue
                s_sub = preimage_ideal(incl, s_par)
                for q2 in ctx.lattice.proper():
                    if q2 & s_par:
                        continue
                    desc = (f"{ctx.name}: C={_render(ctx, c)} "
                            f"S={_render(ctx, s_par)} Q={_render(ctx, q2)}")
                    yield desc, dict(ctx=ctx, sub=sub, incl=incl,
                                     s_sub=s_sub, s_par=s_par, q2=q2)


def _eval_p16(ctx, sub, incl, s_sub, s_par, q2):
    if not _verdict(ctx, "weakly-s-prime", q2, s_par).holds:
        return SKIPPED, "ideal is not weakly S-prime in the big structure", None
    meet = preimage_ideal(incl, q2)
    ok = _bool_by_convention(is_weakly_s_prime, sub, meet, s_sub)
    cert = {"restricted": meet.render(sub.names)}
    return _outcome(ok, "restriction lost weak S-primeness", cert)


def _usable_products(corpus):
    """(ctx, f1, f2) for each usable product structure with usable factors."""
    for ctx in _usable(corpus):
        if ctx.factors and all(f.usable for f in ctx.factors):
            yield ctx, *ctx.factors


def _gen_p17(corpus):
    for ctx, f1, f2 in _usable_products(corpus):
        for q1 in _nonzero_ideals(f1.lattice):
            for q2 in _nonzero_ideals(f2.lattice):
                for s1 in f1.mult_sets:
                    for s2 in f2.mult_sets:
                        desc = (f"{ctx.name}: Q1={_render(f1, q1)} "
                                f"S1={_render(f1, s1)} Q2={_render(f2, q2)} "
                                f"S2={_render(f2, s2)}")
                        yield desc, dict(ctx=ctx, q1=q1, q2=q2, s1=s1, s2=s2)


def _eval_p17(ctx, q1, q2, s1, s2):
    f1, f2 = ctx.factors
    a1, a2 = f1.structure, f2.structure
    big_q = product_ideal(a1, a2, q1, q2)
    big_s = product_ideal(a1, a2, s1, s2)
    weakly = _bool_by_convention(_verdict, ctx, "weakly-s-prime", big_q, big_s)
    plain = _bool_by_convention(_verdict, ctx, "s-prime", big_q, big_s)
    left = (_bool_by_convention(_verdict, f1, "s-prime", q1, s1)
            and bool(q2 & s2))
    right = (_bool_by_convention(_verdict, f2, "s-prime", q2, s2)
             and bool(q1 & s1))
    split = left or right
    cert = {"weakly": weakly, "split": split, "plain": plain}
    return _outcome(weakly == split == plain,
                    "three product characterizations disagree", cert)


def _gen_p18(corpus):
    for ctx, f1, f2 in _usable_products(corpus):
        factors = (f1, f2, f1)
        ideal_choices = [_nonzero_ideals(fc.lattice) for fc in factors]
        for q1 in ideal_choices[0]:
            for q2 in ideal_choices[1]:
                for q3 in ideal_choices[2]:
                    for s1 in f1.mult_sets:
                        for s2 in f2.mult_sets:
                            for s3 in f1.mult_sets:
                                desc = (f"{ctx.name} (3 factors): "
                                        f"Q=({_render(f1, q1)},{_render(f2, q2)},"
                                        f"{_render(f1, q3)}) "
                                        f"S=({_render(f1, s1)},{_render(f2, s2)},"
                                        f"{_render(f1, s3)})")
                                yield desc, dict(ctx=ctx, qs=(q1, q2, q3),
                                                 ss=(s1, s2, s3))


def _eval_p18(ctx, qs, ss):
    triple = ctx.triple
    f1, f2 = ctx.factors
    q1, q2, q3 = qs
    s1, s2, s3 = ss
    a1, a2 = f1.structure, f2.structure
    pair_q = product_ideal(a1, a2, q1, q2)
    pair_s = product_ideal(a1, a2, s1, s2)
    big_q = product_ideal(ctx.structure, a1, pair_q, q3)
    big_s = product_ideal(ctx.structure, a1, pair_s, s3)
    lhs = _bool_by_convention(is_weakly_s_prime, triple, big_q, big_s)
    factors = ((f1, q1, s1), (f2, q2, s2), (f1, q3, s3))
    rhs = False
    for i, (fi, qi, si) in enumerate(factors):
        if not _bool_by_convention(_verdict, fi, "s-prime", qi, si):
            continue
        if all(bool(qj & sj) for j, (_, qj, sj) in enumerate(factors) if j != i):
            rhs = True
            break
    cert = {"weakly": lhs, "split": rhs}
    return _outcome(lhs == rhs, "3-factor characterization fails", cert)


def _field_like(ctx) -> bool:
    if ctx.structure.one is None or ctx.lattice is None:
        return False
    zero_mask = 1 << ctx.structure.zero
    masks = [q.mask for q in ctx.lattice.sets]
    return masks == [zero_mask, ctx.structure.full_set().mask]


def _gen_p19(corpus):
    for ctx, f1, f2 in _usable_products(corpus):
        for s1 in f1.mult_sets:
            for s2 in f2.mult_sets:
                for p in ctx.lattice.proper():
                    desc = (f"{ctx.name}: S1={_render(f1, s1)} "
                            f"S2={_render(f2, s2)} P={_render(ctx, p)}")
                    yield desc, dict(ctx=ctx, s1=s1, s2=s2, p=p)


def _eval_p19(ctx, s1, s2, p):
    f1, f2 = ctx.factors
    if not (_field_like(f1) and _field_like(f2)):
        return SKIPPED, "factors are not hyperfield-like", None
    a = ctx.structure
    big_s = product_ideal(f1.structure, f2.structure, s1, s2)
    if p & big_s:
        return SKIPPED, "ideal meets S1 x S2", None
    verdict = _verdict(ctx, "weakly-s-prime", p, big_s)
    if verdict.holds:
        return VERIFIED, "", None
    return COUNTEREXAMPLE, "proper ideal is not weakly S-prime", {
        "counterexample": verdict.render(a.names)}


# id -> (instance generator, evaluator).  Evaluators take the payload as
# keywords; a payload holds only the instance's own choices.
STATEMENTS = {
    "P1": (_gen_p1, _eval_p1),
    "P2": (_gen_p2, _eval_p2),
    "P3": (_gen_qs, _eval_p3),
    "P4": (_gen_p4, _eval_p4),
    "P5": (_gen_p5, _eval_p5),
    "P6": (_gen_qs, _eval_p6),
    "P7": (_gen_qs, _eval_power_zero),
    "P8": (_gen_qs, _eval_p8),
    "P9": (_gen_q_without_one, _eval_power_zero),
    "P10": (_gen_qs, _eval_p10),
    "P11": (_gen_q_without_one, _eval_p11),
    "P12": (_gen_qs, _eval_p12),
    "P13": (_gen_p13, _eval_p13),
    "P14": (_gen_q_without_one, _eval_p14),
    "P15": (_gen_p15, _eval_p15),
    "P16": (_gen_p16, _eval_p16),
    "P17": (_gen_p17, _eval_p17),
    "P18": (_gen_p18, _eval_p18),
    "P19": (_gen_p19, _eval_p19),
}

PROPERTY_IDS = tuple(STATEMENTS)


def generate_instances(property_id: str, corpus) -> list[Instance]:
    try:
        gen, _ = STATEMENTS[property_id]
    except KeyError:
        raise ValueError(f"unknown property id {property_id!r}") from None
    return [Instance(property_id, desc, payload) for desc, payload in gen(corpus)]


def run_property(property_id: str, instance: Instance) -> PropertyReport:
    _, evaluate = STATEMENTS[property_id]
    try:
        status, reason, certificate = evaluate(**instance.payload)
    except IdentityRequired as exc:
        status, reason, certificate = SKIPPED, f"identity required: {exc}", None
    except CapacityError as exc:
        status, reason, certificate = SKIPPED, f"budget exceeded: {exc}", None
    return PropertyReport(property_id, instance.description, status,
                          reason, certificate)


def _axiom_report(ctx: StructureContext) -> PropertyReport:
    cert = [{"axiom": v.axiom, "witness": repr(v.witness), "detail": v.detail}
            for v in ctx.violations]
    if not ctx.violations:
        if ctx.lattice is None:
            return PropertyReport(
                "AXIOMS", ctx.name, SKIPPED,
                f"valid, but ideal lattice unavailable: {ctx.lattice_error}",
                None)
        return PropertyReport("AXIOMS", ctx.name, VERIFIED,
                              "validity scan clean", None)
    if ctx.fixture.canonical:
        return PropertyReport("AXIOMS", ctx.name, COUNTEREXAMPLE,
                              f"{len(ctx.violations)} axiom violations", cert)
    return PropertyReport("AXIOMS", ctx.name, SKIPPED,
                          "non-canonical fixture, defects recorded below", cert)


def _discrepancy_reports(ctx: StructureContext) -> list[PropertyReport]:
    return [PropertyReport("DISCREPANCY", ctx.name, SKIPPED, note, None)
            for note in ctx.fixture.notes]


def run_suite(corpus_names=DEFAULT_CORPUS, budget: int | None = None,
              property_ids=PROPERTY_IDS) -> list[PropertyReport]:
    corpus = build_corpus(corpus_names, budget)
    reports: list[PropertyReport] = []
    for ctx in corpus:
        reports.append(_axiom_report(ctx))
        reports.extend(_discrepancy_reports(ctx))
    for pid in property_ids:
        for inst in generate_instances(pid, corpus):
            reports.append(run_property(pid, inst))
    return reports


def search_separating_instances(corpus_names, holds: str, fails: str,
                                budget: int | None = None) -> list[dict]:
    """All (structure, Q, S) where `holds` is true and `fails` is false."""
    found = []
    for ctx in _usable(build_corpus(corpus_names, budget)):
        for q, s in _qs_pairs(ctx):
            try:
                pos, neg = (_verdict(ctx, name, q, s) for name in (holds, fails))
            except (IdentityRequired, CapacityError, NotProper,
                    DisjointnessViolated):
                continue
            if pos.holds is True and neg.holds is False:
                found.append({"structure": ctx.name,
                              "q": _render(ctx, q),
                              "s": _render(ctx, s)})
    return found


def report_to_dict(report: PropertyReport) -> dict:
    return {
        "propertyId": report.property_id,
        "instance": report.instance,
        "status": report.status,
        "reason": report.reason,
        "certificate": report.certificate,
    }


def reports_to_json(reports) -> str:
    doc = {
        "reports": [report_to_dict(r) for r in reports],
        "summary": summarize(reports),
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def summarize(reports) -> dict:
    counts = {VERIFIED: 0, COUNTEREXAMPLE: 0, SKIPPED: 0}
    for r in reports:
        counts[r.status] += 1
    return {"verified": counts[VERIFIED],
            "counterexamples": counts[COUNTEREXAMPLE],
            "skipped": counts[SKIPPED],
            "total": len(reports)}


def render_report_lines(reports) -> list[str]:
    lines = []
    for r in reports:
        line = f"{r.property_id:<12} {r.status:<15} {r.instance}"
        if r.reason:
            line += f"  [{r.reason}]"
        lines.append(line)
    counts = summarize(reports)
    lines.append(
        f"total={counts['total']} verified={counts['verified']} "
        f"counterexamples={counts['counterexamples']} "
        f"skipped={counts['skipped']}")
    return lines
