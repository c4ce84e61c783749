"""Axiom checks for canonical m-ary hypergroups and Krasner (m, n)-hyperrings.

Every check is exhaustive over the finite carrier.  Because the stored
tables are commutative by construction, scanning sorted multisets is
equivalent to scanning all argument tuples; counterexamples are therefore
reported as sorted tuples.

ASSOC_F and ASSOC_G are decided by composing translation rows (Post,
*Polyadic groups*, 1940): the row of a (k-1)-multiset O is x -> op(O + {x}),
equal rows are interned to one id, and a commutative operation is
associative exactly when its distinct rows commute pairwise.  An f row is
composed through its image table, which sends each f-value mask to the
union of the row over the bits of the mask.  A row r of g distributes when,
for every (m-1)-multiset O, the image of f's row of O under r equals f's
row of sorted r(O), composed with r.  Each operation's rows have a
generating set under composition (``core._generators``): ASSOC holds when
the generators commute pairwise and DISTRIB when every g generator
distributes, and REVERSIBILITY is tested once per distinct pair of rows of
O and inv(O).  Only a failed decision runs the scan that names witnesses.
All read the structure's rows (``HyperStructure.translations``), built at
most once per structure.

The axioms form one registry: ``HYPERGROUP_AXIOMS`` and ``G_AXIOMS`` map
each axiom name, in check order, to an :class:`Axiom` entry holding its
scan, its witness shape and its replay, and ``AXIOM_ORDER`` is their keys.
A scan yields ``(witness, detail)`` pairs in lexicographic witness order, so
violations come back in a fixed order (axiom order, then witness order).
The scans are generators, so ``first_violation`` stops inside the first
failing scan, at its first witness.  :func:`replay` re-checks a violation
against the structure: it parses the witness by its entry's shape and calls
the entry's replay.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial, reduce
from itertools import combinations, islice
from operator import itemgetter, or_
from typing import Callable, Sequence

from .core import (
    ElementSet,
    HyperStructure,
    _image,
    inverse_candidates,
    multiset_splits,
    multisets,
    sorted_key,
)
from .errors import ArityError


@dataclass(frozen=True)
class AxiomViolation:
    """One concrete axiom failure; ``witness`` is enough to recompute it."""

    axiom: str
    witness: tuple
    detail: str


def _nested_f(a: HyperStructure, inner: tuple[int, ...], outer: tuple[int, ...]) -> int:
    mask = 0
    table = a.f_table
    for t in table[inner]:
        mask |= table[sorted_key(outer + (t,))].mask
    return mask


def _nested_g(a: HyperStructure, inner: tuple[int, ...], outer: tuple[int, ...]) -> int:
    table = a.g_table
    return table[sorted_key(outer + (table[inner],))]


def _assoc(a: HyperStructure, k: int, nested, row_of: dict, images: list, getters: list,
           generators: list[int] | None):
    """The ASSOC witnesses of an operation of arity k, in multiset order,
    from the pairs of its distinct translation rows that do not commute.

    Row i acts on a value through ``images[i]`` (for g the row itself, for
    f its image table), and ``getters[i]`` is ``itemgetter(*row)``, so
    ``getters[j](images[i])`` is the composite of row i after row j.

    A split with outer O and inner J + {x} nests to (T[O] o T[J])(x), for T
    the translation rows, and (T[J] o T[O])(x) is the split with outer J
    and inner O + {x}.  So if the rows commute, the split (O, S) agrees with
    (S - {x}, O + {x}) for each x in S; two such steps swap one entry of the
    outer with one of the inner, and those steps reach every split.  Hence a
    (2k-1)-multiset fails exactly when it is O + J + {x} for contexts O and
    J of rows i != j with T_i(T_j(x)) != T_j(T_i(x)).  Both steps use that
    the table is commutative, which holds by construction.

    Merging with a fixed multiset keeps lexicographic order, so the least
    failing multiset merges the first contexts of i and j with x for some
    failing (i, j, x); the rest are listed only when a second witness is
    asked for.

    Every row composes ``generators``, and composition is associative (an f
    row preserves unions of masks), so when they commute pairwise, all rows do.
    """
    if generators is not None and all(getters[j](images[i]) == getters[i](images[j])
                                      for i, j in combinations(generators, 2)):
        return
    pairs = ((i, j, gs(r), gr(s))
             for (i, (r, gr)), (j, (s, gs)) in combinations(enumerate(zip(images, getters)), 2))
    failing = [(i, j, [x for x, (u, v) in enumerate(zip(ij, ji)) if u != v])
               for i, j, ij, ji in pairs if ij != ji]
    if not failing:
        return
    contexts: list[list] = [[] for _ in images]
    for ctx, i in row_of.items():
        contexts[i].append(ctx)
    first = min(tuple(sorted(contexts[i][0] + contexts[j][0] + (x,)))
                for i, j, xs in failing for x in xs)
    yield _split_witness(a, first, k, nested)
    rest = {tuple(sorted(o + p + (x,)))
            for i, j, xs in failing for o in contexts[i] for p in contexts[j] for x in xs}
    for ms in sorted(rest - {first}):
        yield _split_witness(a, ms, k, nested)


def _split_witness(a: HyperStructure, ms: tuple[int, ...], k: int, nested):
    """The witness of failing ``ms``: its first split and the first that disagrees."""
    (base_inner, base_outer), *splits = multiset_splits(ms, k)
    base_val = nested(a, base_inner, base_outer)
    inner = next(inner for inner, outer in splits if nested(a, inner, outer) != base_val)
    names = a.render_elements
    return ((ms, base_inner, inner),
            f"nesting {names(base_inner)} and {names(inner)} inside "
            f"{names(ms)} give different results")


def _split_fails(nested, a: HyperStructure, ms: tuple[int, ...], left: tuple[int, ...],
                 right: tuple[int, ...]) -> bool:
    """Whether nesting ``left`` and ``right`` inside ``ms`` differ; False
    when either is not a sub-multiset of ``ms``."""
    outer_left, outer_right = _rest(ms, left), _rest(ms, right)
    if outer_left is None or outer_right is None:
        return False  # not a split of ms
    return nested(a, left, outer_left) != nested(a, right, outer_right)


def _assoc_f(a: HyperStructure):
    t = a.translations
    return _assoc(a, a.m, _nested_f, t.f[0], t.f_images, t.f_getters, t.f_generators)


def _assoc_g(a: HyperStructure):
    t = a.translations
    return _assoc(a, a.n, _nested_g, t.g[0], t.g[1], t.g_getters, t.g_generators)


def _neutral(a: HyperStructure):
    pad = (a.zero,) * (a.m - 1)
    values = [a.f_table[tuple(sorted((x,) + pad))] for x in range(a.size)]
    wrong = [x for x, value in enumerate(values) if value.mask != 1 << x]
    for x in wrong:
        yield ((x,),
               f"f({a.names[x]}, zero^{a.m - 1}) = {values[x].render(a.names)}, "
               f"expected {{{a.names[x]}}}")
    if wrong:
        return
    for e in range(a.size):
        if e != a.zero and _is_scalar_neutral(a, e):
            yield (e,), f"{a.names[e]} is a second scalar neutral besides zero"


def _neutral_fails(a: HyperStructure, e: int) -> bool:
    return (a.eval_f((e,) + (a.zero,) * (a.m - 1)).mask != 1 << e
            or (e != a.zero and _is_scalar_neutral(a, e)))


def _inverses(a: HyperStructure):
    for x in range(a.size):
        if x in a.inverse_map:
            continue  # exactly one candidate
        cands = inverse_candidates(a, x)
        shown = "{" + ",".join(a.names[c] for c in cands) + "}"
        yield (x,), f"{a.names[x]} has {len(cands)} inverse candidates {shown}"


def _reversibility(a: HyperStructure):
    """x in T_O(k) must give k in T_inv(O)(x), for O of invertible elements:
    no k lies in the union of the complements of T_inv(O) over T_O(k).  That
    depends only on the two row ids, so each distinct pair is tested once."""
    inv, full = a.inverse_map, (1 << a.size) - 1
    row_of, rows = a.translations.f
    pairs = {(i, row_of[tuple(sorted(map(inv.__getitem__, ctx)))])
             for ctx, i in row_of.items() if inv.keys() >= set(ctx)}
    if not any(u >> k & 1 for i, j in pairs
               for k, u in enumerate(_image(rows[i], [~m & full for m in rows[j]]))):
        return
    for ms in multisets(a.size, a.m):
        for x in a.f_table[ms]:
            for i, kept in enumerate(ms):
                if i and ms[i - 1] == kept:
                    continue  # ms is sorted: only the first of each run
                others = ms[:i] + ms[i + 1:]
                if any(o not in inv for o in others):
                    continue  # reported under INVERSE_UNIQUE
                # f(x, inv(others)) is x's entry of the row of inv(others)
                if not rows[row_of[tuple(sorted(inv[o] for o in others))]][x] >> kept & 1:
                    yield ((ms, x, i),
                           f"{a.names[x]} lies in f{a.render_elements(ms)} but "
                           f"{a.names[kept]} is not recoverable from position {i}")


def _reversibility_fails(a: HyperStructure, ms: tuple[int, ...], x: int, i: int) -> bool:
    inv = a.inverse_map
    others = ms[:i] + ms[i + 1:]
    if x not in a.f_table[ms] or any(o not in inv for o in others):
        return False
    return ms[i] not in a.eval_f((x, *(inv[o] for o in others)))


def _solvability(a: HyperStructure):
    full = (1 << a.size) - 1
    row_of, rows = a.translations.f
    missing = [~reduce(or_, row) & full for row in rows]
    for ctx, i in row_of.items():
        if missing[i]:
            b = (missing[i] & -missing[i]).bit_length() - 1
            yield ((ctx, b),
                   f"{a.names[b]} is not reachable from f{a.render_elements(ctx)} "
                   f"for any choice of the remaining argument")


def _undistributed(a: HyperStructure, row: tuple[int, ...]) -> tuple | None:
    """(ms, lhs, rhs) of the first m-multiset that g with the translation
    row ``row`` does not distribute over, or None.  For each (m-1)-multiset
    O, the image of f's row of O under ``row`` is x -> row(f(O + {x})), the
    lhs masks, and f's row of sorted row(O), composed with ``row``, is
    x -> f(row(O + {x})), the rhs masks.  The pairs (O, x) reach every
    m-multiset, so the first failing one is the least O + {x} where they differ.
    """
    t = a.translations
    f_row_of, f_rows = t.f
    image = _image(t.f_masks, tuple(1 << y for y in row))
    getters, after, at = t.f_getters, itemgetter(*row), row.__getitem__
    pairs = ((ctx, getters[i](image), after(f_rows[f_row_of[tuple(sorted(map(at, ctx)))]]))
             for ctx, i in f_row_of.items())
    return min(((sorted_key(ctx + (x,)), u, v) for ctx, lhs, rhs in pairs if lhs != rhs
                for x, (u, v) in enumerate(zip(lhs, rhs)) if u != v), default=None)


def _distrib(a: HyperStructure):
    """A row r with r(f(X)) = f(r(X)) for all m-multisets X is an
    endomorphism of (A, f), as is a composite of two, so if every g generator
    (``core._generators``) passes, every row does.  Else rows are scanned in
    context order, generators' verdicts reused: a failing row that is no
    generator composes earlier ones, one of which fails first."""
    row_of, rows = a.translations.g
    gens, verdicts = a.translations.g_generators, {}
    if gens is not None and all(verdicts.setdefault(i, _undistributed(a, rows[i])) is None
                                for i in gens):
        return
    for ctx, i in row_of.items():
        if i not in verdicts:
            verdicts[i] = _undistributed(a, rows[i])
        if verdicts[i] is not None:
            ms, lhs, rhs = verdicts[i]
            yield ((ctx, ms),
                   f"g over f{a.render_elements(ms)} with fixed arguments "
                   f"{a.render_elements(ctx)} is {ElementSet(lhs, a.size).render(a.names)}, "
                   f"expected {ElementSet(rhs, a.size).render(a.names)}")


def _distrib_fails(a: HyperStructure, ctx: tuple[int, ...], ms: tuple[int, ...]) -> bool:
    lhs = reduce(or_, (1 << a.eval_g(ctx + (t,)) for t in a.f_table[ms]), 0)
    return lhs != a.eval_f([a.eval_g(ctx + (x,)) for x in ms]).mask


def _zero_absorb(a: HyperStructure):
    row_of, rows = a.translations.g
    for ctx, i in row_of.items():
        got = rows[i][a.zero]
        if got != a.zero:
            yield (ctx,), f"g(zero, {a.render_elements(ctx)}) = {a.names[got]}, expected zero"


def _one_identity(a: HyperStructure):
    if a.one is None:
        return
    row_of, rows = a.translations.g
    for x, got in enumerate(rows[row_of[(a.one,) * (a.n - 1)]]):
        if got != x:
            yield (x,), f"g({a.names[x]}, one^{a.n - 1}) = {a.names[got]}, expected {a.names[x]}"


@dataclass(frozen=True)
class Axiom:
    """One registry entry.  ``scan(a)`` yields ``(witness, detail)`` pairs in
    witness order.  ``shape(m, n)`` gives per witness part the size of a
    multiset of carrier indices, or "x" for one carrier index, or "i" for a
    position in an m-multiset.  ``replay(a, *parts)`` re-checks a witness of
    that shape, its multisets sorted; True means it still fails."""

    scan: Callable
    shape: Callable[[int, int], tuple]
    replay: Callable[..., bool]


# axiom name -> entry, in check order: the canonical m-ary hypergroup (A, f),
# then the g-side axioms of a Krasner (m, n)-hyperring
HYPERGROUP_AXIOMS = {
    "NEUTRAL": Axiom(_neutral, lambda m, n: ("x",), _neutral_fails),
    "INVERSE_UNIQUE": Axiom(_inverses, lambda m, n: ("x",),
                            lambda a, x: len(inverse_candidates(a, x)) != 1),
    "ASSOC_F": Axiom(_assoc_f, lambda m, n: (2 * m - 1, m, m), partial(_split_fails, _nested_f)),
    "REVERSIBILITY": Axiom(_reversibility, lambda m, n: (m, "x", "i"), _reversibility_fails),
    "QUASI_SOLVABLE": Axiom(
        _solvability, lambda m, n: (m - 1, "x"),
        lambda a, ctx, b: all(b not in a.eval_f(ctx + (x,)) for x in range(a.size))),
}
G_AXIOMS = {
    "ASSOC_G": Axiom(_assoc_g, lambda m, n: (2 * n - 1, n, n), partial(_split_fails, _nested_g)),
    "DISTRIB": Axiom(_distrib, lambda m, n: (n - 1, m), _distrib_fails),
    "ZERO_ABSORB": Axiom(_zero_absorb, lambda m, n: (n - 1,),
                         lambda a, ctx: a.eval_g(ctx + (a.zero,)) != a.zero),
    "ONE_IDENTITY": Axiom(
        _one_identity, lambda m, n: ("x",),
        lambda a, x: a.one is not None and a.eval_g([x] + [a.one] * (a.n - 1)) != x),
}
AXIOM_ORDER = (*HYPERGROUP_AXIOMS, *G_AXIOMS)


def _scan(a: HyperStructure, axioms: dict, first: bool) -> list[AxiomViolation]:
    found = (AxiomViolation(axiom, witness, detail)
             for axiom, entry in axioms.items()
             for witness, detail in entry.scan(a))
    return list(islice(found, 1 if first else None))


def check_canonical_hypergroup(a: HyperStructure,
                               first_violation: bool = False) -> list[AxiomViolation]:
    """Check (A, f) against the canonical m-ary hypergroup axioms."""
    return _scan(a, HYPERGROUP_AXIOMS, first_violation)


def check_krasner(a: HyperStructure, first_violation: bool = False) -> list[AxiomViolation]:
    """Full structure check: canonical hypergroup plus the g-side axioms."""
    out = check_canonical_hypergroup(a, first_violation)
    if first_violation and out:
        return out
    return out + _scan(a, G_AXIOMS, first_violation)


def replay(a: HyperStructure, violation: AxiomViolation) -> bool:
    """Recompute one violation from its witness; True means it still fails.

    A witness whose parts do not have the shape its axiom reports (wrong
    count, wrong arity, or an index outside the carrier) is False.
    """
    entry = HYPERGROUP_AXIOMS.get(violation.axiom) or G_AXIOMS.get(violation.axiom)
    if entry is None:
        raise ValueError(f"unknown axiom tag {violation.axiom!r}")
    parts = _parse_witness(a, entry.shape(a.m, a.n), violation.witness)
    return parts is not None and entry.replay(a, *parts)


def _parse_witness(a: HyperStructure, shape: tuple, witness) -> tuple | None:
    """``witness`` with its multisets sorted, when its parts have ``shape``
    (see :class:`Axiom`); None otherwise."""
    if not isinstance(witness, tuple) or len(witness) != len(shape):
        return None
    out = []
    for part, kind in zip(witness, shape):
        if kind in ("x", "i"):
            if not _is_index(part, a.size if kind == "x" else a.m):
                return None
            out.append(part)
        elif (isinstance(part, (tuple, list)) and len(part) == kind
              and all(_is_index(x, a.size) for x in part)):
            out.append(tuple(sorted(part)))
        else:
            return None
    return tuple(out)


def _is_index(value, bound: int) -> bool:
    return isinstance(value, int) and 0 <= value < bound


def _is_scalar_neutral(a: HyperStructure, e: int) -> bool:
    pad = (e,) * (a.m - 1)
    return all(a.f_table[tuple(sorted((x,) + pad))].mask == 1 << x for x in range(a.size))


def _rest(ms: tuple[int, ...], part: tuple[int, ...]) -> tuple[int, ...] | None:
    """Sorted ``ms`` minus ``part`` when ``part`` is a sub-multiset of it;
    None otherwise."""
    out = list(ms)
    for v in part:
        if v not in out:
            return None
        out.remove(v)
    return tuple(out)


def _iterate(name: str, arity: int, first, step, level: int, args: Sequence[int]):
    """Left-nested iterate of an operation of ``arity``: ``first`` on the
    first ``arity`` arguments, then ``step(acc, chunk)`` over each next
    ``arity - 1``; needs level*(arity-1)+1 arguments."""
    if level < 1:
        raise ArityError("iteration level must be at least 1")
    expected = level * (arity - 1) + 1
    if len(args) != expected:
        raise ArityError(f"{name} at level {level} expects {expected} arguments, got {len(args)}")
    acc = first(args[:arity])
    for pos in range(arity, expected, arity - 1):
        acc = step(acc, args[pos: pos + arity - 1])
    return acc


def iterate_f(a: HyperStructure, level: int, args: Sequence[int]) -> ElementSet:
    """Left-nested iterate of f; needs level*(m-1)+1 arguments."""
    def step(acc, chunk):
        return a.eval_f_on_sets([acc] + [ElementSet.single(x, a.size) for x in chunk])
    return _iterate("iterate_f", a.m, a.eval_f, step, level, args)


def iterate_g(a: HyperStructure, level: int, args: Sequence[int]) -> int:
    """Left-nested iterate of g; needs level*(n-1)+1 arguments."""
    return _iterate("iterate_g", a.n, a.eval_g,
                    lambda acc, chunk: a.eval_g((acc, *chunk)), level, args)
