"""Carriers, element subsets, and stored (m, n) operation tables.

A structure couples an m-ary hyperoperation table f (values are non-empty
subsets of the carrier) with an n-ary single-valued operation table g.
Both tables are keyed by sorted index multisets, so commutativity holds by
construction; supplying two permutations of one multiset with different
values is rejected at build time.

Each structure owns the translation rows x -> op(O + {x}) of its two
operations (``Translations``), built once on first read by one walk of each
table; every check and ideal question on it reads them and what they derive.

Carriers are capped at 64 elements and subsets are stored as bitmasks.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property, reduce
from operator import itemgetter, or_
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import (
    ArityError,
    EmptyArgumentError,
    TableError,
    UnknownElementError,
)

MAX_CARRIER = 64


@dataclass(frozen=True)
class ElementSet:
    """Subset of a carrier of ``universe`` elements, stored as a bitmask."""

    mask: int
    universe: int

    def __post_init__(self) -> None:
        if not 0 < self.universe <= MAX_CARRIER:
            raise ValueError(f"universe size {self.universe} out of range 1..{MAX_CARRIER}")
        if not 0 <= self.mask < (1 << self.universe):
            raise ValueError("mask has bits outside the universe")

    @classmethod
    def from_indices(cls, indices: Iterable[int], universe: int) -> "ElementSet":
        mask = 0
        for i in indices:
            if not 0 <= i < universe:
                raise UnknownElementError(f"index {i} outside carrier of size {universe}")
            mask |= 1 << i
        return cls(mask, universe)

    @classmethod
    def single(cls, index: int, universe: int) -> "ElementSet":
        return cls.from_indices((index,), universe)

    @classmethod
    def empty(cls, universe: int) -> "ElementSet":
        return cls(0, universe)

    @classmethod
    def full(cls, universe: int) -> "ElementSet":
        return cls((1 << universe) - 1, universe)

    def _check(self, other: "ElementSet") -> None:
        if self.universe != other.universe:
            raise ValueError("element sets live in different carriers")

    def __contains__(self, index: int) -> bool:
        return 0 <= index < self.universe and bool(self.mask >> index & 1)

    def __iter__(self) -> Iterator[int]:
        mask = self.mask
        while mask:
            low = mask & -mask
            yield low.bit_length() - 1
            mask ^= low

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __bool__(self) -> bool:
        return self.mask != 0

    def __or__(self, other: "ElementSet") -> "ElementSet":
        self._check(other)
        return ElementSet(self.mask | other.mask, self.universe)

    def __and__(self, other: "ElementSet") -> "ElementSet":
        self._check(other)
        return ElementSet(self.mask & other.mask, self.universe)

    def __sub__(self, other: "ElementSet") -> "ElementSet":
        self._check(other)
        return ElementSet(self.mask & ~other.mask, self.universe)

    def __le__(self, other: "ElementSet") -> bool:
        self._check(other)
        return self.mask & ~other.mask == 0

    def issubset(self, other: "ElementSet") -> bool:
        return self <= other

    def isdisjoint(self, other: "ElementSet") -> bool:
        self._check(other)
        return self.mask & other.mask == 0

    def complement(self) -> "ElementSet":
        return ElementSet(~self.mask & (1 << self.universe) - 1, self.universe)

    def indices(self) -> tuple[int, ...]:
        return tuple(self)

    def render(self, names: Sequence[str]) -> str:
        return "{" + ",".join(names[i] for i in self) + "}"


def sorted_key(args: Iterable[int]) -> tuple[int, ...]:
    return tuple(sorted(args))


def multisets(universe: int, k: int) -> Iterator[tuple[int, ...]]:
    """All sorted k-multisets over ``range(universe)`` in lexicographic order."""
    return itertools.combinations_with_replacement(range(universe), k)


def graded_key(ms: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """Graded order of a multiset: most distinct entries first, lex inside a grade."""
    return len(ms) - len(set(ms)), ms


def graded_multisets(values: Sequence[int], k: int) -> list[tuple[int, ...]]:
    """All k-multisets over ``values``, most distinct entries first, lex inside a grade.

    Witness searches walk this order, so reported counterexamples favour
    tuples with maximal distinct support.
    """
    return sorted(itertools.combinations_with_replacement(sorted(values), k), key=graded_key)


def multiset_splits(ms: Sequence[int], k: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Distinct ways to carve a k-sub-multiset out of sorted ``ms``.

    Returns (taken, rest) pairs, both sorted; distinct as multisets, so
    repeated values are never enumerated twice.  Each split takes a prefix
    of every run of equal values; the pairs come with ``taken`` in
    descending lexicographic order.
    """
    runs = [tuple(run) for _, run in itertools.groupby(ms)]
    out = []
    for cuts in itertools.product(*(range(len(run) + 1) for run in runs)):
        if sum(cuts) == k:
            taken, rest = (), ()
            for run, cut in zip(runs, cuts):
                taken += run[:cut]
                rest += run[cut:]
            out.append((taken, rest))
    return out


def _normalize_table(entries: Mapping[Sequence[int], object], arity: int, size: int,
                     what: str) -> dict[tuple[int, ...], object]:
    table: dict[tuple[int, ...], object] = {}
    for raw_key, value in entries.items():
        key = tuple(raw_key)
        if len(key) != arity:
            raise TableError(f"{what} key {key} has arity {len(key)}, expected {arity}")
        for i in key:
            if not 0 <= i < size:
                raise TableError(f"{what} key {key} mentions index {i} outside the carrier")
        canon = tuple(sorted(key))
        prev_value = table.setdefault(canon, value)
        if prev_value != value:
            prev_key = next(tuple(k) for k in entries if tuple(sorted(k)) == canon)
            raise TableError(
                f"{what} entries {prev_key} and {key} are permutations of one "
                f"multiset but disagree: {prev_value!r} vs {value!r}"
            )
    expected = math.comb(size + arity - 1, arity)
    if len(table) != expected:
        # name a missing multiset only when the input holds a key of this
        # arity, so the message is never larger than the input
        if not table:
            raise TableError(f"{what} table is not total: it is empty, "
                             f"expected {expected} multisets")
        missing = next(ms for ms in multisets(size, arity) if ms not in table)
        raise TableError(f"{what} table is not total: no entry for multiset {missing}")
    return table


def inverse_candidates(a: "HyperStructure", x: int) -> tuple[int, ...]:
    """All y with zero in f(x, y, zero^(m-2))."""
    pad = (a.zero,) * (a.m - 2)
    return tuple(y for y in range(a.size)
                 if a.zero in a.f_table[tuple(sorted((x, y) + pad))])


def _translations(size: int, k: int, items: Iterable[tuple]) -> tuple[dict, list]:
    """Translation rows of an operation table of arity k with int values.

    The row of a (k-1)-multiset O is ``x -> table[O + {x}]`` over the
    carrier, filled by one walk of the table's (sorted key, value) ``items``:
    each key gives its value to the row of the key less one copy of x, for
    each distinct entry x.  Equal rows are interned to one id.  Returns
    ``({O: id}, rows)`` with ``rows[id]`` the row as a tuple, contexts in
    lexicographic order; a multiset missing from ``items`` raises KeyError.
    """
    rows: dict = {ctx: [None] * size for ctx in multisets(size, k - 1)}
    for ms, value in items:
        prev = None
        for i, x in enumerate(ms):
            if x != prev:  # slice once per run of equal entries
                rows[ms[:i] + ms[i + 1:]][x] = value
                prev = x
    ids: dict[tuple[int, ...], int] = {}
    for ctx, row in rows.items():
        if None in row:
            raise KeyError(sorted_key(ctx + (row.index(None),)))
        rows[ctx] = ids.setdefault(tuple(row), len(ids))
    return rows, list(ids)


def _image(masks: list[int], row: tuple[int, ...]) -> tuple[int, ...]:
    """The image table of a mask-valued ``row``: for each of ``masks``, in
    order, the union of ``row[t]`` over the bits t of the mask."""
    image = []
    for mask in masks:
        out = 0
        while mask:
            low = mask & -mask
            out |= row[low.bit_length() - 1]
            mask ^= low
        image.append(out)
    return tuple(image)


def _generators(rows: list, images: list, getters: list,
                budget: float | None = None) -> list[int] | None:
    """Ids of a generating set of the distinct ``rows`` under composition:
    row i after row j is ``getters[j](images[i])``, and a row is a generator
    unless reached (a generator, or a reached row after a generator that is a
    row).  None once the walk's compositions plus the G(G-1) of comparing its
    G generators pass ``budget``: by default rows(rows-1)/2, half of what
    comparing all rows takes, as a walk step costs about two of its steps."""
    index = {row: i for i, row in enumerate(rows)}
    budget = len(rows) * (len(rows) - 1) // 2 if budget is None else budget
    gens, reached = [], set()
    for g in (i for i in range(len(rows)) if i not in reached):
        gens.append(g)
        pending = [(e, (g,)) for e in reached] + [(g, gens)]
        reached.add(g)
        while pending:
            e, after = pending.pop()
            budget -= len(after)
            if budget < len(gens) * (len(gens) - 1):
                return None
            for h in after:
                j = index.get(getters[h](images[e]))
                if j is not None and j not in reached:
                    reached.add(j)
                    pending.append((j, gens))
    return gens


class Translations:
    """The f and g translation rows of one structure and what the checks
    derive from them, each built on first read.  Holds the tables, not the
    structure, so it makes no cycle."""

    def __init__(self, a: HyperStructure) -> None:
        self.size, self.m, self.n = a.size, a.m, a.n
        self.f_table, self.g_table = a.f_table, a.g_table
        self._support: dict[int, tuple] = {}

    @cached_property
    def f(self) -> tuple[dict, list]:
        """``({O: id}, rows)`` of f, each row a tuple of value masks."""
        return _translations(self.size, self.m,
                             ((ms, value.mask) for ms, value in self.f_table.items()))

    @cached_property
    def g(self) -> tuple[dict, list]:
        """``({O: id}, rows)`` of g, each row a tuple of carrier indices."""
        return _translations(self.size, self.n, self.g_table.items())

    @cached_property
    def f_masks(self) -> list[int]:
        """The distinct masks that f takes, in the order of image tables."""
        return list(set().union(*self.f[1]))

    @cached_property
    def f_images(self) -> list[tuple[int, ...]]:
        return [_image(self.f_masks, row) for row in self.f[1]]

    @cached_property
    def f_getters(self) -> list:
        """Per distinct f row, the itemgetter of its masks' positions in
        ``f_masks``: applied to an image table, it composes that table's row
        after this one."""
        position = {mask: i for i, mask in enumerate(self.f_masks)}
        return [itemgetter(*map(position.__getitem__, row)) for row in self.f[1]]

    @cached_property
    def g_getters(self) -> list:
        return [itemgetter(*row) for row in self.g[1]]

    @cached_property
    def f_generators(self) -> list[int] | None:
        return _generators(self.f[1], self.f_images, self.f_getters)

    @cached_property
    def g_generators(self) -> list[int] | None:
        return _generators(self.g[1], self.g[1], self.g_getters)

    def support_rows(self, values: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
        """(entries mask, multiset) per g-table entry valued in ``values``."""
        if values not in self._support:
            self._support[values] = tuple((reduce(or_, (1 << x for x in ms)), ms)
                                          for ms, value in self.g_table.items()
                                          if values >> value & 1)
        return self._support[values]


@dataclass(frozen=True, eq=True)
class HyperStructure:
    """A finite commutative Krasner (m, n)-hyperring candidate.

    Holding a table does not certify the axioms; run the checks in
    ``hyperlab.axioms`` for that.
    """

    m: int
    n: int
    names: tuple[str, ...]
    f_table: dict[tuple[int, ...], ElementSet]
    g_table: dict[tuple[int, ...], int]
    zero: int
    one: int | None = None
    label: str = field(default="", compare=False)
    # x -> its unique inverse, for the elements where one exists.  Built with
    # the structure: a cached_property writes through the instance __dict__,
    # which on CPython 3.11 makes every later attribute read on it ~3x slower.
    inverse_map: dict[int, int] = field(init=False, compare=False, repr=False)
    translations: Translations = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        # here, not in from_tables, so that no construction holds an empty f value
        for key, value in self.f_table.items():
            if not value:
                raise TableError(f"f value for {key} is empty")
        inverses = {}
        for x in range(self.size):
            cands = inverse_candidates(self, x)
            if len(cands) == 1:
                inverses[x] = cands[0]
        object.__setattr__(self, "inverse_map", inverses)
        object.__setattr__(self, "translations", Translations(self))

    @classmethod
    def from_tables(
        cls,
        m: int,
        n: int,
        names: Sequence[str],
        f_entries: Mapping[Sequence[int], Iterable[int]],
        g_entries: Mapping[Sequence[int], int],
        zero: int,
        one: int | None = None,
        label: str = "",
    ) -> "HyperStructure":
        if m < 2 or n < 2:
            raise TableError(f"arities must be at least 2, got m={m}, n={n}")
        names = tuple(names)
        size = len(names)
        if not 0 < size <= MAX_CARRIER:
            raise TableError(f"carrier size {size} out of range 1..{MAX_CARRIER}")
        if len(set(names)) != size:
            raise TableError("carrier names are not pairwise distinct")
        if not 0 <= zero < size:
            raise TableError(f"zero index {zero} outside the carrier")
        if one is not None and not 0 <= one < size:
            raise TableError(f"one index {one} outside the carrier")

        # checked and converted in place, so each table is held once
        f_table = _normalize_table(f_entries, m, size, "f")
        for key, value in f_table.items():
            f_table[key] = ElementSet.from_indices(value, size)  # type: ignore[arg-type]

        g_table = _normalize_table(g_entries, n, size, "g")
        for key, value in g_table.items():
            if not isinstance(value, int) or not 0 <= value < size:
                raise TableError(f"g value for {key} is not a carrier index: {value!r}")

        return cls(m, n, names, f_table, g_table, zero, one, label)  # type: ignore[arg-type]

    @property
    def size(self) -> int:
        return len(self.names)

    def index_of(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise UnknownElementError(f"no carrier element named {name!r}") from None

    def subset(self, indices: Iterable[int]) -> ElementSet:
        return ElementSet.from_indices(indices, self.size)

    def full_set(self) -> ElementSet:
        return ElementSet.full(self.size)

    def zero_set(self) -> ElementSet:
        return ElementSet.single(self.zero, self.size)

    def _check_args(self, args: Sequence[int], arity: int, op: str) -> tuple[int, ...]:
        if len(args) != arity:
            raise ArityError(f"{op} expects {arity} arguments, got {len(args)}")
        for a in args:
            if not 0 <= a < self.size:
                raise UnknownElementError(f"index {a} outside carrier of size {self.size}")
        return tuple(sorted(args))

    def eval_f(self, args: Sequence[int]) -> ElementSet:
        return self.f_table[self._check_args(args, self.m, "f")]

    def eval_g(self, args: Sequence[int]) -> int:
        return self.g_table[self._check_args(args, self.n, "g")]

    def _eval_on_sets(self, sets: Sequence[ElementSet], arity: int, op: str) -> ElementSet:
        if len(sets) != arity:
            raise ArityError(f"{op} expects {arity} argument sets, got {len(sets)}")
        index_lists = []
        for s in sets:
            if s.universe != self.size:
                raise UnknownElementError("argument set belongs to a different carrier")
            if not s:
                raise EmptyArgumentError(f"{op} received an empty argument set")
            index_lists.append(s.indices())
        mask = 0
        if op == "f":
            table = self.f_table
            for combo in itertools.product(*index_lists):
                mask |= table[tuple(sorted(combo))].mask
        else:
            table = self.g_table
            for combo in itertools.product(*index_lists):
                mask |= 1 << table[tuple(sorted(combo))]
        return ElementSet(mask, self.size)

    def eval_f_on_sets(self, sets: Sequence[ElementSet]) -> ElementSet:
        """Set-wise f: union of f over every choice of one element per argument set."""
        return self._eval_on_sets(sets, self.m, "f")

    def eval_g_on_sets(self, sets: Sequence[ElementSet]) -> ElementSet:
        """Set-wise g: the raw image of g over every choice of arguments."""
        return self._eval_on_sets(sets, self.n, "g")

    def render_elements(self, indices: Iterable[int]) -> str:
        return "(" + ",".join(self.names[i] for i in indices) + ")"
