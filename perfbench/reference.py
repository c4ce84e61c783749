"""Expected answers, derived without calling the code under test.

* ideals: the ideals of Z/k are dZ/k for each d | k, prime when d is prime;
  a product has the product ideals I x J, prime when one side is prime and
  the other is everything; paper-2-4's four ideals are written out by hand.
* mutants: a direct check of the ten axioms, written from their statements
  (associativity over every choice of the nested arguments).
* theorems: the sha256 of the report bytes captured from the unmodified
  package.

Each ``check_*`` function returns None for a correct answer, or a one-line
reason for a wrong one.
"""

from __future__ import annotations

import ast
import hashlib
import json
from itertools import combinations, combinations_with_replacement

from workloads import THEOREMS_CORPUS, SMOKE_CORPUS, Structure

# Axiom names in the order the checker reports them.
AXIOMS = ("F_VALUE_EMPTY", "NEUTRAL", "INVERSE_UNIQUE", "ASSOC_F",
          "REVERSIBILITY", "QUASI_SOLVABLE", "ASSOC_G", "DISTRIB",
          "ZERO_ABSORB", "ONE_IDENTITY")

# sha256 of the `hyperlab theorems --json --corpus ...` bytes and the number
# of statement instances, captured from the unmodified package (ROADMAP C10:
# the report stays byte-identical).
THEOREMS_REFERENCE = {
    THEOREMS_CORPUS: ("953be4128165a169d22b092915c3ff8c9532649294e13128b30b43810a8f25b0", 11462),
    SMOKE_CORPUS: ("49c9eaca8dda087e7229ddf61de95d232ee1077c0fcbb0519970df38c4694ee9", 124),
}


# ---------------------------------------------------------------- ideals

def _ring_ideals(k: int) -> list[tuple[frozenset, bool]]:
    out = []
    for d in range(1, k + 1):
        if k % d == 0:
            prime = d > 1 and all(d % p for p in range(2, d))
            out.append((frozenset(range(0, k, d)), prime))
    return out


# Hand-computed from paper-2-4's tables: g is 2 on {2,3}^4 and 0 elsewhere,
# so only {0,1} forces a factor into the ideal.
_PAPER_IDEALS = [
    (frozenset({0}), False),
    (frozenset({0, 1}), True),
    (frozenset({0, 2}), False),
    (frozenset({0, 1, 2, 3}), False),
]


def _product_ideals(left, right, right_size: int) -> list[tuple[frozenset, bool]]:
    left_full = max(len(i) for i, _ in left)
    right_full = right_size
    out = []
    for i, p in left:
        for j, q in right:
            prime = (p and len(j) == right_full) or (q and len(i) == left_full)
            out.append((frozenset(x * right_size + y for x in i for y in j), prime))
    return out


def expected_ideals(name: str) -> list[tuple[frozenset, bool]]:
    """(index set, prime flag) for every hyperideal of a named structure."""
    if name == "paper-2-4":
        return list(_PAPER_IDEALS)
    if name == "paper-2-4^2":
        return _product_ideals(_PAPER_IDEALS, _PAPER_IDEALS, 4)
    body = name.removeprefix("ring:Z")
    if "xZ" in body:
        j, k = (int(p) for p in body.split("xZ"))
        return _product_ideals(_ring_ideals(j), _ring_ideals(k), k)
    return _ring_ideals(int(body))


def check_ideals(a: Structure, rc, stdout: str) -> str | None:
    if rc != 0:
        return f"exit code {rc}, expected 0"
    try:
        got = [(frozenset(row["elements"]), row["prime"])
               for row in json.loads(stdout)["ideals"]]
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable ideals output: {exc!r}"
    want = {(frozenset(a.names[i] for i in ideal), prime)
            for ideal, prime in expected_ideals(a.name)}
    if len(got) != len(want) or set(got) != want:
        return f"{a.name}: lattice differs from the reference"
    return None


# ---------------------------------------------------------------- validate

def check_valid(a: Structure, rc, stdout: str) -> str | None:
    if rc != 0:
        return f"{a.name}: exit code {rc}, expected 0"
    try:
        doc = json.loads(stdout)
    except ValueError as exc:
        return f"unreadable validate output: {exc!r}"
    if doc.get("valid") is not True or doc.get("violations"):
        return f"{a.name}: reported invalid"
    return None


# ---------------------------------------------------------------- mutants

def failing_axioms(a: Structure) -> frozenset[str]:
    """Names of the axioms the structure violates."""
    size, m, n, zero = a.size, a.m, a.n, a.zero
    full = frozenset(range(size))

    def f(args):
        return a.f[tuple(sorted(args))]

    def g(args):
        return a.g[tuple(sorted(args))]

    bad = set()
    if not all(a.f.values()):
        bad.add("F_VALUE_EMPTY")

    if any(f((x,) + (zero,) * (m - 1)) != {x} for x in range(size)):
        bad.add("NEUTRAL")
    elif any(e != zero and all(f((x,) + (e,) * (m - 1)) == {x} for x in range(size))
             for e in range(size)):
        bad.add("NEUTRAL")  # a second scalar neutral

    candidates = {x: [y for y in range(size) if zero in f((x, y) + (zero,) * (m - 2))]
                  for x in range(size)}
    if any(len(c) != 1 for c in candidates.values()):
        bad.add("INVERSE_UNIQUE")
    inv = {x: c[0] for x, c in candidates.items() if len(c) == 1}

    def f_nested(inner, outer):
        out = set()
        for v in f(inner):
            out |= f(outer + (v,))
        return out

    def g_nested(inner, outer):
        return g(outer + (g(inner),))

    # The tables are commutative, so nesting k of the 2k-1 arguments depends
    # only on which arguments go inside: compare every choice of k of them.
    for name, k, nested in (("ASSOC_F", m, f_nested), ("ASSOC_G", n, g_nested)):
        for ms in combinations_with_replacement(range(size), 2 * k - 1):
            values = set()
            for inside in combinations(range(2 * k - 1), k):
                inner = tuple(ms[i] for i in inside)
                outer = tuple(x for i, x in enumerate(ms) if i not in inside)
                values.add(frozenset(nested(inner, outer)) if name == "ASSOC_F"
                           else nested(inner, outer))
                if len(values) > 1:
                    break
            if len(values) > 1:
                bad.add(name)
                break

    # x in f(x_1..x_m) gives x_i in f(x, -x_j for j != i), where inverses exist.
    for ms in combinations_with_replacement(range(size), m):
        for x in f(ms):
            for i in range(m):
                others = ms[:i] + ms[i + 1:]
                if all(o in inv for o in others) and \
                        ms[i] not in f((x,) + tuple(inv[o] for o in others)):
                    bad.add("REVERSIBILITY")
                    break

    for ctx in combinations_with_replacement(range(size), m - 1):
        if frozenset().union(*(f(ctx + (x,)) for x in range(size))) != full:
            bad.add("QUASI_SOLVABLE")
            break

    for ctx in combinations_with_replacement(range(size), n - 1):
        if g(ctx + (zero,)) != zero:
            bad.add("ZERO_ABSORB")
        if "DISTRIB" in bad:
            continue
        for ms in combinations_with_replacement(range(size), m):
            lhs = {g(ctx + (v,)) for v in f(ms)}
            if lhs != f(tuple(g(ctx + (x,)) for x in ms)):
                bad.add("DISTRIB")
                break

    if a.one is not None and any(g((x,) + (a.one,) * (n - 1)) != x for x in range(size)):
        bad.add("ONE_IDENTITY")
    return frozenset(bad)


def check_violations(path: str, expected: frozenset, first_only: bool,
                     rc, stdout: str, hyperlab_api) -> str | None:
    """Compare a `validate --json` answer on the document at ``path`` with
    the reference axiom set.

    ``hyperlab_api`` provides ``load``, ``replay`` and ``violation``: every
    reported witness must replay against the loaded document.
    """
    want_rc = 1 if expected else 0
    if rc != want_rc:
        return f"exit code {rc}, expected {want_rc}"
    try:
        rows = json.loads(stdout)["violations"]
        axioms = [row["axiom"] for row in rows]
        witnesses = [ast.literal_eval(row["witness"]) for row in rows]
    except (ValueError, KeyError, TypeError, SyntaxError) as exc:
        return f"unreadable validate output: {exc!r}"
    if first_only:
        want = [next(ax for ax in AXIOMS if ax in expected)] if expected else []
        if axioms != want:
            return f"first violation {axioms}, expected {want}"
    elif set(axioms) != expected:
        return f"failing axioms {sorted(set(axioms))}, expected {sorted(expected)}"
    for row, witness in zip(rows, witnesses):
        try:
            violation = hyperlab_api.violation(row["axiom"], witness, row["detail"])
            if not hyperlab_api.replay(hyperlab_api.load(path), violation):
                return f"{row['axiom']} witness {row['witness']} does not replay"
        except Exception as exc:  # a malformed witness is a wrong answer
            return f"{row['axiom']} witness {row['witness']} breaks replay: {exc!r}"
    return None


# ---------------------------------------------------------------- theorems

def check_theorems(corpus: tuple, rc, stdout: str) -> str | None:
    if rc != 0:
        return f"exit code {rc}, expected 0"
    if hashlib.sha256(stdout.encode()).hexdigest() != THEOREMS_REFERENCE[corpus][0]:
        return "report bytes differ from the reference"
    return None


def theorem_instances(corpus: tuple) -> int:
    return THEOREMS_REFERENCE[corpus][1]
