"""Command-line front end.

Exit codes: 0 clean, 1 axiom violations or suite counterexamples, 2 usage
or unloadable input, 3 violated preconditions (overlapping ideal and
multiplicative set, a subset that is not an ideal or not multiplicative,
exceeded scan budgets).  HYPERLAB_BUDGET overrides the ideal-scan budget.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from dataclasses import replace

from .axioms import check_krasner
from .constructions import fixture
from .core import HyperStructure
from .errors import (
    CapacityError,
    DisjointnessViolated,
    IdentityRequired,
    LoadError,
    NotAnIdeal,
    NotMultiplicative,
    NotProper,
    UnknownElementError,
    UnknownFixtureError,
)
from .files import load_structure
from .harness import (
    COUNTEREXAMPLE,
    DEFAULT_CORPUS,
    render_report_lines,
    reports_to_json,
    run_suite,
    search_separating_instances,
)
from .ideals import enumerate_hyperideals, is_hyperideal
from .predicates import CLASSIFY_KEYS, classify, is_multiplicative
from .verdict import Verdict


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperlab",
        description="Validate, classify, and theorem-check finite "
                    "commutative Krasner (m,n)-hyperrings.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_source(p):
        p.add_argument("path", nargs="?",
                       help="JSON structure document to load")
        p.add_argument("--fixture", help="built-in structure name")

    p_validate = sub.add_parser("validate", help="run the axiom checks")
    p_validate.set_defaults(run=cmd_validate)
    add_source(p_validate)
    p_validate.add_argument("--first-violation", action="store_true",
                            help="stop at the first violation")
    p_validate.add_argument("--json", action="store_true")

    p_classify = sub.add_parser("classify",
                                help="evaluate all predicates on (Q, S)")
    p_classify.set_defaults(run=cmd_classify)
    add_source(p_classify)
    p_classify.add_argument("--ideal", required=True,
                            help="comma-separated element names")
    p_classify.add_argument("--mult-set", required=True,
                            help="comma-separated element names")
    p_classify.add_argument("--json", action="store_true")

    p_ideals = sub.add_parser("ideals", help="enumerate all hyperideals")
    p_ideals.set_defaults(run=cmd_ideals)
    add_source(p_ideals)
    p_ideals.add_argument("--json", action="store_true")

    def add_corpus(p):
        p.add_argument("--corpus", help="comma-separated fixture names, or "
                                        "'none'; the built-in corpus if omitted")

    p_theorems = sub.add_parser("theorems", help="run the statement suite")
    p_theorems.set_defaults(run=cmd_theorems)
    add_corpus(p_theorems)
    p_theorems.add_argument("--json", action="store_true")

    p_search = sub.add_parser("search",
                              help="find (A, Q, S) separating two predicates")
    p_search.set_defaults(run=cmd_search)
    p_search.add_argument("--holds", required=True, choices=CLASSIFY_KEYS)
    p_search.add_argument("--fails", required=True, choices=CLASSIFY_KEYS)
    add_corpus(p_search)
    p_search.add_argument("--json", action="store_true")

    return parser


def _budget(parser: argparse.ArgumentParser) -> int | None:
    raw = os.environ.get("HYPERLAB_BUDGET")
    if raw is None:
        return None
    # int() would also take "-5", "1_000", " 12 " and non-ASCII digits, and
    # past 4300 digits it raises ValueError where the interpreter limits them
    if not re.fullmatch(r"[0-9]{1,4300}", raw):
        shown = repr(raw) if len(raw) <= 40 else f"{raw[:40]!r}... ({len(raw)} characters)"
        parser.error(f"HYPERLAB_BUDGET must be a non-negative integer, got {shown}")
    return int(raw)


def _resolve_structure(args, parser: argparse.ArgumentParser) -> HyperStructure:
    if args.fixture and args.path:
        parser.error("give a fixture name or a document path, not both")
    if args.fixture:
        return fixture(args.fixture).structure
    if args.path:
        return load_structure(args.path)
    parser.error("a structure is required: --fixture NAME or a document path")


def _corpus_names(args, parser: argparse.ArgumentParser) -> list[str]:
    if args.corpus is None:
        return list(DEFAULT_CORPUS)
    if args.corpus.strip() == "none":
        return []
    names = [part.strip() for part in args.corpus.split(",") if part.strip()]
    if not names:
        parser.error("--corpus got no fixture names")
    return names


def _parse_subset(a: HyperStructure, raw: str, parser: argparse.ArgumentParser):
    names = [part.strip() for part in raw.split(",") if part.strip()]
    if not names:
        parser.error(f"empty element list {raw!r}")
    return a.subset([a.index_of(name) for name in names])


def _verdict_payload(verdict: Verdict, a: HyperStructure) -> dict:
    return {
        "holds": verdict.holds,
        "witnessS": None if verdict.witness_s is None else a.names[verdict.witness_s],
        "counterexample": verdict.counterexample_names(a.names),
        "note": verdict.note,
    }


def _emit_json(doc: dict) -> None:
    sys.stdout.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def cmd_validate(args, parser) -> int:
    a = _resolve_structure(args, parser)
    violations = check_krasner(a, first_violation=args.first_violation)
    if args.json:
        _emit_json({
            "structure": a.label,
            "valid": not violations,
            "violations": [
                {"axiom": v.axiom, "witness": str(v.witness), "detail": v.detail}
                for v in violations],
        })
    else:
        if not violations:
            print(f"{a.label or 'structure'}: no axiom violations")
        for v in violations:
            print(f"{v.axiom}: witness={v.witness} {v.detail}")
    return 1 if violations else 0


def cmd_classify(args, parser) -> int:
    a = _resolve_structure(args, parser)
    budget = _budget(parser)
    lattice = replace(enumerate_hyperideals(a), budget=budget)
    q = _parse_subset(a, args.ideal, parser)
    ideal_check = is_hyperideal(a, q)
    if not ideal_check.holds:
        raise NotAnIdeal(
            f"{q.render(a.names)} is not a hyperideal: {ideal_check.note}")
    s = _parse_subset(a, args.mult_set, parser)
    mult_check = is_multiplicative(a, s)
    if not mult_check.holds:
        raise NotMultiplicative(
            f"{s.render(a.names)} is not multiplicative: {mult_check.note}")
    record = classify(a, q, s, lattice)
    if args.json:
        _emit_json({
            "structure": a.label,
            "ideal": [a.names[i] for i in q],
            "multSet": [a.names[i] for i in s],
            "record": {key: _verdict_payload(verdict, a)
                       for key, verdict in record.items()},
        })
    else:
        print(f"{a.label or 'structure'}: Q={q.render(a.names)} "
              f"S={s.render(a.names)}")
        for key, verdict in record.items():
            print(f"  {key}: {verdict.render(a.names)}")
    return 0


def cmd_ideals(args, parser) -> int:
    a = _resolve_structure(args, parser)
    lattice = enumerate_hyperideals(a)
    if args.json:
        _emit_json({
            "structure": a.label,
            "ideals": [{"elements": [a.names[i] for i in q], "prime": flag}
                       for q, flag in zip(lattice.sets, lattice.prime_flags)],
        })
    else:
        print(f"{a.label or 'structure'}: {len(lattice)} hyperideals")
        for q, flag in zip(lattice.sets, lattice.prime_flags):
            print(f"  {q.render(a.names)}" + (" (prime)" if flag else ""))
    return 0


def cmd_theorems(args, parser) -> int:
    names = _corpus_names(args, parser)
    budget = _budget(parser)
    reports = run_suite(names, budget=budget) if names else []
    if args.json:
        sys.stdout.write(reports_to_json(reports))
    else:
        for line in render_report_lines(reports):
            print(line)
    bad = any(r.status == COUNTEREXAMPLE for r in reports)
    return 1 if bad else 0


def cmd_search(args, parser) -> int:
    names = _corpus_names(args, parser)
    budget = _budget(parser)
    found = search_separating_instances(names, args.holds, args.fails,
                                        budget=budget)
    if args.json:
        _emit_json({"holds": args.holds, "fails": args.fails,
                    "separations": found})
    else:
        if not found:
            print("no separating instances")
        for row in found:
            print(f"{row['structure']}: Q={row['q']} S={row['s']}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.run(args, parser)
    except SystemExit as exc:
        # parser.error inside a command
        return int(exc.code or 0)
    except (LoadError, UnknownFixtureError, UnknownElementError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DisjointnessViolated, NotAnIdeal, NotMultiplicative, NotProper,
            CapacityError, IdentityRequired) as exc:
        print(f"precondition failed: {exc}", file=sys.stderr)
        return 3


def console_entry() -> None:
    raise SystemExit(main())
