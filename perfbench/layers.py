"""Per-layer spans for the traced run.

The tracer rebinds hyperlab's public functions in every hyperlab module that
holds them, so a call is timed wherever its caller looks the name up (for
example ``hyperlab.cli.reports_to_json`` or ``hyperlab.harness.is_weakly_s_prime``).
Spans (name, start, end, parent) are kept in memory and written out at the
end.  A layer's self time is its span minus its child spans.  When a hooked
name no longer exists, the metrics that need it are reported as unmeasured
with the reason, instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass

PREDICATES = (
    "is_prime", "is_s_prime", "is_weakly_prime", "is_weakly_s_prime",
    "is_strongly_weakly_s_prime", "is_strongly_weakly_s_prime_colon",
    "strongly_associated", "is_hyperintegral_domain", "evaluate_predicate",
    "multiplicative_subsets",
)
# Predicates that decide one (structure, Q, S) question; their calls and
# distinct questions measure how much a verdict memo could save.
VERDICTS = PREDICATES[:6]
IDEAL_HELPERS = ("colon", "colon_zero", "radical", "scaled", "scaled_set", "set_product")
STATEMENTS = tuple(f"P{i}" for i in range(1, 20))


@dataclass(frozen=True)
class Hook:
    """A function to time: ``module.attr``, rebound wherever it is imported.

    ``sites`` limits the rebinding to those modules; ``span`` False counts
    calls without recording spans, for functions called too often to trace.
    """

    name: str
    module: str
    attr: str
    sites: tuple[str, ...] = ()
    span: bool = True


HOOKS = (
    Hook("render", "cli", "_emit_json"),
    Hook("render", "harness", "reports_to_json", sites=("cli",)),
    Hook("render", "harness", "render_report_lines", sites=("cli",)),
    Hook("load", "files", "load_structure"),
    Hook("from_tables", "core", "HyperStructure.from_tables"),
    Hook("fixture", "constructions", "fixture"),
    Hook("product", "constructions", "product"),
    Hook("check", "axioms", "check_krasner"),
    Hook("hypergroup", "axioms", "check_canonical_hypergroup"),
    Hook("enumerate", "ideals", "enumerate_hyperideals"),
    Hook("candidate", "ideals", "is_hyperideal", sites=("ideals",), span=False),
    *(Hook("helper", "ideals", fn, sites=("harness",)) for fn in IDEAL_HELPERS),
    *(Hook(f"predicate.{fn}", "predicates", fn) for fn in PREDICATES),
    Hook("statement", "harness", "run_property"),
    Hook("generate", "harness", "generate_instances"),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _per_name(field: str, key: str):
    return lambda t: getattr(t, field)[key]


_VERDICT_HOOKS = tuple(f"predicate.{fn}" for fn in VERDICTS)

# metric -> (unit, hooks it needs, its value from a Tracer).  Times are
# inclusive over the outermost calls of a hook, except the statements',
# which are self times.
METRICS = {
    "cli.render_s": ("s", ("render",), _per_name("inclusive", "render")),
    "files.load_s": ("s", ("load",), _per_name("inclusive", "load")),
    "files.load_calls": ("count", ("load",), _per_name("calls", "load")),
    "core.from_tables_s": ("s", ("from_tables",), _per_name("inclusive", "from_tables")),
    "core.from_tables_calls": ("count", ("from_tables",), _per_name("calls", "from_tables")),
    "constructions.fixture_s": ("s", ("fixture",), _per_name("inclusive", "fixture")),
    "constructions.product_s": ("s", ("product",), _per_name("inclusive", "product")),
    "constructions.product_calls": ("count", ("product",), _per_name("calls", "product")),
    "axioms.check_s": ("s", ("check",), _per_name("inclusive", "check")),
    "axioms.check_calls": ("count", ("check",), _per_name("calls", "check")),
    "axioms.hypergroup_s": ("s", ("hypergroup",), _per_name("inclusive", "hypergroup")),
    "axioms.g_side_s": ("s", ("check", "hypergroup"),
                        lambda t: t.inclusive["check"] - t.inclusive["hypergroup"]),
    "axioms.violations": ("count", ("check",), _per_name("counts", "violations")),
    "ideals.enumerate_s": ("s", ("enumerate",), _per_name("inclusive", "enumerate")),
    "ideals.enumerate_calls": ("count", ("enumerate",), _per_name("calls", "enumerate")),
    "ideals.candidates": ("count", ("candidate",), _per_name("counts", "candidate")),
    "ideals.found": ("count", ("enumerate",), _per_name("counts", "found")),
    "ideals.hit_ratio": ("ratio", ("candidate", "enumerate"),
                         lambda t: _ratio(t.counts["candidate.hit"], t.counts["candidate"])),
    "ideals.helpers_s": ("s", ("helper",), _per_name("inclusive", "helper")),
    **{f"predicates.{fn}.{kind}": (unit, (f"predicate.{fn}",), _per_name(field, f"predicate.{fn}"))
       for fn in PREDICATES
       for kind, unit, field in (("calls", "count", "calls"), ("s", "s", "inclusive"))},
    "predicates.calls": ("count", _VERDICT_HOOKS, _per_name("counts", "verdicts")),
    "predicates.distinct": ("count", _VERDICT_HOOKS, lambda t: len(t.questions)),
    "predicates.distinct_ratio": ("ratio", _VERDICT_HOOKS,
                                  lambda t: _ratio(len(t.questions), t.counts["verdicts"])),
    **{f"harness.{pid}.{kind}": (unit, ("statement",), _per_name(field, f"statement.{pid}"))
       for pid in STATEMENTS
       for kind, unit, field in (("s", "s", "self_time"), ("instances", "count", "calls"))},
    "harness.generate_s": ("s", ("generate",), _per_name("inclusive", "generate")),
    "harness.skipped": ("count", ("statement",), _per_name("counts", "skipped")),
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []
        self._stack: list[list] = []  # [span index, name, child seconds]
        self.calls: Counter = Counter()
        self.inclusive: defaultdict = defaultdict(float)  # outermost calls only
        self.self_time: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.questions: set = set()
        self._structures: dict = {}  # keeps each structure alive so its id stays unique
        self.unmeasured: dict[str, str] = {}

    # ------------------------------------------------------------ install

    def install(self) -> None:
        for hook in HOOKS:
            reason = self._install(hook)
            if reason:
                self.unmeasured.setdefault(hook.name, reason)

    def _install(self, hook: Hook) -> str | None:
        where = f"hyperlab.{hook.module}.{hook.attr}"
        try:
            home = importlib.import_module(f"hyperlab.{hook.module}")
        except ImportError as exc:
            return f"{where}: {exc}"
        if "." in hook.attr:  # a classmethod
            cls_name, meth = hook.attr.split(".")
            cls = getattr(home, cls_name, None)
            raw = None if cls is None else cls.__dict__.get(meth)
            if not isinstance(raw, classmethod):
                return f"{where} not found"
            setattr(cls, meth, classmethod(self._wrap(hook, raw.__func__, meth)))
            return None
        original = getattr(home, hook.attr, None)
        if not callable(original):
            return f"{where} not found"
        wrapper = self._wrap(hook, original, hook.attr)
        sites = [f"hyperlab.{s}" for s in hook.sites] or [
            name for name in list(sys.modules) if name.startswith("hyperlab")]
        bound = False
        for site in sites:
            mod = sys.modules.get(site) or importlib.import_module(site)
            if getattr(mod, hook.attr, None) is original:
                setattr(mod, hook.attr, wrapper)
                bound = True
        return None if bound else f"{where} is not called through {', '.join(sites)}"

    def _wrap(self, hook: Hook, fn, attr: str):
        name = hook.name
        if not hook.span:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                self.counts[name] += 1
                if getattr(result, "holds", False):
                    self.counts[name + ".hit"] += 1
                return result
            return counted

        question = None
        if name.startswith("predicate.") and attr in VERDICTS:
            params = list(inspect.signature(fn).parameters)
            question = tuple(params.index(p) if p in params else None for p in ("q", "s"))
        label = None
        if attr == "run_property":
            def label(args):
                return f"statement.{args[0] if args else '?'}"
        perf = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            key = label(args) if label else name
            outermost = all(frame[1] != key for frame in self._stack)
            index = len(self.spans)
            self.spans.append((key, 0.0, 0.0, self._stack[-1][0] if self._stack else -1))
            frame = [index, key, 0.0]
            self._stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                self._stack.pop()
                self.spans[index] = (key, start, end, self.spans[index][3])
                took = end - start
                self.calls[key] += 1
                self.self_time[key] += took - frame[2]
                if outermost:
                    self.inclusive[key] += took
                if self._stack:
                    self._stack[-1][2] += took
            self._observe(name, attr, args, question, result)
            return result
        return traced

    def _observe(self, name, attr, args, question, result) -> None:
        if name == "check":
            self.counts["violations"] += len(result)
        elif name == "enumerate":
            self.counts["found"] += len(result)
        elif name == "statement" and getattr(result, "status", None) == "SKIPPED":
            self.counts["skipped"] += 1
        elif question is not None:
            a = args[0] if args else None
            self._structures[id(a)] = a
            q, s = (args[i] if i is not None and i < len(args) else None for i in question)
            self.questions.add((id(a), attr, getattr(q, "mask", q), getattr(s, "mask", s)))
            self.counts["verdicts"] += 1

    # ------------------------------------------------------------ report

    def metrics(self) -> dict[str, float]:
        """Every metric in METRICS; unmeasured ones read 0 (see ``missing``)."""
        missing = self.missing()
        return {name: 0 if name in missing else value(self)
                for name, (_, _, value) in METRICS.items()}

    def missing(self) -> dict[str, str]:
        """Unmeasured metric -> reason."""
        out = {}
        for metric, (_, needs, _) in METRICS.items():
            reasons = [self.unmeasured[h] for h in needs if h in self.unmeasured]
            if reasons:
                out[metric] = "; ".join(reasons)
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "spans": self.spans}, fh)
