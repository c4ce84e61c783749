"""hyperlab benchmark: four CLI workloads, checked answers, a traced run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload theorems --seed 1 --seconds 20 --trace 0

One closed loop: each CLI call starts after the previous one returns, with
no threads and no fan-out.  The inputs are generated from the seed before
timing starts.  A round runs the workload's calls once, in an order drawn
from the seed, in a fresh interpreter (perfbench/child.py), so the
package's module-level caches never carry over from one round to the next.  Rounds repeat until ``--seconds``
are used up (see ``measure``); there is always at least one.  Between them,
extra interpreters only import the package and read their inputs, to time
set-up.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of perfbench/layers.py together with the tracing overhead (traced
and untraced rounds alternate).  Every answer is checked against
perfbench/reference.py outside the timed calls; a wrong answer, an
unexpected exit code or a raised exception fails the op.  The last line of
stdout is one JSON object; the full record of the run, seed and host
included, goes to .perfbench_work/results/.  ``--smoke`` swaps in tiny
inputs (ring:Z4 and paper-2-4) for the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import reference as ref
import workloads as wl

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 3  # set-up-only interpreters before each round and after the last
CHILD_LIMIT_S = 170.0
WORKLOADS = ("theorems", "validate", "ideals", "mutants")


@dataclass
class Plan:
    """The CLI calls of one round, with a checker and an op count for each."""

    calls: list = field(default_factory=list)
    checks: list = field(default_factory=list)
    ops: list = field(default_factory=list)

    def add(self, argv, check, ops=1):
        self.calls.append(argv)
        self.checks.append(check)
        self.ops.append(ops)


class Replay:
    """Witness replay through the package under test (outside timing)."""

    def __init__(self, src: Path) -> None:
        sys.path.insert(0, str(src))
        import hyperlab
        self.hyperlab = hyperlab

    @functools.lru_cache(maxsize=None)
    def load(self, path):
        return self.hyperlab.load_structure(path)

    def violation(self, axiom, witness, detail):
        return self.hyperlab.AxiomViolation(axiom, witness, detail)

    def replay(self, structure, violation):
        return self.hyperlab.replay(structure, violation)


def _write_doc(work: Path, a: wl.Structure, tag: str, rng: random.Random) -> str:
    path = work / f"{tag}.json"
    path.write_text(json.dumps(wl.to_document(a, rng)), encoding="utf-8")
    return str(path)


def plan_workload(name: str, seed: int, smoke: bool, work: Path, src: Path) -> Plan:
    rng = random.Random(f"{name}:{seed}")
    plan = Plan()
    if name == "theorems":
        # The corpus is fixed: its order alone moved the run time by 5-10%.
        corpus = wl.SMOKE_CORPUS if smoke else wl.THEOREMS_CORPUS
        plan.add(["theorems", "--json", "--corpus", ",".join(corpus)],
                 functools.partial(ref.check_theorems, corpus),
                 ref.theorem_instances(corpus))
    elif name in ("validate", "ideals"):
        names = wl.SMOKE_DOCS if smoke else (
            wl.VALIDATE_DOCS if name == "validate" else wl.IDEALS_DOCS)
        check = ref.check_valid if name == "validate" else ref.check_ideals
        for i, doc_name in enumerate(names):
            a = wl.renamed(wl.build(doc_name), rng)
            path = _write_doc(work, a, f"doc{i}", rng)
            plan.add([name, "--json", path], functools.partial(check, a))
    elif name == "mutants":
        replay = Replay(src)
        for i, a in enumerate(wl.mutants(wl.SMOKE_MUTANTS if smoke else wl.MUTANTS, rng)):
            path = _write_doc(work, a, f"mutant{i}", rng)
            expected = ref.failing_axioms(a)
            for flags, first in (([], False), (["--first-violation"], True)):
                plan.add(["validate", *flags, "--json", path],
                         functools.partial(ref.check_violations, path, expected,
                                           first, hyperlab_api=replay))
    else:
        raise ValueError(f"unknown workload {name!r}")
    return plan


@dataclass
class Round:
    setup_s: float
    seconds: list
    rss_mb: float
    wall_s: float
    failures: list
    ops: int
    layers: dict | None = None
    unmeasured: dict | None = None
    spans: str | None = None

    @property
    def ops_per_s(self) -> float:
        return self.ops / sum(self.seconds)


class Runner:
    def __init__(self, root: Path, work: Path, started: float, rng: random.Random) -> None:
        self.root = root
        self.work = work
        self.started = started
        self.rng = rng
        # A fixed hash seed keeps set and dict layouts the same from run to run.
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0")
        self.env.pop("HYPERLAB_BUDGET", None)
        self.count = 0

    def child(self, calls, trace: bool) -> tuple[float, dict, float, float, str]:
        """Run one interpreter; returns set-up seconds, results, RSS MB, wall
        and the file its spans went to."""
        self.count += 1
        tag = self.work / f"round{self.count}"
        manifest = {"src": str(self.root / "src"), "calls": calls, "trace": trace,
                    "spans": str(tag) + ".spans.json"}
        Path(f"{tag}.manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
        with open(f"{tag}.stderr", "wb") as err:
            begin = time.monotonic()
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "child.py"), f"{tag}.manifest.json",
                 f"{tag}.results.json"],
                cwd=self.root, env=self.env, stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL, stderr=err)
            status, usage = self._wait(proc)
            wall = time.monotonic() - begin
        if status != 0:
            tail = Path(f"{tag}.stderr").read_text(errors="replace")[-2000:]
            raise RuntimeError(f"round interpreter exited with {status}:\n{tail}")
        with open(f"{tag}.results.json", encoding="utf-8") as fh:
            results = json.load(fh)
        return (results["ready"] - begin, results, usage.ru_maxrss / 1024, wall,
                manifest["spans"])

    def _wait(self, proc):
        """Reap the interpreter with its resource usage; kill it past the limit."""
        try:
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    proc.returncode = os.waitstatus_to_exitcode(status)
                    return proc.returncode, usage
                if time.monotonic() - self.started > CHILD_LIMIT_S:
                    raise RuntimeError(f"round did not finish within {CHILD_LIMIT_S} s")
                time.sleep(0.01)
        except BaseException:
            proc.kill()
            os.wait4(proc.pid, 0)
            proc.returncode = -9
            raise

    def round(self, plan: Plan, trace: bool) -> Round:
        """One interpreter over the plan's calls, in a new random order.

        The host's cores switch between a fast state and one about 1.5x
        slower, each lasting up to seconds.  In plan order, the calls of one
        base and kind run back to back and share whichever state the host is
        in then, so a percentile over calls rests on a few draws of that
        state.  Shuffled, each call meets the state on its own.
        """
        order = self.rng.sample(range(len(plan.calls)), len(plan.calls))
        setup, results, rss, wall, spans = self.child([plan.calls[i] for i in order], trace)
        failures, seconds = [], [0.0] * len(order)
        for i, call in zip(order, results["calls"]):
            argv, check, ops = plan.calls[i], plan.checks[i], plan.ops[i]
            seconds[i] = call["seconds"]
            reason = call["error"] if call["rc"] is None else check(call["rc"], call["stdout"])
            if reason:
                failures.append((" ".join(argv[:-1] + [Path(argv[-1]).name]), reason, ops))
        return Round(setup, seconds, rss, wall, failures, sum(plan.ops),
                     results.get("layers"), results.get("unmeasured"),
                     spans if trace else None)


def percentile(values, p: float) -> float:
    """Linear interpolation between closest ranks (p in [0, 100])."""
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def calibration_ms() -> float:
    """Median time of a fixed pure-Python loop, to tell a slow host apart."""
    samples = []
    for _ in range(5):
        start = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i % 7
        samples.append((time.perf_counter() - start) * 1000)
    return statistics.median(samples)


def host_metadata() -> dict:
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "calibration_ms": calibration_ms()}


def measure(runner: Runner, plan: Plan, seconds: float, trace: bool):
    """Rounds until ``seconds`` are used up, with set-up probes between them.

    Another round starts only if it would end less than half a round after
    ``seconds``, so the number of rounds is ``seconds`` / round time,
    rounded, and at least one.  Probes run before each round and after the
    last, so the set-up median covers the whole run, not one moment of it.
    """
    def probe():
        return [runner.child([], False)[0] for _ in range(SETUP_PROBES)]

    setups, plain, traced = [], [], []
    start = time.monotonic()
    while True:
        setups += probe()
        plain.append(runner.round(plan, False))
        if trace:
            traced.append(runner.round(plan, True))
        elapsed = time.monotonic() - start
        if elapsed + elapsed / len(plain) / 2 > seconds:
            break
    return setups + probe(), plain, traced


def end_to_end(setups, plain) -> dict:
    # A call's latency is its mean over the rounds; the percentiles are over calls.
    latencies = [statistics.fmean(times) for times in zip(*(r.seconds for r in plain))]
    return {
        "ops_per_s": (statistics.median(r.ops_per_s for r in plain), "1/s"),
        "op_p50_ms": (percentile(latencies, 50) * 1000, "ms"),
        "op_p90_ms": (percentile(latencies, 90) * 1000, "ms"),
        "setup_s": (statistics.median(setups + [r.setup_s for r in plain]), "s"),
        "peak_rss_mb": (statistics.median(r.rss_mb for r in plain), "MB"),
    }


def per_layer(plain, traced) -> dict:
    import layers
    out = {}
    for metric, (unit, _, _) in layers.METRICS.items():
        out[metric] = (statistics.median(r.layers[metric] for r in traced), unit)
    untraced = statistics.median(r.ops_per_s for r in plain)
    with_trace = statistics.median(r.ops_per_s for r in traced)
    out["trace.ops_per_s"] = (with_trace, "1/s")
    out["trace.untraced_ops_per_s"] = (untraced, "1/s")
    out["trace.overhead"] = (1 - with_trace / untraced, "ratio")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)
    started = time.monotonic()

    root = Path.cwd()
    src = root / "src"
    if not (src / "hyperlab" / "cli.py").is_file():
        print(f"error: no hyperlab sources under {src}; run from a checkout root",
              file=sys.stderr)
        return 2
    results_dir = root / ".perfbench_work" / "results"
    work = root / ".perfbench_work" / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    results_dir.mkdir(parents=True, exist_ok=True)
    try:
        host = host_metadata()
        plan = plan_workload(args.workload, args.seed, args.smoke, work, src)
        runner = Runner(root, work, started, random.Random(f"order:{args.workload}:{args.seed}"))
        setups, plain, traced = measure(runner, plan, args.seconds, bool(args.trace))
        if traced:
            shutil.copy(traced[-1].spans, results_dir / f"{args.workload}-spans.json")
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    rounds = plain + traced
    attempted = sum(r.ops for r in rounds)
    failed = sum(ops for r in rounds for _, _, ops in r.failures)
    metrics = per_layer(plain, traced) if traced else end_to_end(setups, plain)
    unmeasured = traced[-1].unmeasured if traced else {}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "host": host,
        "rounds": len(plain), "traced_rounds": len(traced),
        "ops_per_round": sum(plan.ops), "calls_per_round": len(plan.calls),
        "round_wall_s": [r.wall_s for r in rounds],
        "call_seconds": [r.seconds for r in plain],
        "setup_samples_s": setups + [r.setup_s for r in plain],
        "fail_ratio": failed / attempted,
        "failures": [f for r in rounds for f in r.failures][:50],
        "unmeasured": unmeasured,
        "metrics": {k: v for k, (v, _) in metrics.items()},
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    (results_dir / f"{name}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")

    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"rounds={len(plain)}+{len(traced)} ops/round={sum(plan.ops)} "
          f"calls/round={len(plan.calls)}")
    print(f"host: python={host['python']} nproc={host['nproc']} "
          f"calibration_ms={host['calibration_ms']:.2f}")
    print(f"fail_ratio={failed / attempted:.6g} ({failed}/{attempted})")
    for where, reason, _ in record["failures"][:10]:
        print(f"  FAILED {where}: {reason}")
    for metric, reason in unmeasured.items():
        print(f"  unmeasured {metric}: {reason}")
    for metric, (value, unit) in metrics.items():
        print(f"  {metric} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
