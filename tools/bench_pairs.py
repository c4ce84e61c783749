"""Alternating parent/change benchmark pairs, summarised as one JSON file.

Usage, from anywhere:

    python3 tools/bench_pairs.py --parent DIR --change DIR --out BENCH_N.json \
        --workload theorems:10 --workload validate:4 --first-seed 11

DIR is a checkout root (for example made with ``git archive``).  Both
checkouts must resolve to paths of equal length, since the path length
alone has moved ``theorems`` timings; unequal lengths are a usage error.  Each pair runs ``perfbench/run.py`` once in each
checkout, on the same seed and ``--seconds``, the side that runs first
alternating from pair to pair.  Afterwards one traced round per checkout
(``--trace 1``) records every per-layer metric under ``traced``: the call
counts, which repeat exactly, and one round's seconds.  The side traced
first alternates from workload to workload and is kept as
``traced_order``, so host drift between the two traced rounds shows as
an order effect rather than as a layer change.  PAIRS must be at least 2,
since the quartiles need two runs a side.

For every end-to-end metric of BENCHMARK.json the output gives each side's
median and quartiles, the ratio of the medians, the pairs the change won
(ties count for neither) and a verdict (see ``verdict``); it also keeps
every run's raw values and, per side, every run's round count.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def run(root: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One perfbench run in ``root``: the JSON object it prints last, with
    the run's round count and unmeasured metrics from its record file.  A
    failed run raises with the last 2,000 characters of its stderr."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(command, cwd=root, capture_output=True, text=True)
    if proc.returncode:
        raise RuntimeError(f"{' '.join(command)} in {root} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((root / ".perfbench_work" / "results" /
                         f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return {**result, "rounds": record["rounds"], "unmeasured": record["unmeasured"]}


def workload_spec(text: str) -> tuple[str, int]:
    """NAME:PAIRS, checked before any run starts."""
    name, _, pairs = text.partition(":")
    if not name or not pairs.isdigit() or int(pairs) < 2:
        raise argparse.ArgumentTypeError(
            f"expected NAME:PAIRS with PAIRS >= 2, got {text!r}")
    return name, int(pairs)


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def verdict(summary: dict, higher: bool, bound: float, failed: dict) -> str:
    """One metric's verdict from its ``summarise`` entry, by its ``bound``;
    ``failed`` is each side's share of failed operations over its runs.

    - "gain": the change failed no larger share of operations than the
      parent, won at least 9 of 10 pairs, and its median is better than the
      parent's by more than the parent's interquartile range;
    - "worse": the change's median is worse by more than ``bound`` times the
      parent's median;
    - "unresolved": the parent's interquartile range exceeds ``bound`` times
      its median, so a move within the bound cannot be told from spread,
      unless every change run is better than every parent run;
    - "no worse": anything else.
    """
    sign = 1 if higher else -1
    parent, change, values = summary["parent"], summary["change"], summary["values"]
    iqr, median = parent["q3"] - parent["q1"], parent["median"]
    better_by = sign * (change["median"] - median)
    if (failed["change"] <= failed["parent"]
            and 10 * summary["wins"] >= 9 * len(values["parent"]) and better_by > iqr):
        return "gain"
    if -better_by > bound * median:
        return "worse"
    if (iqr > bound * median
            and min(sign * v for v in values["change"]) <= max(sign * v for v in values["parent"])):
        return "unresolved"
    return "no worse"


def summarise(runs: dict, metrics: list[dict]) -> dict:
    failed = {side: sum(r["failed"] for r in runs[side]) / sum(r["attempted"] for r in runs[side])
              for side in SIDES}
    out = {}
    for metric in metrics:
        name, higher = metric["name"], metric["better"] == "higher"
        values = {side: [r["metrics"][name]["value"] for r in runs[side]]
                  for side in SIDES}
        wins = sum((c > p) if higher else (c < p)
                   for p, c in zip(values["parent"], values["change"]))
        parent, change = spread(values["parent"]), spread(values["change"])
        out[name] = {"unit": metric["unit"], "better": metric["better"],
                     "parent": parent, "change": change,
                     "ratio": change["median"] / parent["median"],
                     "wins": wins, "values": values}
        out[name]["verdict"] = verdict(out[name], higher, metric["bound"], failed)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--workload", action="append", required=True, type=workload_spec,
                        help="NAME:PAIRS with PAIRS >= 2, repeatable")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    args = parser.parse_args(argv)
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    if len(str(roots["parent"])) != len(str(roots["change"])):
        parser.error(f"--parent and --change must resolve to paths of equal length, "
                     f"got {roots['parent']} and {roots['change']}")
    metrics = json.loads((roots["change"] / "BENCHMARK.json").read_text())["end_to_end"]
    shown = metrics[0]["name"]  # the progress line shows the first end-to-end metric

    record = {"host": {"python": platform.python_version(), "machine": platform.machine(),
                       "nproc": os.cpu_count()},
              "seconds": args.seconds, "workloads": {}}
    for w, (workload, pairs) in enumerate(args.workload):
        seeds = list(range(args.first_seed, args.first_seed + pairs))
        runs = {side: [] for side in SIDES}
        for i, seed in enumerate(seeds):
            for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
                result = run(roots[side], workload, seed, args.seconds, 0)
                runs[side].append(result)
                print(f"{workload} seed={seed} {side}: {shown}="
                      f"{result['metrics'][shown]['value']:.4g} "
                      f"rounds={result['rounds']} correct={result['correct']}",
                      file=sys.stderr, flush=True)
        traced_order = SIDES if w % 2 == 0 else SIDES[::-1]
        traced = {side: run(roots[side], workload, seeds[0], 1, 1) for side in traced_order}
        record["workloads"][workload] = {
            "seeds": seeds,
            "pairs": len(seeds),
            "failed_ops": {side: sum(r["failed"] for r in runs[side]) for side in SIDES},
            "attempted_ops": {side: sum(r["attempted"] for r in runs[side]) for side in SIDES},
            # peak_rss_mb is a median over a run's rounds, and each round's
            # RSS follows its call order, drawn from the seed round by round:
            # runs with different round counts read different medians
            "rounds": {side: [r["rounds"] for r in runs[side]] for side in SIDES},
            "metrics": summarise(runs, metrics),
            "traced_order": list(traced_order),
            "traced": {
                side: {name: m["value"] for name, m in traced[side]["metrics"].items()}
                for side in SIDES},
            "traced_unmeasured": {side: traced[side]["unmeasured"] for side in SIDES},
        }
        args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
