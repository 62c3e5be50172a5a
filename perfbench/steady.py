"""Steadiness check: run every workload repeatedly and report spreads.

    python3 perfbench/steady.py --runs 10 [--workloads wire_warm,live_churn]
                                [--seconds 12] [--traced]

Round ``i`` runs every workload once with ``--seed i``; odd rounds take
the workloads in order, even rounds in reverse.  For each end-to-end
metric it prints the median, quartiles and spread -- (Q3 - Q1) / median,
quartiles as ``statistics.quantiles(values, n=4)`` gives them -- next
to the bound ``BENCHMARK.json`` sets, then attempted/failed operations
per kind.  ``--traced`` adds one traced run per workload and round and
prints each metric's tracing overhead: the traced median over the
untraced median, minus one.  Raw results go to
``.perfbench/steady-<time>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).with_name("run.py")


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=str(ROOT), timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} failed:\n"
                           f"{proc.stderr[-3000:]}")
    kinds = next((json.loads(line[len("per_kind "):]) for line in lines
                  if line.startswith("per_kind ")), {})
    result = json.loads(lines[-1])
    result["per_kind"] = kinds
    return result


def cpu_times() -> list[int]:
    """The aggregate ``cpu`` line of /proc/stat (user ... steal)."""
    with open("/proc/stat") as stat:
        return [int(v) for v in stat.readline().split()[1:9]]


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args(argv)
    chosen = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    results: dict[str, list[dict]] = {w: [] for w in chosen}
    traced: dict[str, list[dict]] = {w: [] for w in chosen}
    started = time.time()
    cpu_before = cpu_times()
    for i in range(args.runs):
        seed = args.first_seed + i
        order = chosen if i % 2 == 0 else chosen[::-1]
        for workload in order:
            results[workload].append(run_once(workload, seed, args.seconds, 0))
            if args.traced:
                traced[workload].append(
                    run_once(workload, seed, args.seconds, 1))
            print(f"[{time.time() - started:6.0f}s] {workload} seed {seed} "
                  "done", file=sys.stderr, flush=True)

    cpu = [b - a for a, b in zip(cpu_before, cpu_times())]
    steal = cpu[7] / sum(cpu) if sum(cpu) else 0.0
    print(f"machine steal time over the runs: {steal:.2%} of CPU time")
    worst = 0.0
    for workload in chosen:
        runs = results[workload]
        print(f"\n== {workload}: {len(runs)} runs")
        print(f"{'metric':28s} {'median':>11s} {'q1':>11s} {'q3':>11s} "
              f"{'spread':>7s} {'bound':>6s}" +
              (f" {'traced':>8s}" if args.traced else ""))
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            med, q1, q3, sp = spread(values)
            flag = "" if name == "setup_s" or sp <= bound / 3 else " <-- wide"
            if name != "setup_s":
                worst = max(worst, sp / bound)
            extra = ""
            if args.traced:
                tvals = [r["metrics"][f"traced.{name}"]["value"]
                         for r in traced[workload]]
                extra = f" {statistics.median(tvals) / med - 1:+8.1%}"
            print(f"{name:28s} {med:11.4f} {q1:11.4f} {q3:11.4f} "
                  f"{sp:7.1%} {bound:6.2f}{extra}{flag}")
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        print(f"failed share per run: {shares}")
        kinds: dict[str, list[int]] = {}
        for r in runs:
            for kind, row in r["per_kind"].items():
                total = kinds.setdefault(kind, [0, 0])
                total[0] += row["attempted"]
                total[1] += row["failed"]
        print("attempted/failed per kind: " + ", ".join(
            f"{k} {a}/{f}" for k, (a, f) in sorted(kinds.items())))
    print(f"\nwidest spread (setup_s aside): {worst:.2f} of its bound")
    out = ROOT / ".perfbench" / f"steady-{int(started)}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({"untraced": results, "traced": traced}))
    print(f"raw results: {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
