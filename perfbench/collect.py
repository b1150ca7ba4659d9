#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 perfbench/collect.py [--workloads verify,frontier,bounds]
        [--seeds 0-9] [--seconds 10] [--traced] [--out FILE]

Runs ``run.py`` once per workload and seed, one process at a time, from the
root of the checkout. For every end-to-end metric it prints the median, the
quartiles and the spread (q3 - q1) / median, and flags a spread above a
third of the metric's bound in ``BENCHMARK.json``. ``--traced`` adds one
traced run per workload, on the first seed, for the per-layer numbers.
``--out`` writes everything, with the run metadata, as one JSON file: a
point of the BENCH trajectory.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds_from(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stdout}\n{proc.stderr}")
    meta = next((json.loads(x[5:]) for x in lines if x.startswith("meta ")), {})
    return json.loads(lines[-1]), meta


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, (q3 - q1) / med if med else 0.0


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default="verify,frontier,bounds")
    ap.add_argument("--seeds", default="0-9")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--out")
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = seeds_from(args.seeds)

    summary: dict = {"seeds": seeds, "run_seconds": seconds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds:
            result, meta = run_once(workload, seed, seconds, 0)
            runs.append(result)
            values = " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items())
            print(f"{workload} seed={seed} load={meta.get('loadavg')} {values}", flush=True)
        entry: dict = {"end_to_end": {}, "runs": runs}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3, rel = spread(values)
            steady = rel < bound / 3
            entry["end_to_end"][name] = {
                "median": med, "q1": q1, "q3": q3, "spread": rel, "bound": bound,
                "unit": runs[0]["metrics"][name]["unit"],
            }
            print(f"  {workload:<9} {name:<14} median {med:<12.6g} spread {rel:7.4f} "
                  f"bound {bound}{'' if steady else '  <-- above bound/3'}", flush=True)
        if args.traced:
            result, meta = run_once(workload, seeds[0], seconds, 1)
            entry["per_layer"] = {"seed": seeds[0], "metrics": result["metrics"]}
            summary.setdefault("meta", meta)
        summary["workloads"][workload] = entry
        summary.setdefault("meta", meta)
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
