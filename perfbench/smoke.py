#!/usr/bin/env python3
"""Smoke test of the benchmark itself, in about half a minute.

    python3 perfbench/smoke.py

For each workload, in the tiny configuration (one instance, a tiny budget):
every metric is printed with a unit, untraced and traced, and the result
line has the right keys; a ledger with one wrong value makes the run fail.
Last, the benchmark copied without the program must exit non-zero without a
result line.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import run

# the tiny instance of each workload and where the ledger holds its answer
WRONG = {
    "verify": ("verify", "rows", "P(4)", 1),  # index 1: the solver's value
    "frontier": ("frontier", "values", "P(6)", None),
    "bounds": ("bounds", "totaldom", "P(8)", None),
}


def bench(*extra: str, cwd=run.ROOT, script=run.HERE / "run.py") -> tuple[int, list[str]]:
    cmd = [sys.executable, str(script), "--seed", "1", "--seconds", "1", *extra]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc.returncode, proc.stdout.splitlines()


def check(cond: bool, message: str) -> None:
    if not cond:
        sys.exit(f"smoke FAILED: {message}")


def main() -> None:
    run.OUT.mkdir(parents=True, exist_ok=True)
    for workload in run.WORKLOADS:
        for trace, names in ((0, run.END_TO_END), (1, run.PER_LAYER)):
            code, lines = bench("--workload", workload, "--trace", str(trace), "--tiny")
            check(code == 0, f"{workload} trace={trace} exited {code}: {lines[-3:]}")
            result = json.loads(lines[-1])
            check(sorted(result) == ["attempted", "correct", "failed", "metrics"],
                  f"{workload}: result keys {sorted(result)}")
            check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                  f"{workload} trace={trace}: {result}")
            check({k: v["unit"] for k, v in result["metrics"].items()} == names,
                  f"{workload} trace={trace}: result metrics differ from the declared set")
            printed = {}
            for line in lines:
                if line.startswith("metric "):
                    parts = line.split()
                    float(parts[2])
                    printed[parts[1]] = parts[3]
            named = set(names)
            if not trace:
                named |= {"instance_p50_s", "instance_tail_s", "failed_frac"}
                if workload == "verify":
                    named.add("replay_s")
            check(named <= set(printed) and all(printed.values()),
                  f"{workload} trace={trace}: not printed with a unit: "
                  f"{sorted(named - set(printed))}")
        print(f"ok {workload}: every metric printed with a unit")

        ledger = json.loads((run.HERE / "ledger.json").read_text(encoding="utf-8"))
        section, table, key, index = WRONG[workload]
        entries = ledger[section][table]
        if index is None:
            entries[key] += 1
        else:
            entries[key][index] += 1
        wrong = run.OUT / "smoke-ledger.json"
        wrong.write_text(json.dumps(ledger), encoding="utf-8")
        code, lines = bench("--workload", workload, "--trace", "0", "--tiny", "--ledger", str(wrong))
        result = json.loads(lines[-1])
        check(code != 0 and not result["correct"] and result["failed"] >= 1,
              f"{workload}: a wrong ledger value was not reported: code {code}, {result}")
        check(any(line.startswith("FAILED ") for line in lines), f"{workload}: no FAILED line")
        wrong.unlink()
        print(f"ok {workload}: a wrong ledger value is reported as failed")

    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    code, lines = bench("--workload", "verify", "--trace", "0",
                        cwd=bare, script=bare / "perfbench" / "run.py")
    shutil.rmtree(bare)
    check(code != 0 and not any(line.startswith("{") for line in lines),
          f"without the program the benchmark exited {code} with {lines[-1:]}")
    print("ok: without the program the benchmark fails without a result")


if __name__ == "__main__":
    main()
