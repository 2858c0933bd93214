#!/usr/bin/env python3
"""Repeat the benchmark over seeds and summarise the spread (A/A check).

Runs ``run.py`` once per (set, workload, seed) from the checkout root and
reports, per set, workload and end-to-end metric, the median and
quartiles of the values and the quartile spread as a share of the
median.  Two sets of the same code and seeds make an A/A pair::

    python3 perfbench/aa.py --sets 2 --seeds 1-10 --out perfbench/AA.json
"""

from __future__ import annotations

import argparse
import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import stats  # noqa: E402

UNCALIBRATED = re.compile(r"  (\S+) = \S+ \S+ \(uncalibrated (\S+)\)")


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int) -> dict:
    """One run; adds the uncalibrated figures from the human-readable lines."""
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["uncalibrated"] = {
        m.group(1): float(m.group(2))
        for m in map(UNCALIBRATED.match, lines) if m
    }
    return result


def summarise(values: list[float]) -> dict:
    q1, med, q3 = stats.quartiles(values)
    return {"q1": q1, "median": med, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report: dict = {"seconds": args.seconds, "seeds": _seeds(args.seeds), "sets": []}
    for s in range(args.sets):
        current: dict = {}
        for workload in args.workloads.split(","):
            runs = [run_once(workload, seed, args.seconds) for seed in report["seeds"]]
            if not all(r["correct"] for r in runs):
                print(f"set {s} {workload}: a run reported correct=false")
            metrics = {}
            for name in runs[0]["metrics"]:
                values = [r["metrics"][name]["value"] for r in runs]
                raw = [r["uncalibrated"][name] for r in runs]
                metrics[name] = {**summarise(values), "values": values,
                                 "uncalibrated": {**summarise(raw), "values": raw}}
            current[workload] = metrics
            for name, m in metrics.items():
                flag = "" if m["spread"] < bounds[name] / 3 else "  <-- over bound/3"
                if name == "setup_s":
                    flag = ""
                print(f"set {s} {workload:15s} {name:18s} median {m['median']:12.5g} "
                      f"spread {m['spread']:.4f} (bound {bounds[name]}, uncalibrated "
                      f"{m['uncalibrated']['spread']:.4f}){flag}", flush=True)
        report["sets"].append(current)
    if args.sets > 1:
        first, second = report["sets"][0], report["sets"][-1]
        report["drift"] = {
            w: {n: second[w][n]["median"] / first[w][n]["median"] - 1.0
                for n in first[w]} for w in first
        }
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
