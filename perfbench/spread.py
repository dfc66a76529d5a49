"""Run one workload on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload cap_sweep --seeds 1-10
    python3 perfbench/spread.py --workload cap_sweep --seeds 1-10 --trace 1

For every metric it prints the median over the seeds, the quartiles as
``statistics.quantiles(values, n=4)`` gives them, and the spread: the
distance between the quartiles as a share of the median. For end-to-end
metrics the spread is compared with the metric's bound in BENCHMARK.json;
a benchmark is steady when every spread other than setup_s's stays below a
third of its bound. The raw results go to perfbench/out/.
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


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise SystemExit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8-9")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    results = []
    for seed in parse_seeds(args.seeds):
        result = run(args.workload, seed, spec["run_seconds"], args.trace)
        results.append({"seed": seed, **result})
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", flush=True)

    summary = {}
    steady = True
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        spread = (q3 - q1) / abs(median) if median else float("nan")
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s" and not spread < bound / 3:
            flag = "  above a third of the bound"
            steady = False
        summary[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread, "bound": bound}
        bound_text = "" if bound is None else f" bound {bound}"
        print(f"{name:36s} median {median:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  spread {spread:.4f}"
              f"{bound_text}{flag}")

    out = HERE / "out"
    out.mkdir(exist_ok=True)
    path = out / f"spread-{args.workload}-trace{args.trace}.json"
    path.write_text(json.dumps({"workload": args.workload, "trace": args.trace,
                                "runs": results, "summary": summary}, indent=1))
    print(f"raw results in {path.relative_to(ROOT)}")
    all_correct = all(r["correct"] for r in results)
    return 0 if all_correct and (steady or args.trace) else 1


if __name__ == "__main__":
    sys.exit(main())
