"""capspectra benchmark: run one workload for a while and print its metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload disk_oracle --seed 1 --seconds 40 --trace 0

The workloads are described in perfbench/README.md and built in
workloads.py. A run

1. pins every BLAS to one thread, before numpy is imported;
2. imports capspectra from ``src/`` of this checkout, and fails with a
   non-zero exit code, printing no result, when it is not there;
3. with ``--trace 0``, times ``SETUP_REPEATS`` imports of the package in
   fresh interpreters (``setup_s``) before the passes, and as many after;
4. runs a warm-up pass (the workload at tiny sizes), left out of all figures;
5. runs timed passes for ``--seconds``: at least one, and another only
   while it is expected to end within that time. With
   ``--trace 1`` untraced and traced passes alternate, and the run
   reports the per-layer metrics of the traced passes (layers.py);
6. checks every call (workloads.py) and compares each pass's outputs
   byte for byte with the first pass's;
7. prints a readable summary, then, as its last line, one JSON object with
   the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

A failed call is counted, never fatal: ``failed`` counts calls that
raised, exited non-zero, failed a check or printed other bytes than in
the first pass. The spans of a traced run, with the environment, are
written to perfbench/out/.
"""

from __future__ import annotations

import os

# One BLAS thread. It must be set before numpy is first imported: at two
# threads the disk solve on a two-core machine got slower and noisier.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import layers  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: fresh-interpreter imports timed for setup_s before the passes, and again
#: after them, so that the median spans the run rather than one moment.
SETUP_REPEATS = 7
IMPORT_PROBE = "import sys; sys.path.insert(0, sys.argv[1]); import capspectra"

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}


def import_package():
    """capspectra from this checkout's src/, never from an installed copy."""
    init = SRC / "capspectra" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"error: {init.relative_to(ROOT)} not found; run from a capspectra checkout")
    sys.path.insert(0, str(SRC))
    import capspectra
    import capspectra.cli

    if Path(capspectra.__file__).resolve() != init.resolve():
        raise SystemExit(f"error: imported capspectra from {capspectra.__file__}, not {init}")
    return capspectra


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu,
        "commit": git_commit(),
    }


def measure_setup() -> list[float]:
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)], check=True, cwd=ROOT,
                       stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times


class Runner:
    """Runs passes of one workload, counting and describing failed calls."""

    def __init__(self):
        self.first: dict[str, bytes] = {}
        self.attempted = 0
        self.failures: list[str] = []
        self.op_times: dict[str, list[float]] = {}
        self.accuracy: dict[str, float] = {}

    def run_pass(self, ops, tracer=None, record=True) -> float:
        t_pass = time.perf_counter()
        for index, op in enumerate(ops):
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    output, accuracy = op.run()
                else:
                    tracer.op = index
                    with tracer.span("op." + op.name):
                        output, accuracy = op.run()
                error = None
            except Exception as exc:  # a crashing call is a failed op, not a failed run
                error = f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - t0
            if not record:
                continue
            self.attempted += 1
            self.op_times.setdefault(op.name, []).append(elapsed)
            if error is None:
                expected = self.first.setdefault(op.name, output)
                if output != expected:
                    error = "output differs from the first pass"
                else:
                    for label, value in accuracy.items():
                        self.accuracy.setdefault(label, value)
            if error is not None:
                self.failures.append(f"{op.name}: {error}")
        return time.perf_counter() - t_pass

    def accuracy_metric(self, labels) -> float:
        values = [self.accuracy[label] for label in labels if label in self.accuracy]
        return min(values) if len(values) == len(labels) else 0.0


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def run_timed(runner, workload, seconds):
    """Passes until another one would end after ``seconds``; at least one."""
    walls = []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start + statistics.median(walls) <= seconds:
        walls.append(runner.run_pass(workload.ops))
    return walls


def run_traced(runner, workload, seconds, cs):
    plain, traced, tracers = [], [], []
    start = time.perf_counter()
    while not traced or (time.perf_counter() - start + statistics.median(plain)
                         + statistics.median(traced) <= seconds):
        # alternate which of the pair runs first, so that neither side
        # always gets the first (slower) pass after the warm-up
        tracer = layers.Tracer()
        for traced_now in (False, True) if len(traced) % 2 == 0 else (True, False):
            if traced_now:
                with tracer.installed(cs):
                    traced.append(runner.run_pass(workload.ops, tracer))
            else:
                plain.append(runner.run_pass(workload.ops))
        tracers.append(tracer)
    per_pass = [layers.layer_metrics(t.spans) for t in tracers]
    metrics = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    try:
        stages = layers.replay_stages(getattr(cs, "_linalg", None), tracers[0].largest)
    except Exception as exc:  # a changed solver API makes the stages absent, not failed
        print(f"# linalg.stage replay raised {type(exc).__name__}: {exc}")
        stages = None
    if stages is None:
        print("# linalg.stage.*: absent, the dense-chain functions are not in capspectra._linalg")
    else:
        metrics.update(stages)
        print(f"# linalg.stage.*: replayed on N={tracers[0].largest[0]}")
    return metrics, plain, traced, tracers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny meshes: a self-check of the harness in a few seconds")
    args = parser.parse_args(argv)

    cs = import_package()
    workload = workloads.build(cs, args.workload, args.seed, tiny=args.tiny)
    env = environment()
    print("# env " + json.dumps(env))
    print(f"# workload {workload.name} seed {args.seed}: " + ", ".join(op.name for op in workload.ops))

    setup = None if args.trace else measure_setup()
    runner = Runner()
    runner.run_pass(workload.warmup, record=False)

    if args.trace:
        metrics, plain, traced, tracers = run_traced(runner, workload, args.seconds, cs)
        print(f"# passes: {len(plain)} untraced, {len(traced)} traced; per-layer values are "
              f"medians over the traced passes")
        OUT.mkdir(exist_ok=True)
        dump = {"env": env, "workload": workload.name, "seed": args.seed,
                "passes": [[s.as_dict() for s in t.spans] for t in tracers]}
        path = OUT / f"{workload.name}-seed{args.seed}-spans.json"
        path.write_text(json.dumps(dump))
        print(f"# spans written to {path.relative_to(ROOT)}")
        result = {name: {"value": value, "unit": UNITS[name]} for name, value in metrics.items()}
    else:
        walls = run_timed(runner, workload, args.seconds)
        setup += measure_setup()
        calls = [t for times in runner.op_times.values() for t in times]
        values = {
            "wall_s": statistics.median(walls),
            "op_p50_s": statistics.median(calls),
            # The upper quartile of all calls: a run holds 4 to about 32 calls, too
            # few for any percentile above the median to have ten beyond it.
            "op_tail_s": quartiles(calls)[2],
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        for name, labels in workload.accuracy.items():
            values[name] = runner.accuracy_metric(labels)
        samples = {"wall_s": walls, "op latency": calls, "setup_s": setup}
        samples.update((f"op {name}", times) for name, times in runner.op_times.items())
        for name, data in samples.items():
            q1, q2, q3 = quartiles(data)
            print(f"# {name}: median {q2:.4f} s, quartiles {q1:.4f}..{q3:.4f} s, n={len(data)}")
        result = {name: {"value": value, "unit": UNITS[name]} for name, value in values.items()}

    for failure in runner.failures:
        print(f"# FAILED {failure}")
    print(json.dumps({
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": result,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
