"""Self-checks of the benchmark harness, on tiny meshes.

    python3 -m pytest perfbench

Each workload runs its calls, checks, trace and JSON output in a few
seconds. These tests are outside the package's tier-1 ``testpaths``.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(HERE))
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def _bench(*args, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd, capture_output=True,
                          text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_prints_every_metric_and_passes_its_checks(workload, trace):
    proc = _bench("--workload", workload, "--seed", "7", "--seconds", "0", "--trace", str(trace),
                  "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert math.isfinite(reported["value"])
        if not trace:
            assert reported["value"] > 0


def test_run_without_the_package_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench("--workload", "cap_sweep", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_same_seed_same_inputs():
    cs = run.import_package()
    names = [[op.name for op in workloads.build(cs, "disk_oracle", seed).ops] for seed in (4, 4)]
    assert names[0] == names[1]
    with pytest.raises(ValueError):
        workloads.build(cs, "no_such_workload", 1)


def test_three_sphere_oracle_tends_to_the_flat_ball():
    # as the cap shrinks, R^2 lam_1 tends to the flat 3-ball value k^2, tan k = k
    k = workloads._bisect(lambda x: math.tan(x) - x, 4.4, 4.5)
    radius = 1e-3
    assert radius**2 * workloads.s3_cap_lambda1(radius) == pytest.approx(k * k, rel=1e-5)


def test_self_time_subtracts_direct_children_only():
    tracer = layers.Tracer()
    spans = tracer.spans
    for name, start, end, parent in [("cli.main", 0.0, 10.0, None),
                                     ("prooflab.run_identity_suite", 1.0, 9.0, 0),
                                     ("prooflab.ground_state", 2.0, 7.0, 1),
                                     ("eigensolve.solve_sector", 3.0, 6.0, 2)]:
        span = layers.Span(name, start, parent, 0)
        span.end = end
        spans.append(span)
    metrics = layers.layer_metrics(spans)
    assert metrics["cli.self_s"] == 2.0
    assert metrics["prooflab.identity_suite_self_s"] == 3.0
    assert metrics["prooflab.ground_state_self_s"] == 2.0
    assert metrics["prooflab.ground_state_sectors"] == 1
