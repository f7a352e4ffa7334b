"""Self-check of the benchmark: tracing coverage and the no-program exit.

Run from the root of a checkout::

    python3 -m pytest -q perfbench

A traced run must report every per-layer metric named in
``BENCHMARK.json``, and every function a metric is built from must be
bound somewhere, so that a refactor that moves a call site fails here
instead of reading 0.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_metric_functions_are_bound_and_restored():
    originals = {key: fn for key, fn in tracing.public_functions().values()}
    tracer = tracing.Tracer()
    tracer.install()  # raises if a metric function is bound nowhere
    tracer.uninstall()
    assert all(tracer.bindings[key] for key in tracing.METRIC_FUNCTIONS)
    assert {key: fn for key, fn in tracing.public_functions().values()} == originals


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_run_reports_every_per_layer_metric(name, tmp_path):
    workload = workloads.WORKLOADS[name](small=True)
    metrics, runs = run.traced(workload, 0, 0.0, tmp_path / "ops", tmp_path / "trace.json")
    missing = sorted(m["name"] for m in BENCHMARK["per_layer"] if m["name"] not in metrics)
    assert not missing, f"per-layer metrics missing from a traced {name} run: {missing}"
    assert all(r["wrong"] == 0 for r in runs)
    assert json.loads((tmp_path / "trace.json").read_text(encoding="utf-8"))["spans"]
    if name != "certify":
        assert metrics["spectral.dense_svd_calls"]["value"] == 0


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "evolve", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
