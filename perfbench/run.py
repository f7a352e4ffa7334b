"""Benchmark of the twospeed laboratory: certify, evolve and refine workloads.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload certify --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

One run measures one workload in its own process, so ``peak_rss_mb``
belongs to that workload.  BLAS and OpenMP are pinned to one thread
before NumPy is imported.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  ``attempted`` counts the field draws the
run judges, a fixed number per workload, and ``failed`` the draws whose
op failed; the timed loop repeats those draws, so both counts depend on
the seed alone.  ``--workload all`` runs every workload in a child
process and prints one table; ``failed_frac`` is ``failed / attempted``.

End-to-end metrics (``--trace 0``):

``op_s``
    median wall seconds per op over every op of the run, repeats
    included (the op count is printed before the result line).
``setup_s``
    import plus config parse plus one warm-up op at a small size,
    before the first timed op; the median of this process and
    ``SETUP_PROBES`` fresh processes.
``peak_rss_mb``
    peak resident set of this process.

A traced run (``--trace 1``) first runs untraced ops for half of
``--seconds``, then traced ops on the same draws for the other half;
each half judges every draw once, and the two verdicts must agree.
It prints the per-layer metrics, ``trace.overhead_s`` (median traced
minus median untraced ``op_s``) and the largest self times, and writes
every span to ``.perfbench_out/trace-<workload>-<seed>.json``.
"""

import time

START = time.perf_counter()

import os  # noqa: E402

THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("certify", "evolve", "refine")

#: Fresh processes that repeat the set-up, besides this one.
SETUP_PROBES = 4
CHILD_TIMEOUT_S = 170


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def set_up(name: str, seed: int, workdir: Path):
    """Import the program, parse a generated config and run one small op.

    Returns the workload object and the seconds since this process
    started executing this file.
    """
    sys.path.insert(0, str(SRC))
    import numpy as np

    import twospeed
    import workloads

    if not Path(twospeed.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"twospeed imported from {twospeed.__file__}, not from {SRC}")
    small = workloads.WORKLOADS[name](small=True)
    inputs = small.prepare(workloads.draw_fields(np.random.default_rng(seed)), workdir / "warmup")
    twospeed.cli.load_config(workdir / "warmup" / "run.yaml")
    workloads.run_op(small, inputs)  # a failing op is counted by the timed loop, not here
    shutil.rmtree(workdir / "warmup")
    return workloads.WORKLOADS[name](), time.perf_counter() - START


def probe_setup(name: str, seed: int) -> list:
    """Set-up seconds of ``SETUP_PROBES`` fresh processes, run one after another."""
    samples = []
    for _ in range(SETUP_PROBES):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(seed), "--seconds", "0", "--setup-probe"]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def measure(workload, seed: int, seconds: float, workdir: Path, tracer=None) -> dict:
    """Closed loop of ops; op ``k`` uses draw ``k % workload.draws`` of ``seed``.

    The first ``workload.draws`` ops judge one draw each and always run;
    ``attempted`` and ``failed`` count them, so they depend on the seed
    alone.  After that the loop repeats the draws while one more op of
    median length still fits in ``seconds``.  A repeat that reaches
    another verdict than the first op on its draw is counted as wrong.
    """
    import numpy as np

    import workloads

    rng = np.random.default_rng(seed)
    draws = [workloads.draw_fields(rng) for _ in range(workload.draws)]
    times, verdicts, wrong, details = [], [], 0, []
    start = time.perf_counter()
    while len(times) < len(draws) or time.perf_counter() - start + statistics.median(times) <= seconds:
        k = len(times)
        inputs = workload.prepare(draws[k % len(draws)], workdir / f"op{k}")
        if tracer:
            tracer.begin_op(k)
        elapsed, result, error = workloads.run_op(workload, inputs)
        if tracer:
            tracer.end_op()
        if error:
            outcome = workloads.Outcome(True, False, error)
        else:
            outcome = workload.check(inputs, result)
        shutil.rmtree(workdir / f"op{k}")
        times.append(elapsed)
        wrong += outcome.wrong
        if k < len(draws):
            verdicts.append(outcome.failed)
            if outcome.detail:
                details.append(f"draw {k}: {outcome.detail}")
        elif outcome.failed != verdicts[k % len(draws)]:
            wrong += 1
            details.append(f"op {k} repeats draw {k % len(draws)} but failed={outcome.failed}: {outcome.detail}")
    return {"times": times, "attempted": len(verdicts), "failed": sum(verdicts), "wrong": wrong, "details": details}


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "threads": THREADS,
    }


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_workload(args) -> int:
    workdir = OUT / f"{args.workload}-{os.getpid()}"
    try:
        workload, own_setup = set_up(args.workload, args.seed, workdir)
        if args.setup_probe:
            print(repr(own_setup))
            return 0
        print("env " + json.dumps(environment(), sort_keys=True))
        if not args.trace:
            setup = statistics.median([own_setup] + probe_setup(args.workload, args.seed))
            run = measure(workload, args.seed, args.seconds, workdir)
            metrics = {
                "op_s": metric(statistics.median(run["times"]), "s"),
                "setup_s": metric(setup, "s"),
                "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            }
            runs = [run]
        else:
            trace_path = OUT / f"trace-{args.workload}-{args.seed}.json"
            metrics, runs = traced(workload, args.seed, args.seconds, workdir, trace_path)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    # A traced run judges the same draws twice; the verdicts must agree.
    attempted, failed = runs[0]["attempted"], runs[0]["failed"]
    wrong = sum(run["wrong"] for run in runs) + sum(run["failed"] != failed for run in runs)
    for run in runs:
        print("op seconds: " + " ".join(f"{t:.4f}" for t in run["times"]))
        for line in run["details"]:
            print(line)
    ops = sum(len(run["times"]) for run in runs)
    print(f"{args.workload}: {ops} ops on {attempted} draws, failed_frac {failed / attempted:.3f} ({failed}/{attempted})")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": wrong == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def traced(workload, seed: int, seconds: float, workdir: Path, trace_path: Path):
    """Untraced ops for half of ``seconds``, then traced ops on the same draws.

    Returns the per-layer metrics and the two runs; writes every span
    and the median self time per function to ``trace_path``.
    """
    import tracer as tracing

    plain = measure(workload, seed, seconds / 2.0, workdir)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        run = measure(workload, seed, seconds / 2.0, workdir, tracer)
    finally:
        tracer.uninstall()
    layers, self_times = tracing.layer_metrics(tracer)
    layers["trace.overhead_s"] = statistics.median(run["times"]) - statistics.median(plain["times"])
    top = sorted(self_times.items(), key=lambda kv: -kv[1])[:5]
    print("largest self time per op: " + ", ".join(f"{k} {v:.4g} s" for k, v in top))
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    trace_path.write_text(
        json.dumps({"environment": environment(), "self_s": self_times, "spans": tracer.spans}),
        encoding="utf-8",
    )
    metrics = {name: metric(value, tracing.unit(name)) for name, value in layers.items()}
    return metrics, [plain, run]


def run_all(args) -> int:
    """Every workload in its own child process; one summary table."""
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(f"{'workload':10s} {'failed_frac':>12s} " + " ".join(f"{m:>14s}" for m in results["certify"]["metrics"]))
    for name, res in results.items():
        frac = res["failed"] / res["attempted"]
        values = " ".join(f"{m['value']:>11.4g} {m['unit']:<2s}" for m in res["metrics"].values())
        print(f"{name:10s} {frac:12.3f} {values}")
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "twospeed" / "__init__.py").is_file():
        print(f"no twospeed sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
