"""Seeded inputs, ops and correctness checks of the benchmark workloads.

Each workload is a closed loop in one process: the next op starts when
the previous one returns.  A run judges the first ``draws`` field draws
of its seed, one op each, and then repeats those draws for the rest of
its time, so the count of attempted and failed ops is a function of the
seed alone.  The program receives only the generated YAML
configuration, parsed by ``twospeed.cli.load_config``.

Why these workloads (each roadmap target does most of the work in one
and little or none in another):

``certify``
    ``twospeed report`` in-process at ``n = 128`` with the README
    default settings: what a user runs.  The resolvent-gap sweep (about
    700 dense SVDs) dominates; stepping and assembly are small.
``evolve``
    ``assemble`` + implicit-trapezoid ``evolve`` at ``n = 1024`` +
    ``estimate_decay``.  Dense stepping dominates; no spectral call.
``refine``
    A grid-refinement ladder with the ODE oracle, the dense spectrum
    and the dissipativity checks on every rung: many kernel solves and
    one eigendecomposition per grid, with no sweep and no stepping.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

import twospeed
import twospeed.cli

#: Admissible box around the test fixture (b1 = 1, b2 = -1 + 0.4 sin, sigma = 1).
#: b2 <= -0.8 + sqrt(0.5**2 + 0.2**2) < 0 < b1, so every draw is non-degenerate.
BOX = {
    "b1": (0.8, 1.2),
    "b2.a": (-1.2, -0.8),
    "b2.b": (0.2, 0.5),
    "b2.c": (-0.2, 0.2),
    "sigma": (0.5, 1.5),
}

#: README default settings of the evolve, spectral and lemma stages.
README_EVOLVE = {
    "T": 10.0,
    "dt": 1.0e-3,
    "scheme": "implicit-trapezoid",
    "observe_every": 10,
    "snapshot_every": 0,
    "initial": {"type": "steady-plus-mode", "k": 1, "amplitude": 0.01},
}
README_SPECTRAL = {"lambda_max": 0, "coarse_points": 512, "refine_depth": 40, "t_grid": [0.5, 1.0, 2.0, 4.0]}
README_LEMMA = {"psi": "from-fields", "lambda_min": math.pi, "lambda_max": 200.0 * math.pi, "points": 33}

CERTIFY_N = 128
EVOLVE_N = 1024
EVOLVE_T = 0.5
EVOLVE_DT = 1e-3
REFINE_LADDER = (64, 128, 256, 512)
DISSIPATIVITY_TRIALS = 200

#: Field draws judged per run: about as many ops as a 30 s run holds at the seed commit.
DRAWS = {"certify": 3, "evolve": 6, "refine": 5}

#: Sizes of the untimed warm-up op (first-call set-up) and of the self-test.
SMALL = {"certify_n": 16, "certify_T": 0.1, "evolve_n": 16, "evolve_T": 0.1, "ladder": (16, 32), "draws": 1}

#: Correctness tolerances, fixed before measuring.
MASS_DRIFT_TOL = 1e-12
ENTROPY_UP_TOL = 1e-10
COLUMN_SUM_TOL = 1e-12
ZERO_MODE_TOL = 1e-8
DISSIPATIVITY_TOL = 1e-10
#: First-order convergence: the oracle error must at least roughly halve per rung.
MIN_REFINE_RATIO = 1.6

CERTIFY_ARTIFACTS = ("steady.csv", "spectrum.csv", "psi_sweep.csv", "timeseries.csv", "lemma.csv", "report.json")


class InputGeneratorError(RuntimeError):
    """A drawn field set failed the admissibility checks: a benchmark bug."""


@dataclass(frozen=True)
class Outcome:
    """Verdict on one op.

    ``failed`` counts the op as failed.  ``wrong`` marks output the
    program returned as valid but the benchmark's checks reject; an
    op the program itself flags (exception, non-zero exit, violated
    check) is failed but not wrong.
    """

    failed: bool
    wrong: bool
    detail: str = ""


def draw_fields(rng: np.random.Generator) -> dict:
    """One ``fields`` configuration node drawn from :data:`BOX`."""
    u = {name: float(rng.uniform(lo, hi)) for name, (lo, hi) in BOX.items()}
    fields = {
        "b1": {"kind": "constant", "value": u["b1"]},
        "b2": {"kind": "trigonometric", "a": u["b2.a"], "b": u["b2.b"], "c": u["b2.c"]},
        "sigma": {"kind": "constant", "value": u["sigma"]},
    }
    b1 = twospeed.FieldSpec.constant(u["b1"])
    b2 = twospeed.FieldSpec.trigonometric(u["b2.a"], u["b2.b"], u["b2.c"])
    sigma = twospeed.FieldSpec.constant(u["sigma"])
    for rep in (
        twospeed.validate_transport_fields(b1, b2),
        twospeed.validate_cross_section_overlap(b1, b2, sigma),
    ):
        if not rep.passed:
            raise InputGeneratorError(f"inadmissible draw {fields}: {rep.detail}")
    return fields


def write_config(workdir: Path, fields: dict, n: int, stages: dict) -> Path:
    """Write the run configuration the program receives; ``stages`` adds sections."""
    workdir.mkdir(parents=True, exist_ok=True)
    path = workdir / "run.yaml"
    config = dict(stages, fields=fields, grid={"n": n}, output={"directory": "out"})
    path.write_text(yaml.safe_dump(config, sort_keys=True), encoding="utf-8")
    return path


class Certify:
    name = "certify"

    def __init__(self, small: bool = False) -> None:
        self.n = SMALL["certify_n"] if small else CERTIFY_N
        self.draws = SMALL["draws"] if small else DRAWS[self.name]
        evolve = dict(README_EVOLVE, T=SMALL["certify_T"]) if small else README_EVOLVE
        self.stages = {"evolve": evolve, "spectral": README_SPECTRAL, "lemma": README_LEMMA}

    def prepare(self, fields: dict, workdir: Path):
        return write_config(workdir, fields, self.n, self.stages), workdir / "out"

    def run(self, inputs):
        config, out = inputs
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            return twospeed.cli.main(["report", "--config", str(config), "--out", str(out)])

    def check(self, inputs, exit_code) -> Outcome:
        _, out = inputs
        missing = [name for name in CERTIFY_ARTIFACTS if not (out / name).is_file()]
        if exit_code not in (0, 4):
            return Outcome(True, False, f"report exited {exit_code}")
        if missing:
            return Outcome(True, True, f"missing artifacts {missing}")
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        violated = report["violated"]
        if (exit_code == 0) != (not violated) or report["passed"] != (not violated):
            return Outcome(True, True, f"exit {exit_code} disagrees with violated={violated}")
        return Outcome(bool(violated), False, f"violated={violated}" if violated else "")


def _specs(config: Path):
    cfg = twospeed.cli.load_config(config)
    return cfg.b1, cfg.b2, cfg.sigma


class Evolve:
    name = "evolve"

    def __init__(self, small: bool = False) -> None:
        self.n = SMALL["evolve_n"] if small else EVOLVE_N
        self.draws = SMALL["draws"] if small else DRAWS[self.name]
        self.T = SMALL["evolve_T"] if small else EVOLVE_T

    def prepare(self, fields: dict, workdir: Path):
        return _specs(write_config(workdir, fields, self.n, {}))

    def run(self, inputs):
        b1, b2, sigma = inputs
        gen = twospeed.assemble(b1, b2, sigma, twospeed.Grid(self.n))
        p0 = twospeed.steady_plus_mode(gen, 1, 0.01)
        series = twospeed.evolve(gen, p0, self.T, EVOLVE_DT, scheme="implicit-trapezoid", observe_every=10)
        return series, twospeed.estimate_decay(series)

    def check(self, inputs, result) -> Outcome:
        series, fit = result
        problems = []
        drift = float(np.abs(series.mass - series.mass[0]).max())
        if drift > MASS_DRIFT_TOL:
            problems.append(f"mass drift {drift:.3e}")
        up = float(np.diff(series.entropy).max())
        if up > ENTROPY_UP_TOL * series.entropy[0]:
            problems.append(f"entropy rose by {up:.3e}")
        if not fit.alpha_hat > 0.0:
            problems.append(f"alpha_hat = {fit.alpha_hat}")
        return Outcome(bool(problems), bool(problems), "; ".join(problems))


class Refine:
    name = "refine"

    def __init__(self, small: bool = False) -> None:
        self.ladder = SMALL["ladder"] if small else REFINE_LADDER
        self.draws = SMALL["draws"] if small else DRAWS[self.name]

    def prepare(self, fields: dict, workdir: Path):
        return _specs(write_config(workdir, fields, self.ladder[0], {}))

    def run(self, inputs):
        b1, b2, sigma = inputs
        rungs = []
        for n in self.ladder:
            oracle = twospeed.solve_steady(b1, b2, sigma, 2 * n)
            gen = twospeed.assemble(b1, b2, sigma, twospeed.Grid(n))
            rep = twospeed.spectrum(gen)
            herm = twospeed.hermitian_abscissa(gen)
            diss = twospeed.dissipativity_check(gen, DISSIPATIVITY_TRIALS, 0)
            rungs.append((oracle, gen, rep, herm, diss))
        return rungs

    def check(self, inputs, rungs) -> Outcome:
        problems = []
        errors = []
        for oracle, gen, rep, herm, diss in rungs:
            n = gen.grid.n
            scale = max(gen.operator_scale(), 1.0)
            colsum = float(np.abs(gen.matrix.sum(axis=0)).max())
            if colsum > COLUMN_SUM_TOL * scale:
                problems.append(f"n={n}: column sum {colsum:.3e}")
            zeros = int((np.abs(rep.eigenvalues) <= ZERO_MODE_TOL * scale).sum())
            if zeros != 1:
                problems.append(f"n={n}: {zeros} zero modes")
            if len(rep.nonneg_violations):
                problems.append(f"n={n}: {len(rep.nonneg_violations)} non-negative violations")
            if herm > DISSIPATIVITY_TOL or diss > DISSIPATIVITY_TOL:
                problems.append(f"n={n}: hermitian_abscissa {herm:.3e}, dissipativity {diss:.3e}")
            # Odd nodes of the 2n-node oracle are the n cell centers.
            cells = np.concatenate([oracle.p1[1::2], oracle.p2[1::2]])
            errors.append(float(np.abs(gen.steady - cells).max() / cells.max()))
        ratios = [a / b for a, b in zip(errors, errors[1:])]
        if min(ratios) < MIN_REFINE_RATIO:
            problems.append(f"oracle error ratios {[f'{r:.2f}' for r in ratios]} below {MIN_REFINE_RATIO}")
        return Outcome(bool(problems), bool(problems), "; ".join(problems))


WORKLOADS = {cls.name: cls for cls in (Certify, Evolve, Refine)}


def run_op(workload, inputs):
    """Run one op; return ``(seconds, result, error)`` with ``error`` a repr or None."""
    start = time.perf_counter()
    try:
        result = workload.run(inputs)
    except Exception as exc:  # an op that raises is a counted failure, not a benchmark crash
        return time.perf_counter() - start, None, repr(exc)
    return time.perf_counter() - start, result, None
