"""Command-line driver: config parsing, pipeline orchestration, artifacts.

Subcommands
-----------
``validate``
    Run the admissibility checks and report their margins.
``steady`` / ``spectrum`` / ``psi`` / ``evolve`` / ``lemma``
    Run one stage of the pipeline and write its CSV plus its report
    section as ``<stage>.report.json`` into the output directory.
``report``
    Run every stage through the same stage functions, so it writes the
    single-stage CSVs byte for byte and puts each stage's section into
    one consolidated ``report.json`` (the evolve section split into
    ``decay`` and ``entropy``).  It then verifies the cross-module
    consistency checks: fitted decay rate vs. resolvent gap vs. spectral
    abscissa, the accretivity that certifies the semigroup envelope at
    every time (Wei's theorem, see :func:`cmd_report`), and that
    envelope along the recorded trajectory.

    ``report`` runs the lemma and evolve stages, which read no other
    stage's result, each in its own ``fork``ed child beside steady,
    spectrum and psi (:func:`twospeed.forking._fork_map`).  The children
    call ``os.nice(19)``, so they take the CPU that the rest of the
    report leaves idle (the spectrum, and the serial parts of the psi
    sweep) rather than slow the psi sweep's ``sigma_min`` batches, which
    are on the critical path.  Once psi is done the caller bounds the
    Hermitian abscissa, an O(nnz) certificate, while the children finish.  Each
    child writes its CSVs itself and pipes back its stage result.
    Errors keep the order of a serial run (steady, spectrum, psi,
    Hermitian abscissa, lemma, evolve): a failure in the caller kills the
    children and raises; a failure in a child raises once the caller's
    work has succeeded, lemma's before evolve's.  A report that fails in
    the caller may therefore leave a partial ``timeseries.csv`` or
    ``lemma.csv``.  With one CPU in the affinity mask everything runs
    in-process in that order.  With one BLAS thread
    (``OMP_NUM_THREADS=1 OPENBLAS_NUM_THREADS=1``) the files are the
    same byte for byte either way; a threaded BLAS may change the last
    digits of the spectrum's dense eigensolve with the number of CPUs it
    runs on.

Every command but ``validate`` passes the same admissibility gate first.

Exit codes: 0 success, 1 configuration error, 2 admissibility failure
(unless ``--allow-degenerate``), 3 numerical error from a module,
4 consistency-check failure in ``report``.

Identical configuration produces byte-identical outputs; every
artifact carries the configuration hash, grid size and package version
in its leading comment line.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import math
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np
import yaml

from . import __version__
from .errors import ConfigurationError, TwoSpeedError
from .fields import FieldSpec, validate_cross_section_overlap, validate_transport_fields
from .forking import _fork_map
from .generator import Grid, assemble, hermitian_abscissa
from .evolution import (
    SCHEMES,
    component_imbalance,
    entropy_identity_residual,
    estimate_decay,
    evolve,
    steady_plus_mode,
    step_count,
)
from .space import StateVector
from .spectral import (
    COARSE_POINTS,
    REFINE_DEPTH,
    psi_sweep,
    spectrum,
)
from .stationary_phase import MIN_SWEEP_POINTS, lemma_sweep
from .steady_state import solve_steady
from .textio import read_csv_columns, write_csv, write_json

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_ASSUMPTION = 2
EXIT_NUMERICAL = 3
EXIT_CONSISTENCY = 4

#: Consistency tolerances for the report verdict.
ALPHA_TRIANGLE_TOL = 0.05
ABSCISSA_TRIANGLE_TOL = 1e-6


@dataclass(frozen=True)
class RunConfig:
    """Parsed and validated run configuration."""

    b1: FieldSpec
    b2: FieldSpec
    sigma: FieldSpec
    n: int
    evolve_T: float
    evolve_dt: float
    observe_every: int
    snapshot_every: int
    initial: tuple
    lambda_max: float
    coarse_points: int
    refine_depth: int
    t_grid: tuple
    lemma_psi: object
    lemma_lambda_min: float
    lemma_lambda_max: float
    lemma_points: int
    out_dir: Path
    config_sha256: str

    def meta(self) -> dict:
        return {"config": self.config_sha256[:12], "n": self.n, "version": __version__}


def _fail(path: str, message: str) -> ConfigurationError:
    return ConfigurationError(f"{path}: {message}")


def _not_a_number(path: str, value, expected: str) -> ConfigurationError:
    """``expected ..., got <value>``, naming the YAML spelling when the value is numeric text.

    PyYAML (YAML 1.1) reads ``1e-3`` and ``1.0e300`` as strings: its
    floats need a decimal point and a signed exponent.
    """
    message = f"expected {expected}, got {value!r}"
    if isinstance(value, str):
        try:
            float(value)
        except ValueError:
            pass
        else:
            message += (
                ", which YAML reads as text; write a float with a point and"
                " a signed exponent, as 1.0e-3 or 1.0e+300"
            )
    return _fail(path, message)


def _get_map(node, path: str) -> dict:
    if node is None:
        return {}
    if not isinstance(node, dict):
        raise _fail(path, "expected a key-value mapping")
    return node


def _get_number(node: dict, key: str, path: str, default=None, positive=False, integer=False, at_least=None):
    if key not in node:
        if default is None:
            raise _fail(f"{path}.{key}", "missing required value")
        return default
    value = node[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _not_a_number(f"{path}.{key}", value, "a number")
    if isinstance(value, float) and not math.isfinite(value):
        raise _fail(f"{path}.{key}", f"must be finite, got {value!r}")
    if integer:
        if int(value) != value:
            raise _fail(f"{path}.{key}", f"expected an integer, got {value!r}")
        value = int(value)
    if positive and value <= 0:
        raise _fail(f"{path}.{key}", f"must be positive, got {value!r}")
    if at_least is not None and value < at_least:
        raise _fail(f"{path}.{key}", f"must be at least {at_least}, got {value!r}")
    return value


def _check_keys(node: dict, allowed, path: str) -> None:
    unknown = sorted(set(node) - set(allowed))
    if unknown:
        raise _fail(path, f"unknown keys {unknown}; allowed: {sorted(allowed)}")


def _field_from_node(node, path: str, base_dir: Path) -> FieldSpec:
    node = _get_map(node, path)
    if "kind" not in node:
        raise _fail(path, "field needs a 'kind'")
    kind = node["kind"]
    try:
        if kind == "constant":
            _check_keys(node, {"kind", "value"}, path)
            return FieldSpec.constant(_get_number(node, "value", path))
        if kind == "affine":
            _check_keys(node, {"kind", "a", "b"}, path)
            return FieldSpec.affine(_get_number(node, "a", path), _get_number(node, "b", path))
        if kind == "trigonometric":
            _check_keys(node, {"kind", "a", "b", "c"}, path)
            return FieldSpec.trigonometric(
                _get_number(node, "a", path),
                _get_number(node, "b", path),
                _get_number(node, "c", path, default=0.0),
            )
        if kind == "tabulated":
            _check_keys(node, {"kind", "x", "v", "csv"}, path)
            if "csv" in node:
                columns = list(_read_input(node, "csv", path, base_dir).values())
                if len(columns) != 2:
                    raise _fail(f"{path}.csv", f"expected two columns, got {len(columns)}")
                return FieldSpec.tabulated(*columns)
            if "x" not in node or "v" not in node:
                raise _fail(path, "tabulated field needs 'x' and 'v' lists (or 'csv')")
            return FieldSpec.tabulated(node["x"], node["v"])
    except ValueError as exc:
        raise _fail(path, str(exc)) from exc
    raise _fail(f"{path}.kind", f"unknown field kind {kind!r}")


def _read_input(node: dict, key: str, path: str, base_dir: Path) -> dict:
    """The columns of the CSV file ``node[key]``, relative to the config's directory."""
    if key not in node:
        raise _fail(f"{path}.{key}", "missing required value")
    csv_path = base_dir / str(node[key])
    if not csv_path.is_file():
        raise _fail(f"{path}.{key}", f"file not found: {csv_path}")
    try:
        return read_csv_columns(csv_path)
    except ValueError as exc:
        raise _fail(path, str(exc)) from exc


def _parse_initial(node, path: str, base_dir: Path, n: int) -> tuple:
    """``(type, *parameters)``; a ``from-csv`` state is read here, as its ``n`` cell values."""
    node = _get_map(node, path)
    if not node:
        return ("steady-plus-mode", 1, 0.01)
    kind = node.get("type")
    if kind == "steady-plus-mode":
        _check_keys(node, {"type", "k", "amplitude"}, path)
        return (
            kind,
            _get_number(node, "k", path, default=1, integer=True, positive=True),
            _get_number(node, "amplitude", path, default=0.01),
        )
    if kind == "component-imbalance":
        _check_keys(node, {"type", "amplitude"}, path)
        return (kind, _get_number(node, "amplitude", path, default=0.1))
    if kind == "from-csv":
        _check_keys(node, {"type", "path"}, path)
        cols = _read_input(node, "path", path, base_dir)
        where = base_dir / str(node["path"])
        for name in ("x", "p1", "p2"):
            if name not in cols:
                raise _fail(path, f"{where}: initial-state CSV needs column {name!r}")
            if not np.isfinite(cols[name]).all():
                raise _fail(path, f"{where}: initial-state column {name!r} is not finite")
        x, p1, p2 = cols["x"], cols["p1"], cols["p2"]
        if len(x) not in (n, n + 1):
            raise _fail(path, f"{where}: expected {n} cell rows or {n + 1} node rows, got {len(x)}")
        grid, rows = (Grid(n).centers(), "cell centres") if len(x) == n else (Grid(n).faces(), "nodes")
        off = np.abs(x - grid).max()
        if off > 1e-3 / n:
            raise _fail(path, f"{where}: column 'x' is off the grid's {rows} by up to {off:.3g} (more than h/1000)")
        if len(x) == n + 1:
            # Node-based profile (steady-state CSV layout): average onto cells.
            p1, p2 = 0.5 * (p1[:-1] + p1[1:]), 0.5 * (p2[:-1] + p2[1:])
        return (kind, p1, p2)
    raise _fail(f"{path}.type", f"unknown initial-condition type {kind!r}")


def load_config(path, out_override=None) -> RunConfig:
    """Parse and validate a YAML run configuration.

    Every input file it names (a tabulated field's ``csv``, a
    ``from-csv`` initial state) is read and checked here, so an input
    fault is a configuration error before any stage runs.
    """
    path = Path(path)
    if not path.is_file():
        raise ConfigurationError(f"config file not found: {path}")
    raw = path.read_bytes()
    try:
        tree = yaml.safe_load(raw)
    except yaml.YAMLError as exc:
        raise ConfigurationError(f"{path}: not valid YAML: {exc}") from exc
    tree = _get_map(tree, str(path))
    _check_keys(tree, {"fields", "grid", "evolve", "spectral", "lemma", "output"}, "config")
    base_dir = path.parent

    fields_node = _get_map(tree.get("fields"), "fields")
    _check_keys(fields_node, {"b1", "b2", "sigma"}, "fields")
    if "b1" not in fields_node or "b2" not in fields_node:
        raise _fail("fields", "both 'b1' and 'b2' are required")
    b1 = _field_from_node(fields_node["b1"], "fields.b1", base_dir)
    b2 = _field_from_node(fields_node["b2"], "fields.b2", base_dir)
    sigma = (
        _field_from_node(fields_node["sigma"], "fields.sigma", base_dir)
        if "sigma" in fields_node
        else FieldSpec.constant(1.0)
    )

    grid_node = _get_map(tree.get("grid"), "grid")
    _check_keys(grid_node, {"n"}, "grid")
    n = _get_number(grid_node, "n", "grid", positive=True, integer=True)
    if n < 8:
        raise _fail("grid.n", "needs at least 8 cells")

    ev = _get_map(tree.get("evolve"), "evolve")
    _check_keys(
        ev,
        {"T", "dt", "scheme", "observe_every", "snapshot_every", "initial"},
        "evolve",
    )
    if ev.get("scheme", SCHEMES[0]) not in SCHEMES:
        raise _fail("evolve.scheme", f"unknown scheme {ev['scheme']!r}; expected one of: {', '.join(SCHEMES)}")

    snapshot_every = _get_number(ev, "snapshot_every", "evolve", default=0, integer=True, at_least=0)
    evolve_T = _get_number(ev, "T", "evolve", default=10.0, positive=True)
    evolve_dt = _get_number(ev, "dt", "evolve", default=1e-3, positive=True)
    observe_every = _get_number(ev, "observe_every", "evolve", default=10, positive=True, integer=True)
    if not math.isfinite(evolve_T / evolve_dt):
        raise _fail("evolve.dt", f"T/dt overflows, got dt = {evolve_dt!r}")
    # evolve records every observe_every-th step and the last one; the
    # entropy identity needs those times uniform and at least three.
    steps = step_count(evolve_T, evolve_dt)
    if steps % observe_every or steps // observe_every < 2:
        raise _fail(
            "evolve.observe_every",
            f"must divide the {steps} steps of T/dt into at least two intervals, got {observe_every}",
        )
    if snapshot_every % observe_every:
        raise _fail("evolve.snapshot_every", f"must be a multiple of observe_every {observe_every}, got {snapshot_every}")

    sp = _get_map(tree.get("spectral"), "spectral")
    _check_keys(sp, {"lambda_max", "coarse_points", "refine_depth", "t_grid"}, "spectral")
    t_grid = sp.get("t_grid", [0.5, 1.0, 2.0, 4.0])
    if not isinstance(t_grid, list) or not t_grid:
        raise _fail("spectral.t_grid", "expected a non-empty list of times")
    t_vals = []
    for i, item in enumerate(t_grid):
        if isinstance(item, bool) or not isinstance(item, (int, float)) or not 0 <= item < math.inf:
            raise _not_a_number(f"spectral.t_grid[{i}]", item, "a finite non-negative time")
        t_vals.append(float(item))
    if any(b <= a for a, b in zip(t_vals, t_vals[1:])):
        raise _fail("spectral.t_grid", "times must be strictly increasing")

    lm = _get_map(tree.get("lemma"), "lemma")
    _check_keys(lm, {"psi", "lambda_min", "lambda_max", "points"}, "lemma")
    psi_node = lm.get("psi", "from-fields")
    if psi_node == "from-fields":
        lemma_psi = "from-fields"
    else:
        lemma_psi = _field_from_node(psi_node, "lemma.psi", base_dir)
    lemma_lo = _get_number(lm, "lambda_min", "lemma", default=math.pi, positive=True)
    lemma_hi = _get_number(lm, "lambda_max", "lemma", default=200.0 * math.pi, positive=True)
    if lemma_hi <= lemma_lo:
        raise _fail("lemma.lambda_max", "must exceed lemma.lambda_min")

    out_node = _get_map(tree.get("output"), "output")
    _check_keys(out_node, {"directory"}, "output")
    out_dir = Path(out_override) if out_override else Path(out_node.get("directory", "out"))

    return RunConfig(
        b1=b1,
        b2=b2,
        sigma=sigma,
        n=n,
        evolve_T=evolve_T,
        evolve_dt=evolve_dt,
        observe_every=observe_every,
        snapshot_every=snapshot_every,
        initial=_parse_initial(ev.get("initial"), "evolve.initial", base_dir, n),
        lambda_max=_get_number(sp, "lambda_max", "spectral", default=0.0, at_least=0),
        coarse_points=_get_number(
            sp, "coarse_points", "spectral", default=COARSE_POINTS, integer=True, at_least=COARSE_POINTS
        ),
        refine_depth=_get_number(sp, "refine_depth", "spectral", default=REFINE_DEPTH, positive=True, integer=True),
        t_grid=tuple(t_vals),
        lemma_psi=lemma_psi,
        lemma_lambda_min=lemma_lo,
        lemma_lambda_max=lemma_hi,
        lemma_points=_get_number(lm, "points", "lemma", default=33, integer=True, at_least=MIN_SWEEP_POINTS),
        out_dir=out_dir,
        config_sha256=hashlib.sha256(raw).hexdigest(),
    )


def _run_validation(cfg: RunConfig):
    rep1 = validate_transport_fields(cfg.b1, cfg.b2)
    rep2 = validate_cross_section_overlap(cfg.b1, cfg.b2, cfg.sigma)
    return rep1, rep2


def _validation_gate(cfg: RunConfig, args):
    """The two admissibility reports, or ``None`` when a failure stops the run."""
    reports = _run_validation(cfg)
    failed = [rep for rep in reports if not rep.passed]
    for rep in failed:
        print(f"admissibility failure: {rep.detail}", file=sys.stderr)
    if not failed:
        return reports
    if args.allow_degenerate:
        print("continuing despite admissibility failure (--allow-degenerate)", file=sys.stderr)
        return reports
    return None


def _assemble(cfg: RunConfig, args):
    gen = assemble(cfg.b1, cfg.b2, cfg.sigma, Grid(cfg.n))
    if args.dump_matrix:
        coo = gen.operator.tocoo()
        order = np.lexsort((coo.col, coo.row))  # by row, then column
        triples = [("row", coo.row[order]), ("col", coo.col[order]), ("value", coo.data[order])]
        write_csv(cfg.out_dir / "generator_matrix.csv", triples, cfg.meta())
    return gen


def _initial_state(cfg: RunConfig, gen) -> StateVector:
    kind, *params = cfg.initial
    if kind == "steady-plus-mode":
        return steady_plus_mode(gen, *params)
    if kind == "component-imbalance":
        return component_imbalance(gen, *params)
    return gen.state(*params)


def cmd_validate(cfg: RunConfig, args) -> int:
    rep1, rep2 = _run_validation(cfg)
    print(f"velocities: {'PASS' if rep1.passed else 'FAIL'} ({rep1.detail})")
    print(f"cross-section overlap: {'PASS' if rep2.passed else 'FAIL'} ({rep2.detail})")
    if rep1.passed and rep2.passed:
        return EXIT_OK
    return EXIT_OK if args.allow_degenerate else EXIT_ASSUMPTION


# -- stages ---------------------------------------------------------------
#
# Each stage computes its result, writes its CSVs and returns
# ``(result, section, summary)``.  The section is both the stage's
# ``<stage>.report.json`` and its section of ``report.json``; the
# summary is the line the single-stage command prints.


def _steady(cfg: RunConfig, gen):
    ss = solve_steady(cfg.b1, cfg.b2, cfg.sigma, cfg.n)
    write_csv(
        cfg.out_dir / "steady.csv",
        [("x", ss.x), ("p1", ss.p1), ("p2", ss.p2), ("J1", ss.J1), ("J2", ss.J2)],
        cfg.meta(),
    )
    section = {
        "residual": ss.residual,
        "lower_bound": ss.lower_bound,
        "upper_bound": ss.upper_bound,
        "mass_p1": float(np.trapezoid(ss.p1, ss.x)),
        "mass_p2": float(np.trapezoid(ss.p2, ss.x)),
    }
    return ss, section, f"residual={ss.residual:.3e} bounds=[{ss.lower_bound:.6g}, {ss.upper_bound:.6g}]"


def _spectrum(cfg: RunConfig, gen):
    rep = spectrum(gen)
    write_csv(
        cfg.out_dir / "spectrum.csv",
        [("re", rep.eigenvalues.real), ("im", rep.eigenvalues.imag)],
        cfg.meta(),
    )
    zero = rep.eigenvalues[rep.zero_mode_index]
    section = {
        "x0_abscissa": rep.x0_abscissa,
        "zero_eigenvalue_abs": float(abs(zero)),
        "nonneg_violation_count": int(len(rep.nonneg_violations)),
    }
    return rep, section, f"x0_abscissa={rep.x0_abscissa:.6g} |zero mode|={abs(zero):.3e}"


def _psi(cfg: RunConfig, gen):
    est = psi_sweep(gen, cfg.lambda_max, cfg.coarse_points, cfg.refine_depth)
    write_csv(
        cfg.out_dir / "psi_sweep.csv",
        [("lambda", est.lambda_grid), ("sigma_min", est.sigma_min_values), ("lower_bound", est.lower_bounds)],
        cfg.meta(),
    )
    section = {
        "psi_hat": est.psi_hat,
        "argmin_lambda": est.argmin_lambda,
        "lambda_max": est.lambda_max,
        "norm_bound": est.norm_bound,
        "refinement_depth": est.refinement_depth,
    }
    return est, section, f"psi_hat={est.psi_hat:.6g} at lambda={est.argmin_lambda:.6g}"


def _evolve(cfg: RunConfig, gen):
    """The result is ``(series, fit_error)``.  A failed decay fit leaves
    ``None`` in the section; ``evolve`` prints ``fit_error`` on stderr,
    and ``report``, which needs the rate, raises it."""
    series = evolve(
        gen,
        _initial_state(cfg, gen),
        cfg.evolve_T,
        cfg.evolve_dt,
        observe_every=cfg.observe_every,
        snapshot_every=cfg.snapshot_every,
    )
    write_csv(
        cfg.out_dir / "timeseries.csv",
        [
            ("t", series.times),
            ("mass", series.mass),
            ("entropy", series.entropy),
            ("dissipation", series.dissipation),
            ("deviation", series.deviation),
        ],
        cfg.meta(),
    )
    for index, (_, snap) in enumerate(series.snapshots):
        write_csv(
            cfg.out_dir / f"snapshot_{index:04d}.csv",
            [
                ("x", snap.x),
                ("p1_re", snap.p1.real),
                ("p1_im", snap.p1.imag),
                ("p2_re", snap.p2.real),
                ("p2_im", snap.p2.imag),
            ],
            cfg.meta(),
        )
    section = {
        "mass_drift": float(np.abs(series.mass - series.mass[0]).max()),
        "final_deviation": float(series.deviation[-1]),
        # Raises unless there are at least three observation times.
        "entropy_identity_residual": entropy_identity_residual(series),
        "monotone_violation": float(max(np.diff(series.entropy).max(), 0.0)),
    }
    fit_error = None
    try:
        fit = estimate_decay(series)
    except TwoSpeedError as exc:
        fit_error = exc
        section.update(alpha_hat=None, prefactor=None, window=None, fit_residual=None)
    else:
        section.update(
            alpha_hat=fit.alpha_hat,
            prefactor=fit.prefactor,
            window=list(fit.window),
            fit_residual=fit.fit_residual,
        )
    alpha = section["alpha_hat"]
    summary = (
        f"mass_drift={section['mass_drift']:.3e} "
        f"alpha_hat={alpha if alpha is None else f'{alpha:.6g}'}"
    )
    return (series, fit_error), section, summary


def _lemma_psi_function(cfg: RunConfig):
    if cfg.lemma_psi == "from-fields":
        b1, b2 = cfg.b1, cfg.b2
        return lambda x: 1.0 / np.asarray(b1(x)) - 1.0 / np.asarray(b2(x))
    return cfg.lemma_psi


def _lemma(cfg: RunConfig, gen):
    sweep = lemma_sweep(
        _lemma_psi_function(cfg),
        cfg.lemma_lambda_min,
        cfg.lemma_lambda_max,
        cfg.lemma_points,
    )
    write_csv(
        cfg.out_dir / "lemma.csv",
        [
            ("lambda", sweep.lambdas),
            ("modulus", sweep.moduli),
            ("re", sweep.values.real),
            ("im", sweep.values.imag),
        ],
        cfg.meta(),
    )
    section = {
        "limsup_estimate": sweep.limsup_estimate,
        "lemma_consistent": sweep.lemma_consistent,
        "margin": sweep.margin,
        "warnings": list(sweep.warnings),
    }
    verdict = "consistent" if sweep.lemma_consistent else "inconclusive"
    return sweep, section, f"limsup_estimate={sweep.limsup_estimate:.6g} ({verdict})"


#: Stage name -> (stage function, whether it runs on the assembled generator).
_STAGES = {
    "steady": (_steady, False),
    "spectrum": (_spectrum, True),
    "psi": (_psi, True),
    "lemma": (_lemma, False),
    "evolve": (_evolve, True),
}

#: The last stages of the table, which ``report`` runs each in its own
#: forked child beside the others: no other stage reads their results,
#: nor they another's.
_SIDE_STAGES = ("lemma", "evolve")


def _run_stage(name: str, cfg: RunConfig, args) -> int:
    """One single-stage command: its CSVs, ``<name>.report.json`` and summary line."""
    if _validation_gate(cfg, args) is None:
        return EXIT_ASSUMPTION
    stage, on_generator = _STAGES[name]
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    result, section, summary = stage(cfg, _assemble(cfg, args) if on_generator else None)
    write_json(cfg.out_dir / f"{name}.report.json", section)
    print(f"{name}: {summary}")
    if name == "evolve" and result[1] is not None:
        print(f"decay fit failed: {result[1]}", file=sys.stderr)
    return EXIT_OK


def cmd_report(cfg: RunConfig, args) -> int:
    """Every stage, the consistency checks and ``report.json``.

    The semigroup envelope is certified by Wei's generalised
    Gearhart-Pruss theorem (Sci. China Math. 64 (2021) 507-518): for an
    m-accretive ``H``, ``||exp(-t H)|| <= exp(-t Psi(H) + pi/2)`` at every
    ``t >= 0``.  With ``H = -S0``, ``Psi(H)`` is the gap that the psi
    stage bounds below by ``psi_hat``.  ``eps``, the certified upper
    bound of :func:`twospeed.generator.hermitian_abscissa` (at least 0),
    bounds the symmetric part of ``S`` above, so ``H + eps`` is accretive and
    ``Psi(H + eps) >= psi_hat - eps``.  Hence
    ``||exp(t S0)|| <= exp(-t (psi_hat - 2 eps) + pi/2)`` for every ``t``:
    ``envelope.semigroup_bound`` lists it at the ``t_grid`` times, the
    trajectory envelope uses the same certified rate, and the check
    ``accretive`` holds when that rate is positive.

    Errors keep the order of a serial run: steady, spectrum, psi,
    Hermitian abscissa, lemma, evolve (module docstring).
    """
    reports = _validation_gate(cfg, args)
    if reports is None:
        return EXIT_ASSUMPTION
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    gen = _assemble(cfg, args)

    def run(names) -> dict:
        return {name: _STAGES[name][0](cfg, gen if _STAGES[name][1] else None) for name in names}

    def own() -> tuple:
        stages = run([name for name in _STAGES if name not in _SIDE_STAGES])
        return stages, hermitian_abscissa(gen)

    # At niceness 19 the side children take the CPU that the stages on the
    # critical path, psi's sigma_min batches above all, leave idle; the
    # caller computes the Hermitian abscissa while they finish.
    (first, herm), *rest = _fork_map(
        [own, *(functools.partial(run, [name]) for name in _SIDE_STAGES)], nice=19
    )
    stages = {**first, **{name: stage for side in rest for name, stage in side.items()}}
    sections = {name: section for name, (_, section, _) in stages.items()}
    est = stages["psi"][0]
    series, fit_error = stages["evolve"][0]
    if fit_error is not None:
        raise fit_error
    evolved = sections.pop("evolve")

    eps = max(herm, 0.0)
    rate = est.psi_hat - 2.0 * eps
    # The bound overflows to inf only for a negative rate, which fails ``accretive``.
    with np.errstate(over="ignore"):
        envelope_bounds = np.exp(0.5 * math.pi - rate * series.times) * series.deviation[0]
        semigroup_bound = np.exp(0.5 * math.pi - rate * np.asarray(cfg.t_grid))
    envelope_margin = float((envelope_bounds - series.deviation).min())
    checks = {
        "assumptions": all(rep.passed for rep in reports),
        "decay_rate_vs_gap": evolved["alpha_hat"] >= est.psi_hat - ALPHA_TRIANGLE_TOL,
        "abscissa_vs_gap": abs(sections["spectrum"]["x0_abscissa"]) >= est.psi_hat - ABSCISSA_TRIANGLE_TOL,
        "trajectory_envelope": envelope_margin >= 0.0,
        "accretive": rate > 0.0,
    }
    violated = sorted(name for name, ok in checks.items() if not ok)

    rep1, rep2 = reports
    report = {
        "version": __version__,
        "config_sha256": cfg.config_sha256,
        "n": cfg.n,
        "assumptions": {
            "velocities": asdict(rep1),
            "cross_section_overlap": asdict(rep2),
        },
        "generator": {"hermitian_abscissa": herm},
        **sections,
        # The evolve section, split into the decay fit and the entropy bookkeeping.
        "decay": {key: evolved[key] for key in ("alpha_hat", "prefactor", "window", "fit_residual")},
        "entropy": {
            "identity_residual": evolved["entropy_identity_residual"],
            "mass_drift": evolved["mass_drift"],
            "monotone_violation": evolved["monotone_violation"],
        },
        "envelope": {
            "trajectory_margin": envelope_margin,
            "eps": eps,
            "certified_rate": rate,
            "semigroup_bound": [float(v) for v in semigroup_bound],
        },
        "checks": checks,
        "violated": violated,
        "passed": not violated,
    }
    write_json(cfg.out_dir / "report.json", report)
    status = "CONSISTENT" if not violated else f"VIOLATED: {', '.join(violated)}"
    print(
        f"report: psi_hat={est.psi_hat:.6g} alpha_hat={evolved['alpha_hat']:.6g} "
        f"abscissa={sections['spectrum']['x0_abscissa']:.6g} [{status}]"
    )
    return EXIT_OK if not violated else EXIT_CONSISTENCY


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twospeed",
        description="Numerical laboratory for the two-speed transport-reaction model.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="path to the YAML run configuration")
    common.add_argument("--out", default=None, help="override the output directory")
    common.add_argument(
        "--allow-degenerate",
        action="store_true",
        help="run even when the admissibility checks fail",
    )
    # Only the commands that assemble a generator can dump it.
    assembling = argparse.ArgumentParser(add_help=False, parents=[common])
    assembling.add_argument(
        "--dump-matrix",
        action="store_true",
        help="also write the assembled generator's stored entries (row,col,value CSV)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("validate", parents=[common]).set_defaults(handler=cmd_validate)
    for name, (_, on_generator) in _STAGES.items():
        sp = sub.add_parser(name, parents=[assembling if on_generator else common])
        sp.set_defaults(handler=functools.partial(_run_stage, name))
    sub.add_parser("report", parents=[assembling]).set_defaults(handler=cmd_report)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(load_config(args.config, out_override=args.out), args)
    except ConfigurationError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except TwoSpeedError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
