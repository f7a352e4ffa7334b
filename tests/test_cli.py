import json
import os
import signal
import time
from pathlib import Path

import numpy as np
import pytest
import yaml

import twospeed as ts
import twospeed.cli
from twospeed.cli import load_config, main
from twospeed.errors import NumericalError
from twospeed.generator import LANCZOS_TOL
from twospeed.textio import read_csv_columns, write_csv

from child_processes import assert_no_child_processes

GT_CONFIG = """\
fields:
  b1: {{kind: constant, value: 1.0}}
  b2: {{kind: constant, value: -1.0}}
grid: {{n: 64}}
evolve:
  T: 8.0
  dt: 0.002
  observe_every: 5
  initial: {{type: steady-plus-mode, k: 1, amplitude: 0.01}}
spectral:
  coarse_points: 96
  refine_depth: 25
  t_grid: [0.5, 1.0, 2.0]
lemma:
  points: 16
  lambda_min: 3.14159
  lambda_max: 314.159
output: {{directory: {out}}}
"""


@pytest.fixture
def gt_config(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text(GT_CONFIG.format(out=tmp_path / "out"))
    return path


def _args(path, command, *extra):
    return [command, "--config", str(path), *extra]


def test_validate_passes(gt_config, capsys):
    assert main(_args(gt_config, "validate")) == 0
    out = capsys.readouterr().out
    assert "PASS" in out


def test_validate_degenerate_exit_code(tmp_path):
    path = tmp_path / "degen.yaml"
    path.write_text(
        GT_CONFIG.format(out=tmp_path / "out").replace("value: -1.0", "value: 1.0")
    )
    assert main(_args(path, "validate")) == 2
    assert main(_args(path, "validate", "--allow-degenerate")) == 0
    # downstream commands are gated the same way
    assert main(_args(path, "steady")) == 2


def test_missing_field_is_config_error(tmp_path, capsys):
    path = tmp_path / "broken.yaml"
    path.write_text("fields:\n  b1: {kind: constant, value: 1.0}\ngrid: {n: 64}\n")
    assert main(_args(path, "validate")) == 1
    assert "fields" in capsys.readouterr().err


def test_unknown_key_is_config_error(tmp_path):
    path = tmp_path / "broken.yaml"
    path.write_text(
        "fields:\n  b1: {kind: constant, value: 1.0}\n  b2: {kind: constant, value: -1.0}\n"
        "grid: {n: 64, spacing: 0.1}\n"
    )
    assert main(_args(path, "validate")) == 1


@pytest.mark.parametrize(
    "setting, old, new",
    [
        ("spectral.refine_depth", "refine_depth: 25", "refine_depth: 0"),
        ("evolve.snapshot_every", "observe_every: 5", "observe_every: 5\n  snapshot_every: -5"),
        ("evolve.T", "T: 8.0", "T: .inf"),
        ("evolve.dt", "dt: 0.002", "dt: .nan"),
        ("evolve.dt", "dt: 0.002", "dt: 1.0e-320"),
        ("spectral.t_grid[2]", "t_grid: [0.5, 1.0, 2.0]", "t_grid: [0.5, 1.0, .inf]"),
        ("fields.sigma.value", "grid:", "  sigma: {kind: constant, value: .inf}\ngrid:"),
        ("fields.sigma", "grid:", "  sigma: {kind: tabulated, x: [0.0, 1.0], v: [1.0, .nan]}\ngrid:"),
        ("spectral.coarse_points", "coarse_points: 96", "coarse_points: 8"),
        ("spectral.lambda_max", "refine_depth: 25", "refine_depth: 25\n  lambda_max: -1.0"),
        ("lemma.points", "points: 16", "points: 4"),
    ],
)
def test_out_of_range_setting_is_config_error(tmp_path, capsys, setting, old, new):
    path = tmp_path / "broken.yaml"
    path.write_text(GT_CONFIG.format(out=tmp_path / "out").replace(old, new))
    assert main(_args(path, "report")) == 1
    assert setting in capsys.readouterr().err
    # Rejected while loading the config, before any stage writes output.
    assert not list(tmp_path.rglob("*.csv"))


@pytest.mark.parametrize(
    "setting, old, text, quirk, spelling",
    [
        ("evolve.dt", "dt: 0.002", "dt: {}", "2e-3", "2.0e-3"),
        ("spectral.lambda_max", "refine_depth: 25", "refine_depth: 25\n  lambda_max: {}", "1.0e300", "1.0e+300"),
        ("spectral.t_grid[1]", "t_grid: [0.5, 1.0, 2.0]", "t_grid: [0.5, {}, 2.0]", "1E0", "1.0E+0"),
    ],
)
def test_yaml_exponent_text_names_the_float_spelling(tmp_path, capsys, setting, old, text, quirk, spelling):
    # PyYAML reads an exponent without a decimal point or without a sign
    # as a string; the error says so and how to write the number instead.
    config = GT_CONFIG.format(out=tmp_path / "out")
    path = tmp_path / "quirk.yaml"
    path.write_text(config.replace(old, text.format(quirk)))
    assert main(_args(path, "validate")) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {setting}: expected ") and f"got {quirk!r}, which YAML reads as text" in err
    assert "1.0e-3 or 1.0e+300" in err
    assert yaml.safe_load(spelling) == float(quirk)
    path.write_text(config.replace(old, text.format(spelling)))
    load_config(path)


def test_readme_configuration_lists_the_defaults(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Configuration", 1)[1]
    block = section.split("```yaml\n", 1)[1].split("```", 1)[0]
    (tmp_path / "readme.yaml").write_text(block)
    listed = load_config(tmp_path / "readme.yaml")
    (tmp_path / "minimal.yaml").write_text(
        "fields:\n  b1: {kind: constant, value: 1.0}\n  b2: {kind: constant, value: -1.0}\ngrid: {n: 64}\n"
    )
    defaults = load_config(tmp_path / "minimal.yaml")
    for name in (
        "evolve_T", "evolve_dt", "scheme", "observe_every", "snapshot_every", "initial",
        "lambda_max", "coarse_points", "refine_depth", "t_grid",
        "lemma_psi", "lemma_lambda_min", "lemma_lambda_max", "lemma_points",
    ):
        assert getattr(listed, name) == getattr(defaults, name), name


@pytest.mark.parametrize("command", ["evolve", "report"])
@pytest.mark.parametrize("every", [7, 4000], ids=["non-divisor", "one-interval"])
def test_observe_every_must_split_the_run_evenly(tmp_path, capsys, command, every):
    # T / dt = 4000 steps; evolve always records the last one, so 7 would
    # leave an uneven last interval and 4000 only two observation times.
    path = tmp_path / "run.yaml"
    path.write_text(
        GT_CONFIG.format(out=tmp_path / "out").replace("observe_every: 5", f"observe_every: {every}")
    )
    assert main(_args(path, command)) == 1
    assert "evolve.observe_every" in capsys.readouterr().err
    assert not (tmp_path / "out" / "timeseries.csv").exists()


def test_seed_flag_is_gone(gt_config):
    # No stage of the CLI draws random states, so there is nothing to seed.
    with pytest.raises(SystemExit) as exc:
        main(_args(gt_config, "report", "--seed", "1"))
    assert exc.value.code == 2


@pytest.mark.parametrize("row", ["0.5,1O.0", "O.5,1O.0", "0.5,1.0,9", "0.5"])
def test_malformed_table_row_is_config_error(tmp_path, capsys, row):
    table = tmp_path / "sigma.csv"
    table.write_text(f"x,sigma\n0.0,1.0\n{row}\n1.0,1.0\n")
    path = tmp_path / "run.yaml"
    path.write_text(
        GT_CONFIG.format(out=tmp_path / "out").replace(
            "grid:", "  sigma: {kind: tabulated, csv: sigma.csv}\ngrid:"
        )
    )
    assert main(_args(path, "validate")) == 1
    err = capsys.readouterr().err
    assert "sigma.csv, line 3" in err and row in err


def test_steady_artifacts(gt_config, tmp_path):
    assert main(_args(gt_config, "steady")) == 0
    cols = read_csv_columns(tmp_path / "out" / "steady.csv")
    assert set(cols) == {"x", "p1", "p2", "J1", "J2"}
    assert np.abs(cols["p1"] - 0.5).max() < 1e-12
    assert np.abs(cols["J2"] + 0.5).max() < 1e-12
    report = json.loads((tmp_path / "out" / "steady.report.json").read_text())
    assert report["residual"] < 1e-10
    first = (tmp_path / "out" / "steady.csv").read_text().splitlines()[0]
    assert first.startswith("#") and "n=64" in first and "config=" in first


def test_spectrum_artifacts(gt_config, tmp_path):
    assert main(_args(gt_config, "spectrum")) == 0
    report = json.loads((tmp_path / "out" / "spectrum.report.json").read_text())
    assert report["zero_eigenvalue_abs"] < 1e-8
    assert report["nonneg_violation_count"] == 0
    cols = read_csv_columns(tmp_path / "out" / "spectrum.csv")
    assert len(cols["re"]) == 128


def test_psi_artifacts(gt_config, tmp_path):
    assert main(_args(gt_config, "psi")) == 0
    report = json.loads((tmp_path / "out" / "psi.report.json").read_text())
    assert report["psi_hat"] > 0.0
    cols = read_csv_columns(tmp_path / "out" / "psi_sweep.csv")
    assert (cols["sigma_min"] > 0.0).all()


@pytest.mark.parametrize("n", [16, 96], ids=["dense", "sparse"])
def test_psi_artifacts_recheck_the_certificate(gt_config, tmp_path, n):
    # psi_sweep.csv and psi.report.json alone re-check psi_hat for all real
    # lambda. Between neighbouring rows sigma_min^2 is at least lambda^2
    # plus the chord of phi = sigma_min^2 - lambda^2, which is concave,
    # each phi lowered by the rounding allowance of psi_sweep's docstring.
    # The rows reach L = beta + sigma_min(0), past which Weyl gives
    # sigma_min >= lambda - beta >= L - beta.
    gt_config.write_text(gt_config.read_text().replace("n: 64", f"n: {n}"))
    assert main(_args(gt_config, "psi")) == 0
    report = json.loads((tmp_path / "out" / "psi.report.json").read_text())
    cols = read_csv_columns(tmp_path / "out" / "psi_sweep.csv")
    lam, sig, psi, beta = cols["lambda"], cols["sigma_min"], report["psi_hat"], report["norm_bound"]
    eps = np.finfo(float).eps
    err = LANCZOS_TOL * sig + 32.0 * eps * (beta + lam)
    phi = sig**2 - lam**2 - (2.0 * sig + err) * err - 8.0 * eps * (sig**2 + lam**2)
    slope = np.diff(phi) / np.diff(lam)
    at = np.clip(-0.5 * slope, lam[:-1], lam[1:])
    bounds = np.sqrt(np.maximum(at**2 + phi[:-1] + slope * (at - lam[:-1]), 0.0))
    assert lam[0] == 0.0 and np.all(np.diff(lam) > 0.0)
    assert lam[-1] == beta + sig[0] and lam[-1] - beta >= psi
    assert bounds.min() >= psi and psi <= sig.min()
    np.testing.assert_allclose(cols["lower_bound"][:-1], bounds, rtol=1e-12, atol=0.0)
    assert cols["lower_bound"].min() >= psi


def test_evolve_with_steady_initial_data(tmp_path, capsys):
    path = tmp_path / "run.yaml"
    config = GT_CONFIG.format(out=tmp_path / "out").replace(
        "initial: {type: steady-plus-mode, k: 1, amplitude: 0.01}",
        "initial: {type: component-imbalance, amplitude: 0.0}",
    )
    path.write_text(config)
    assert main(_args(path, "evolve")) == 0
    cols = read_csv_columns(tmp_path / "out" / "timeseries.csv")
    assert np.abs(cols["deviation"]).max() < 1e-11
    assert np.abs(cols["mass"] - 1.0).max() < 1e-12
    # Nothing to fit: the fit keys are null and stderr says why.
    assert "nothing to fit" in capsys.readouterr().err
    report = json.loads((tmp_path / "out" / "evolve.report.json").read_text())
    assert report["alpha_hat"] is None


def test_evolve_from_csv_initial_data(gt_config, gt_fields, tmp_path):
    # reuse the steady-state CSV layout (node-based) as initial data
    assert main(_args(gt_config, "steady")) == 0
    config = (tmp_path / "run2.yaml")
    config.write_text(
        GT_CONFIG.format(out=tmp_path / "out2").replace(
            "initial: {type: steady-plus-mode, k: 1, amplitude: 0.01}",
            f"initial: {{type: from-csv, path: {tmp_path / 'out' / 'steady.csv'}}}",
        )
    )
    assert main(_args(config, "evolve")) == 0
    cols = read_csv_columns(tmp_path / "out2" / "timeseries.csv")
    assert np.abs(cols["deviation"]).max() < 1e-11
    # n cell rows are taken as they are: the default steady-plus-mode
    # state, written per cell, evolves to the same series.
    gen = ts.assemble(*gt_fields, ts.Grid(64))
    p0 = ts.steady_plus_mode(gen, 1, 0.01)
    write_csv(tmp_path / "cells.csv", [("x", p0.x), ("p1", p0.p1.real), ("p2", p0.p2.real)])
    config.write_text(
        GT_CONFIG.format(out=tmp_path / "cells").replace(
            "initial: {type: steady-plus-mode, k: 1, amplitude: 0.01}",
            "initial: {type: from-csv, path: cells.csv}",
        )
    )
    assert main(_args(gt_config, "evolve")) == 0
    assert main(_args(config, "evolve")) == 0
    built_in = read_csv_columns(tmp_path / "out" / "timeseries.csv")
    from_csv = read_csv_columns(tmp_path / "cells" / "timeseries.csv")
    for name in ("t", "mass", "entropy", "dissipation", "deviation"):
        assert np.array_equal(built_in[name], from_csv[name]), name


def test_evolve_writes_snapshots(gt_config, gt_fields, tmp_path):
    config = gt_config.read_text().replace("observe_every: 5", "observe_every: 5\n  snapshot_every: 1000")
    gt_config.write_text(config)
    assert main(_args(gt_config, "evolve")) == 0
    gen = ts.assemble(*gt_fields, ts.Grid(64))
    series = ts.evolve(gen, ts.steady_plus_mode(gen, 1, 0.01), 8.0, 0.002, observe_every=5, snapshot_every=1000)
    # Steps 0, 1000, ..., 4000 of T / dt = 4000.
    assert len(series.snapshots) == 5
    files = sorted((tmp_path / "out").glob("snapshot_*.csv"))
    assert [f.name for f in files] == [f"snapshot_{i:04d}.csv" for i in range(5)]
    for path, (_, snap) in zip(files, series.snapshots):
        cols = read_csv_columns(path)
        assert list(cols) == ["x", "p1_re", "p1_im", "p2_re", "p2_im"]
        for name, want in zip(cols, (snap.x, snap.p1.real, snap.p1.imag, snap.p2.real, snap.p2.imag)):
            assert np.array_equal(cols[name], want), (path.name, name)


@pytest.mark.parametrize(
    "text",
    [
        "x,p1,p2\n0.0,0.5,abc\n",  # non-numeric cell
        "# comment lines only\n",  # no header row
        "x,p1,p2\n0.0,0.5,0.5\n0.1,0.5\n",  # ragged row
        "x,p1,p2\n"
        + "".join(f"{(i + 0.5) / 64},{'nan' if i == 7 else 0.5},0.5\n" for i in range(64)),
    ],
    ids=["non-numeric", "no-header", "ragged", "nan"],
)
def test_malformed_initial_csv_is_config_error(tmp_path, capsys, text):
    state = tmp_path / "state.csv"
    state.write_text(text)
    path = tmp_path / "run.yaml"
    path.write_text(
        GT_CONFIG.format(out=tmp_path / "out").replace(
            "initial: {type: steady-plus-mode, k: 1, amplitude: 0.01}",
            "initial: {type: from-csv, path: state.csv}",
        )
    )
    assert main(_args(path, "evolve")) == 1
    assert "state.csv" in capsys.readouterr().err


def test_lemma_artifacts(gt_config, tmp_path):
    # The from-fields slope 1/b1 - 1/b2 is the constant 2, and so is the
    # explicit affine slope 2 + 0 x (swapped, a and b would give 2 x).
    explicit = tmp_path / "explicit.yaml"
    explicit.write_text(gt_config.read_text().replace("lemma:", "lemma:\n  psi: {kind: affine, a: 2.0, b: 0.0}"))
    for config, out in ((gt_config, tmp_path / "out"), (explicit, tmp_path / "explicit")):
        assert main(_args(config, "lemma", "--out", str(out))) == 0
        report = json.loads((out / "lemma.report.json").read_text())
        assert report["lemma_consistent"] is True
        cols = read_csv_columns(out / "lemma.csv")
        expected = np.abs(np.sin(cols["lambda"]) / cols["lambda"])
        assert np.abs(cols["modulus"] - expected).max() < 1e-8, config.name


def test_report_consistent_run(gt_config, tmp_path, capsys):
    assert main(_args(gt_config, "report")) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["passed"] is True
    assert report["violated"] == []
    assert report["psi"]["psi_hat"] > 0.0
    assert report["decay"]["alpha_hat"] >= report["psi"]["psi_hat"] - 0.05
    assert abs(report["spectrum"]["x0_abscissa"]) >= report["psi"]["psi_hat"] - 1e-6
    assert report["generator"]["hermitian_abscissa"] <= 1e-10
    assert report["entropy"]["mass_drift"] <= 1e-12
    assert "CONSISTENT" in capsys.readouterr().out


def test_report_degenerate_with_override_fails_consistency(tmp_path, capsys):
    path = tmp_path / "degen.yaml"
    config = GT_CONFIG.format(out=tmp_path / "out").replace("value: -1.0", "value: 1.0")
    config = config.replace("coarse_points: 96", "coarse_points: 64\n  lambda_max: 40.0")
    path.write_text(config)
    assert main(_args(path, "report", "--allow-degenerate")) == 4
    assert "continuing despite admissibility failure" in capsys.readouterr().err
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["passed"] is False
    assert "assumptions" in report["violated"]


def test_report_reuses_stage_artifacts(gt_config, tmp_path):
    # One code path per artifact: report writes each stage's CSV and
    # section exactly as the single-stage command does.
    stages = ("steady", "spectrum", "psi", "evolve", "lemma")
    for command in stages:
        assert main(_args(gt_config, command, "--out", str(tmp_path / "a"))) == 0
    assert main(_args(gt_config, "report", "--out", str(tmp_path / "b"))) == 0
    for name in ("steady.csv", "spectrum.csv", "psi_sweep.csv", "timeseries.csv", "lemma.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    report = json.loads((tmp_path / "b" / "report.json").read_text())
    report["evolve"] = {**report["decay"], **report["entropy"]}
    singles = {
        stage: json.loads((tmp_path / "a" / f"{stage}.report.json").read_text()) for stage in stages
    }
    for stage, single in singles.items():
        shared = set(single) & set(report[stage])
        assert shared and all(single[key] == report[stage][key] for key in shared), stage
    # report.json splits the evolve section into decay and entropy, which
    # renames one key; every other section carries all keys of its stage.
    for stage in ("steady", "spectrum", "psi", "lemma"):
        assert set(singles[stage]) <= set(report[stage]), stage
    assert singles["evolve"]["entropy_identity_residual"] == report["entropy"]["identity_residual"]


def test_matrix_dump(gt_config, tmp_path):
    assert main(_args(gt_config, "spectrum", "--dump-matrix")) == 0
    lines = (tmp_path / "out" / "generator_matrix.csv").read_text().splitlines()
    assert len(lines) == 128
    assert len(lines[0].split(",")) == 128


@pytest.mark.parametrize("command", ["validate", "steady", "lemma"])
def test_matrix_dump_needs_a_generator(gt_config, tmp_path, command):
    # These commands assemble no generator, so the flag is a usage error.
    with pytest.raises(SystemExit) as exc:
        main(_args(gt_config, command, "--dump-matrix"))
    assert exc.value.code == 2
    assert not (tmp_path / "out").exists()


def test_outputs_are_deterministic(gt_config, tmp_path):
    assert main(_args(gt_config, "steady", "--out", str(tmp_path / "a"))) == 0
    assert main(_args(gt_config, "steady", "--out", str(tmp_path / "b"))) == 0
    for name in ("steady.csv", "steady.report.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


SPLIT_CONFIG = """\
fields:
  b1: {{kind: constant, value: 1.0}}
  b2: {{kind: trigonometric, a: -1.0, b: 0.4}}
grid: {{n: {n}}}
evolve: {{T: 2.0, dt: 0.004, observe_every: 5}}
spectral: {{coarse_points: 16, t_grid: [0.5, 1.0]}}
lemma: {{points: 16}}
output: {{directory: out}}
"""


@pytest.fixture
def split_config(tmp_path):
    """Write the small report config at grid size ``n``; return its path."""

    def write(n):
        path = tmp_path / f"split{n}.yaml"
        path.write_text(SPLIT_CONFIG.format(n=n))
        return path

    return write


@pytest.fixture
def caller_state():
    """The caller keeps its niceness and leaves no child process behind."""
    niceness = os.nice(0)
    yield
    assert_no_child_processes()
    assert os.nice(0) == niceness


def _on_cpus(monkeypatch, cpus):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)


@pytest.mark.parametrize("n", [96, 128])
def test_report_split_is_byte_identical(split_config, tmp_path, monkeypatch, capsys, caller_state, n):
    # One CPU runs every stage in-process in order; two run lemma and
    # evolve each in a forked child beside the others, and split psi's
    # sigma_min batches, which 64 coarse points make big enough to fork.
    # Every file comes out the same.
    path = split_config(n)
    path.write_text(path.read_text().replace("coarse_points: 16", "coarse_points: 64"))
    for name, cpus in (("one", {0}), ("two", {0, 1})):
        _on_cpus(monkeypatch, cpus)
        assert main(_args(path, "report", "--out", str(tmp_path / name))) == 0
        out = capsys.readouterr().out
        assert out.count("report: psi_hat=") == 1 and out.count("\n") == 1, name
    one, two = tmp_path / "one", tmp_path / "two"
    names = sorted(p.name for p in one.iterdir())
    assert names == sorted(p.name for p in two.iterdir())
    assert {"timeseries.csv", "lemma.csv", "report.json"} <= set(names)
    for name in names:
        assert (one / name).read_bytes() == (two / name).read_bytes(), name


def _with_sigma(n, sigma):
    return SPLIT_CONFIG.format(n=n).replace("\ngrid:", f"\n  sigma: {{kind: constant, value: {sigma}}}\ngrid:")


@pytest.mark.parametrize("command", ["steady", "report"])
def test_stiff_flux_ode_is_a_numerical_error(tmp_path, capsys, caller_state, command):
    # At sigma = 1e5 the steady flux spans more than the double range. The
    # error is a typed numerical one (exit 3), not a traceback or a
    # RuntimeWarning from an overflow.
    path = tmp_path / "stiff.yaml"
    path.write_text(_with_sigma(16, "1.0e+5"))
    assert main(_args(path, command, "--out", str(tmp_path / "out"))) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical error: steady flux spans more than the double range") and err.count("\n") == 1


def test_report_runs_past_a_steep_steady_state(tmp_path, capsys, caller_state):
    # At sigma = 3e2 the steady profile falls to 1e-13 of its peak; every
    # stage must still run on it.
    path = tmp_path / "steep.yaml"
    path.write_text(_with_sigma(64, "3.0e+2"))
    assert main(_args(path, "report", "--out", str(tmp_path / "out"))) == 0
    assert capsys.readouterr().out.startswith("report: psi_hat=")


def _failing(message):
    def fail(*args, **kwargs):
        raise NumericalError(message)

    return fail


@pytest.mark.parametrize(
    "failing",
    [("evolve",), ("lemma_sweep",), ("evolve", "lemma_sweep"), ("semigroup_bound_check", "evolve")],
    ids="+".join,
)
def test_report_child_error_matches_the_serial_run(split_config, tmp_path, monkeypatch, capsys, caller_state, failing):
    # The caller runs the semigroup check, and lemma and evolve run in
    # that order after it. The first failure in that serial order names
    # the error, on one CPU (in-process, in order) and on two (lemma and
    # evolve forked), and no stage runs after a failed one on one CPU.
    first = min(failing, key=["semigroup_bound_check", "lemma_sweep", "evolve"].index)
    for name in failing:
        monkeypatch.setattr(twospeed.cli, name, _failing(f"injected in {name}"))
    path = split_config(32)
    messages = []
    for cpus in ({0}, {0, 1}):
        _on_cpus(monkeypatch, cpus)
        assert main(_args(path, "report", "--out", str(tmp_path / str(len(cpus))))) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        messages.append(captured.err)
    assert messages[0] == messages[1] == f"numerical error: injected in {first}\n"


@pytest.mark.parametrize(
    "fault, status",
    [(lambda: os._exit(1), 1), (lambda: os.kill(os.getpid(), signal.SIGKILL), -int(signal.SIGKILL))],
    ids=["exit", "killed"],
)
def test_report_child_death_is_a_numerical_error(split_config, tmp_path, monkeypatch, capsys, caller_state, fault, status):
    parent = os.getpid()
    evolve = twospeed.cli.evolve

    def dying(*args, **kwargs):
        if os.getpid() != parent:
            fault()
        return evolve(*args, **kwargs)

    monkeypatch.setattr(twospeed.cli, "evolve", dying)
    _on_cpus(monkeypatch, {0, 1})
    assert main(_args(split_config(32), "report", "--out", str(tmp_path / "out"))) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical error: forked child") and err.endswith(f"exited with status {status}\n")


def test_report_parent_failure_reaps_the_child(split_config, tmp_path, monkeypatch, capsys, caller_state):
    # psi fails in the caller while the side child still runs: the child
    # is killed, not waited for, and the caller's error is the report's.
    parent = os.getpid()

    def stalled(*args, **kwargs):
        if os.getpid() != parent:
            time.sleep(60.0)

    monkeypatch.setattr(twospeed.cli, "evolve", stalled)
    monkeypatch.setattr(twospeed.cli, "psi_sweep", _failing("injected in psi"))
    _on_cpus(monkeypatch, {0, 1})
    start = time.monotonic()
    assert main(_args(split_config(32), "report", "--out", str(tmp_path / "out"))) == 3
    assert time.monotonic() - start < 30.0
    assert capsys.readouterr().err == "numerical error: injected in psi\n"
