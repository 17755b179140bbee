import csv
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import fredmc
from fredmc.cli import main, validate_and_echo

TS_PROBLEM = {"name": "separable-poly", "a": [0.0, 1.0], "b": [0.0, 1.0],
              "forcing": {"kind": "poly", "coeffs": [0.0, 1.0]}}
CONST_PROBLEM = {"name": "constant", "gamma": 0.5,
                 "forcing": {"kind": "const", "value": 1.0}}


def _write_config(tmp_path, name="cfg.json", **overrides):
    cfg = {"problem": TS_PROBLEM, "epsilon": 0.01, "budget": 5000, "grid": 11,
           "seed": 3, "mode": "solve", "out_dir": str(tmp_path / "default_out")}
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def test_validate_fills_defaults(tmp_path, capsys):
    path = _write_config(tmp_path)
    assert main(["validate", "--config", str(path)]) == 0
    echoed = json.loads(capsys.readouterr().out)
    assert echoed["delta"] == 0.05
    assert echoed["grid"] == 11
    assert echoed["replications"] == 1


def test_validate_unknown_registry_name(tmp_path, capsys):
    path = _write_config(tmp_path, problem={"name": "mystery-kernel"})
    assert main(["validate", "--config", str(path)]) == 2
    assert "mystery-kernel" in capsys.readouterr().err


def test_validate_epsilon_range(tmp_path, capsys):
    path = _write_config(tmp_path, epsilon=0.7)
    assert main(["validate", "--config", str(path)]) == 2
    assert "epsilon must lie in (0, 0.5)" in capsys.readouterr().err


def test_validate_unknown_field(tmp_path, capsys):
    path = _write_config(tmp_path, typo_field=1)
    assert main(["validate", "--config", str(path)]) == 2
    assert "typo_field" in capsys.readouterr().err


def test_malformed_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"problem": ')
    assert main(["validate", "--config", str(path)]) == 2


def test_allocate_only_artifacts(tmp_path):
    path = _write_config(tmp_path, out_dir=str(tmp_path / "out"))
    assert main(["allocate", "--config", str(path)]) == 0
    alloc = json.loads((tmp_path / "out" / "allocation.json").read_text())
    assert alloc["N"] == 4
    assert alloc["cost_B"] >= alloc["n_total"]
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["config"]["mode"] == "allocate-only"
    # the manifest config re-validates: enough to re-run the experiment
    validate_and_echo(manifest["config"], echo=False)


def test_manifest_records_blas_threads(tmp_path, monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
    monkeypatch.setenv("OMP_NUM_THREADS", "1")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    path = _write_config(tmp_path, out_dir=str(tmp_path / "out"))
    assert main(["allocate", "--config", str(path)]) == 0
    versions = json.loads((tmp_path / "out" / "manifest.json").read_text())["versions"]
    assert versions["blas_threads"] == {"OPENBLAS_NUM_THREADS": "3", "OMP_NUM_THREADS": "1",
                                        "MKL_NUM_THREADS": None}


def test_python_dash_m_runs_the_cli():
    src = str(Path(fredmc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-m", "fredmc", "--help"], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: fredmc") and "coverage-study" in done.stdout


@pytest.mark.parametrize("command, overrides", [
    ("solve", {"band_method": "both", "tail_report": True, "n_sim": 100_000}),
    ("coverage-study", {"mode": "coverage-study", "replications": 3, "budget": 20_000})])
def test_cli_runs_without_importing_numpy_ma(tmp_path, command, overrides):
    # numpy.ma costs 11-17 ms of import a process; np.quantile, np.unique
    # and np.median each import it on first call
    path = _write_config(tmp_path, out_dir=str(tmp_path / "out"), **overrides)
    env = dict(os.environ, PYTHONPATH=str(Path(fredmc.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-X", "importtime", "-m", "fredmc", command,
                           "--config", str(path)], env=env, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr
    imported = {line.rsplit("|", 1)[-1].strip() for line in done.stderr.splitlines()
                if line.startswith("import time:")}
    assert "numpy" in imported and "numpy.ma" not in imported


def test_solve_constant_fixture_exact_csv(tmp_path):
    path = _write_config(tmp_path, problem=CONST_PROBLEM, out_dir=str(tmp_path / "out"))
    assert main(["solve", "--config", str(path)]) == 0
    rows = list(csv.DictReader(open(tmp_path / "out" / "estimate.csv")))
    assert len(rows) == 11
    assert all(r["value"] == "1.9921875" for r in rows)  # 2 - 2^-7, exact
    assert all(r["var"] == "0.0" for r in rows)
    assert all(r["mode"] == "solution" for r in rows)


def test_solve_byte_identical_across_workers(tmp_path):
    path = _write_config(tmp_path, out_dir=str(tmp_path / "a"))
    assert main(["solve", "--config", str(path), "--workers", "1"]) == 0
    assert main(["solve", "--config", str(path), "--workers", "4",
                 "--out", str(tmp_path / "b")]) == 0
    a = (tmp_path / "a" / "estimate.csv").read_bytes()
    b = (tmp_path / "b" / "estimate.csv").read_bytes()
    assert a == b


def test_rate_study_byte_identical_across_workers(tmp_path):
    path = _write_config(tmp_path, mode="rate-study", replications=3,
                         budgets=[500, 2000], epsilon=0.01, out_dir=str(tmp_path / "r1"))
    assert main(["rate-study", "--config", str(path), "--workers", "1"]) == 0
    assert main(["rate-study", "--config", str(path), "--workers", "4",
                 "--out", str(tmp_path / "r2")]) == 0
    assert (tmp_path / "r1" / "rates.csv").read_bytes() == (tmp_path / "r2" / "rates.csv").read_bytes()
    rows = list(csv.DictReader(open(tmp_path / "r1" / "rates.csv")))
    assert {r["method"] for r in rows} == {"solve", "geometric"}
    assert len(rows) == 2 * 2 * 3


def test_coverage_study_byte_identical_across_workers(tmp_path):
    path = _write_config(tmp_path, mode="coverage-study", replications=4, budget=20_000,
                         epsilon=0.001, out_dir=str(tmp_path / "c1"))
    assert main(["coverage-study", "--config", str(path), "--workers", "1"]) == 0
    assert main(["coverage-study", "--config", str(path), "--workers", "2",
                 "--out", str(tmp_path / "c2")]) == 0
    assert (tmp_path / "c1" / "coverage.csv").read_bytes() == (tmp_path / "c2" / "coverage.csv").read_bytes()


@pytest.mark.parametrize("command, table, workers, overrides", [
    ("rate-study", "rates.csv", 4, {"replications": 3, "budgets": [500, 2000]}),
    ("coverage-study", "coverage.csv", 2, {"replications": 4, "budget": 20_000, "epsilon": 0.001})],
    ids=["rate", "coverage"])
def test_studies_start_no_thread(tmp_path, monkeypatch, command, table, workers, overrides):
    # workers is accepted but selects nothing: the replications run in order on one thread
    def no_thread(self):
        raise RuntimeError(f"{command} started a thread")

    monkeypatch.setattr(threading.Thread, "start", no_thread)
    path = _write_config(tmp_path, out_dir=str(tmp_path / "w1"), **overrides)
    assert main([command, "--config", str(path), "--workers", "1"]) == 0
    assert main([command, "--config", str(path), "--workers", str(workers),
                 "--out", str(tmp_path / "wn")]) == 0
    assert (tmp_path / "w1" / table).read_bytes() == (tmp_path / "wn" / table).read_bytes()


def test_coverage_study_artifacts(tmp_path):
    path = _write_config(tmp_path, mode="coverage-study", replications=4,
                         budget=20_000, epsilon=0.001, out_dir=str(tmp_path / "cov"))
    assert main(["coverage-study", "--config", str(path)]) == 0
    rows = list(csv.DictReader(open(tmp_path / "cov" / "coverage.csv")))
    assert [r["replication"] for r in rows] == ["0", "1", "2", "3"]
    assert all(r["covered"] in ("0", "1") for r in rows)
    manifest = json.loads((tmp_path / "cov" / "manifest.json").read_text())
    assert 0.0 <= manifest["summary"]["coverage"] <= 1.0
    # the t*s closed form's integral of b f, on Gauss-Legendre nodes
    assert manifest["summary"]["reference_accuracy"]["q"] == 24
    assert manifest["summary"]["reference_accuracy"]["diff"] <= 1e-15


GAUSS_2D = {"name": "gauss-conv", "scale": 0.4, "kappa": 2.0, "bounds": [[0, 1], [0, 1]]}


@pytest.mark.parametrize("mode, overrides", [
    ("coverage-study", {"replications": 2, "budget": 5000, "n_sim": 10_000}),
    ("rate-study", {"replications": 2, "budgets": [200, 800]})], ids=["coverage", "rate"])
def test_studies_run_on_2d_gauss_conv(tmp_path, mode, overrides):
    # the Gauss-Legendre Nystrom reference and power norms work above 1-D
    # (the midpoint series and norms refused 2-D, exit 2)
    for norms in ("mc", "quadrature"):
        out = tmp_path / norms
        path = _write_config(tmp_path, mode=mode, problem=GAUSS_2D, grid=7, norms_method=norms,
                             m_max=8, epsilon=0.001, out_dir=str(out), **overrides)
        assert main([mode, "--config", str(path)]) == 0
        summary = json.loads((out / "manifest.json").read_text())["summary"]
        accuracy = summary["reference_accuracy"]
        assert accuracy["q"] == 24 and accuracy["diff"] <= 1e-14
        if norms == "quadrature":
            assert summary["norms_accuracy"]["q"] == 24
            assert summary["norms_accuracy"]["diff"] <= 1e-14
        else:
            assert summary["norms_accuracy"] is None


@pytest.mark.parametrize("case", ["gauss-2d-default-epsilon", "coverage-workload"])
def test_coverage_study_warns_when_truncation_bias_exceeds_the_band(tmp_path, capsys, case):
    # coverage is judged against the full solution: a tail bound above the
    # median half-width means the band cannot cover the truncation bias
    if case == "gauss-2d-default-epsilon":
        overrides = {"problem": GAUSS_2D, "replications": 4, "budget": 20_000}
    else:  # t*s, n = 1e5, G = 101, 40 replications
        overrides = {"epsilon": 1e-5, "budget": 10 ** 5, "grid": 101, "replications": 40}
    cfg = {"grid": 11, "epsilon": 0.01, **overrides}
    path = _write_config(tmp_path, mode="coverage-study", out_dir=str(tmp_path / "out"), **cfg)
    assert main(["coverage-study", "--config", str(path)]) == 0
    summary = json.loads((tmp_path / "out" / "manifest.json").read_text())["summary"]
    warns = summary["tail_bound"] > summary["median_half_width"]
    assert warns == (case == "gauss-2d-default-epsilon")
    assert ("cannot cover the truncation bias" in capsys.readouterr().err) == warns


@pytest.mark.parametrize("case", ["solve-1d-workload", "ts-small-epsilon"])
def test_solve_warns_when_truncation_bias_exceeds_a_band(tmp_path, capsys, case):
    # the solve-1d workload (gauss-conv, n = 1e6, G = 101, both bands, seed
    # 5) has tail_bound 4.53e-3 against a gauss-sim half-width of 4.74e-4;
    # t*s at epsilon 1e-5 has a tail far below both half-widths
    if case == "solve-1d-workload":
        gauss = {"name": "gauss-conv", "scale": 0.4, "kappa": 2.0, "bounds": [[0.0, 1.0]],
                 "forcing": {"kind": "const", "value": 1.0}}
        cfg = {"problem": gauss, "budget": 10 ** 6, "grid": 101, "seed": 5}
    else:
        cfg = {"epsilon": 1e-5, "budget": 10 ** 5}
    path = _write_config(tmp_path, band_method="both", out_dir=str(tmp_path / "out"), **cfg)
    assert main(["solve", "--config", str(path)]) == 0
    tail = json.loads((tmp_path / "out" / "manifest.json").read_text())["summary"]["tail_bound"]
    widths = {b["method"]: b["half_width"] for b in
              json.loads((tmp_path / "out" / "band.json").read_text())}
    err = capsys.readouterr().err
    for method, width in widths.items():
        assert (f"exceeds the {method} half-width" in err) == (tail > width)
    assert ("cannot cover the truncation bias" in err) == (case == "solve-1d-workload")


def test_quadrature_norms_above_2d_exit_4_and_name_mc(tmp_path, capsys):
    problem = {**GAUSS_2D, "bounds": [[0, 1]] * 3}
    path = _write_config(tmp_path, problem=problem, grid=3, out_dir=str(tmp_path / "out"))
    assert main(["solve", "--config", str(path)]) == 4
    assert 'norms_method: "mc"' in capsys.readouterr().err


def test_geometric_mode_writes_estimate(tmp_path):
    path = _write_config(tmp_path, mode="geometric", budget=2000,
                         out_dir=str(tmp_path / "geo"))
    assert main(["geometric", "--config", str(path)]) == 0
    rows = list(csv.DictReader(open(tmp_path / "geo" / "estimate.csv")))
    assert all(r["mode"] == "geometric" for r in rows)


def test_integrate_mode(tmp_path):
    path = _write_config(tmp_path, mode="integrate", budget=20_000,
                         out_dir=str(tmp_path / "int"))
    assert main(["integrate", "--config", str(path)]) == 0
    rows = list(csv.DictReader(open(tmp_path / "int" / "estimate.csv")))
    # I(t) = S[f](t) = t/3 for this fixture
    mid = rows[5]
    assert float(mid["t_1"]) == 0.5
    assert abs(float(mid["value"]) - 0.5 / 3) < 0.01


def test_derivative_mode(tmp_path):
    path = _write_config(tmp_path, mode="derivative", budget=20_000,
                         out_dir=str(tmp_path / "der"))
    assert main(["derivative", "--config", str(path)]) == 0
    rows = list(csv.DictReader(open(tmp_path / "der" / "estimate.csv")))
    assert all(abs(float(r["value"]) - 1.5) < 0.05 for r in rows)


def test_derivative_mode_writes_the_allocation_it_runs(tmp_path):
    # the engine runs N+1 terms; allocation.json gives them and their cost
    path = _write_config(tmp_path, problem=GAUSS_PROBLEM, grid=21, budget=100_000, seed=3,
                         out_dir=str(tmp_path / "der"))
    assert main(["derivative", "--config", str(path)]) == 0
    alloc = json.loads((tmp_path / "der" / "allocation.json").read_text())
    rows = list(csv.DictReader(open(tmp_path / "der" / "estimate.csv")))
    manifest = json.loads((tmp_path / "der" / "manifest.json").read_text())
    assert alloc["N"] == manifest["summary"]["N"] + 1 == len(alloc["counts"])
    assert alloc["cost_B"] == int(rows[0]["n_used"]) == 100_006


def test_band_json_schema(tmp_path):
    path = _write_config(tmp_path, band_method="both", budget=5000,
                         out_dir=str(tmp_path / "bd"))
    assert main(["solve", "--config", str(path)]) == 0
    bands = json.loads((tmp_path / "bd" / "band.json").read_text())
    assert {b["method"] for b in bands} == {"gauss-sim", "nonasymptotic-psi"}
    for b in bands:
        assert b["delta"] == 0.05
        assert b["half_width"] >= 0
        assert b["n"] == 5000
        if b["method"] == "nonasymptotic-psi":
            # u_delta is inverted from the chaining majorant within [2, 1e3] * z_bar
            assert 2 * b["z_bar"] <= b["u_delta"] <= 1e3 * b["z_bar"]
            assert "q" not in b and "dropped_trace" not in b
        else:
            assert "z_bar" not in b
            # the t*s plug-in covariance has rank 1: one normal per simulated path
            assert b["q"] == 1
            assert 0.0 <= b["dropped_trace"] <= 2e-12


@pytest.mark.parametrize("overrides", [
    {"budget": "abc"},
    {"grid": "x"},
    {"problem": {"name": "constant", "forcing": {"kind": "const", "value": 1.0}}},
    {"problem": {"name": "separable-poly", "a": [0.0, 1.0]}},
    None,  # a top-level JSON list instead of an object
], ids=["budget-str", "grid-str", "constant-no-gamma", "separable-no-b", "top-level-list"])
def test_malformed_config_is_a_config_error(tmp_path, capsys, overrides):
    if overrides is None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps([{"problem": TS_PROBLEM}]))
    else:
        path = _write_config(tmp_path, **overrides)
    assert main(["allocate", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert "Traceback" not in err


def test_exit_code_contractivity(tmp_path, capsys):
    path = _write_config(tmp_path, problem={"name": "constant", "gamma": 1.2,
                                            "forcing": {"kind": "const", "value": 1.0}})
    assert main(["solve", "--config", str(path)]) == 3
    assert "contractivity" in capsys.readouterr().err


def test_exit_code_truncation_beyond_m_max(tmp_path, capsys):
    # K = 0.5 needs N = 17 for a 1e-5 tail; the power-norm table stops at 10
    path = _write_config(tmp_path, problem=CONST_PROBLEM, epsilon=1e-5, m_max=10)
    assert main(["solve", "--config", str(path)]) == 2
    assert "m_max = 10" in capsys.readouterr().err


@pytest.mark.parametrize("norms, basis", [("quadrature", "quadrature: a bound on the tabulated"),
                                          ("mc", "mc: relative to the Monte-Carlo estimates")])
def test_manifest_records_tail_basis(tmp_path, norms, basis):
    for command, out in (("solve", tmp_path / "s"), ("allocate", tmp_path / "a")):
        path = _write_config(tmp_path, norms_method=norms, out_dir=str(out))
        assert main([command, "--config", str(path)]) == 0
        summary = json.loads((out / "manifest.json").read_text())["summary"]
        assert summary["tail_basis"].startswith(basis)


def test_exit_code_budget(tmp_path, capsys):
    path = _write_config(tmp_path, budget=3)
    assert main(["solve", "--config", str(path)]) == 4
    assert "budget" in capsys.readouterr().err


def test_memory_error_is_a_budget_error_without_traceback(tmp_path, capsys, monkeypatch):
    # an allocation that fails inside the pipeline exits 4 and names the
    # innermost fredmc function on the way to it
    def out_of_memory(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(fredmc.cli, "estimate_covariance", out_of_memory)
    path = _write_config(tmp_path, out_dir=str(tmp_path / "oom"))
    assert main(["solve", "--config", str(path)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("budget error:") and "cli._bands_for" in err
    assert "Traceback" not in err


def test_exit_code_band_too_wide(tmp_path, capsys):
    # a miss probability far below what the moment tail can certify
    path = _write_config(tmp_path, band_method="nonasymptotic-psi", delta=1e-60)
    assert main(["solve", "--config", str(path)]) == 5
    assert "numerical" in capsys.readouterr().err


@pytest.mark.parametrize("value", [0.1, 0.05])
def test_nonpositive_chaining_majorant_is_a_config_error(tmp_path, capsys, value):
    # a small forcing makes psi < 1 on the solution profile, so v* < 0 and
    # Zbar = sigma + 9 int v* is negative (-3.3 and -11.5): the band refuses
    # it by name instead of taking its logarithm
    problem = {"name": "gauss-conv", "scale": 0.4, "kappa": 2.0,
               "forcing": {"kind": "const", "value": value}}
    path = _write_config(tmp_path, problem=problem, band_method="nonasymptotic-psi", budget=10_000,
                         grid=101, out_dir=str(tmp_path / "zbar"))
    assert main(["solve", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: the chaining majorant Zbar = -")
    assert "not finite and positive" in err and "math domain error" not in err


def test_per_term_export(tmp_path):
    path = _write_config(tmp_path, export_per_term=True, out_dir=str(tmp_path / "pt"))
    assert main(["solve", "--config", str(path)]) == 0
    rows = list(csv.DictReader(open(tmp_path / "pt" / "per_term.csv")))
    assert {r["m"] for r in rows} == {"1", "2", "3", "4"}


def test_covariance_export(tmp_path):
    path = _write_config(tmp_path, export_covariance=True, out_dir=str(tmp_path / "cv"))
    assert main(["solve", "--config", str(path)]) == 0
    lines = (tmp_path / "cv" / "covariance.csv").read_text().splitlines()
    assert len(lines) == 1 + 11  # grid header plus an 11x11 matrix
    assert len(lines[1].split(",")) == 11


@pytest.mark.parametrize("mode, refuse_sum, kind", [
    ("solve", False, "solution-profile"),
    ("solve", True, None),
    ("integrate", False, "integral-profile"),
], ids=["solution", "envelope-fallback", "integral"])
def test_band_json_names_the_psi_profile(tmp_path, monkeypatch, capsys, mode, refuse_sum, kind):
    # band.json's psi entry records which profile the band was inverted from and
    # its p support; a profile that fails admissibility is refused, never replaced
    real = fredmc.confidence.PsiFunction

    def psi_function(**fields):
        if refuse_sum and fields["kind"] == "solution-profile":
            raise ValueError("p * log psi(p) is not convex on the tabulation")
        return real(**fields)

    monkeypatch.setattr(fredmc.confidence, "PsiFunction", psi_function)
    path = _write_config(tmp_path, mode=mode, band_method="nonasymptotic-psi",
                         out_dir=str(tmp_path / "psi"))
    if refuse_sum:
        assert main([mode, "--config", str(path)]) == 2
        assert "not convex" in capsys.readouterr().err
        assert not (tmp_path / "psi" / "band.json").exists()
        return
    assert main([mode, "--config", str(path)]) == 0
    band = json.loads((tmp_path / "psi" / "band.json").read_text())
    assert band["psi_kind"] == kind
    assert band["psi_support"] == [2.0, 512.0]


def test_tail_report_in_band_json(tmp_path):
    path = _write_config(tmp_path, tail_report=True, n_sim=100_000,
                         out_dir=str(tmp_path / "tr"))
    assert main(["solve", "--config", str(path)]) == 0
    band = json.loads((tmp_path / "tr" / "band.json").read_text())
    assert "kappa_fit" in band and "C_fit" in band
    assert band["C_fit"] > 0


def test_tail_report_needs_enough_sims(tmp_path, capsys):
    path = _write_config(tmp_path, tail_report=True, n_sim=10_000)
    assert main(["validate", "--config", str(path)]) == 2
    assert "n_sim" in capsys.readouterr().err


def test_zero_n_sim_is_a_config_error(tmp_path, capsys):
    # above delta = 0.05 the 1e4 floor does not apply, so n_sim = 0 reaches
    # the simulation itself
    path = _write_config(tmp_path, delta=0.1, n_sim=0, out_dir=str(tmp_path / "ns"))
    assert main(["solve", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "n_sim" in err
    assert "Traceback" not in err


def test_seed_override_changes_estimates(tmp_path):
    path = _write_config(tmp_path, out_dir=str(tmp_path / "s1"))
    assert main(["solve", "--config", str(path)]) == 0
    assert main(["solve", "--config", str(path), "--seed", "99",
                 "--out", str(tmp_path / "s2")]) == 0
    a = (tmp_path / "s1" / "estimate.csv").read_text()
    b = (tmp_path / "s2" / "estimate.csv").read_text()
    assert a != b


def test_derivative_with_psi_band_fails_before_any_engine(tmp_path, capsys):
    out = tmp_path / "dpsi"
    path = _write_config(tmp_path, band_method="both", out_dir=str(out))
    assert main(["derivative", "--config", str(path)]) == 2
    assert "band_method" in capsys.readouterr().err
    assert not (out / "allocation.json").exists()


GAUSS_PROBLEM = {"name": "gauss-conv", "scale": 0.4, "kappa": 2.0,
                 "forcing": {"kind": "const", "value": 1.0}}


@pytest.mark.parametrize("problem, grid, rank", [(GAUSS_PROBLEM, 101, 16),
                                                 (GAUSS_PROBLEM, 11, None), (TS_PROBLEM, 11, 1)])
def test_manifest_records_first_factor(tmp_path, problem, grid, rank):
    # gauss-conv on [0, 1] with kappa = 2 needs r = 16 Chebyshev features:
    # the factored path runs on 101 grid points and not on 11 (r > G/2)
    out = tmp_path / "ff"
    path = _write_config(tmp_path, problem=problem, grid=grid, out_dir=str(out))
    assert main(["solve", "--config", str(path)]) == 0
    summary = json.loads((out / "manifest.json").read_text())["summary"]
    factor = summary["first_factor"]
    if rank is None:
        assert factor is None
        return
    assert factor["rank"] == rank
    k_sup = abs(problem.get("scale", 1.0))
    assert factor["eps_K"] <= 1e-17 * k_sup
    terms = sum(k_sup ** (m - 1) for m in range(1, summary["N"] + 1))
    assert factor["bias_bound"] == pytest.approx(factor["eps_K"] * terms, rel=1e-12, abs=0)
    assert "tail_bound" in summary


def test_perfbench_solve_2d_config_takes_the_factored_path(tmp_path):
    # perfbench's solve-2d config (21^2 grid, MC power norms, gauss-sim band,
    # covariance export) at a smaller budget: r = 210 <= 441 / 2
    out = tmp_path / "s2d"
    path = _write_config(tmp_path, problem={**GAUSS_PROBLEM, "bounds": [[0, 1], [0, 1]]},
                         budget=20_000, grid=21, norms_method="mc", m_max=8,
                         band_method="gauss-sim", export_covariance=True, workers=1, seed=101,
                         out_dir=str(out))
    assert main(["solve", "--config", str(path)]) == 0
    factor = json.loads((out / "manifest.json").read_text())["summary"]["first_factor"]
    assert factor["rank"] == 210 and factor["eps_K"] <= 1e-17 * 0.4


def test_pipeline_modes_record_one_stage_summary(tmp_path):
    # every mode that truncates writes the same stage summary into its manifest
    stage = ("N", "tail_bound", "tail_basis", "norms_accuracy")
    seen = {}
    for command in ("allocate", "solve", "derivative", "rate-study", "coverage-study"):
        out = tmp_path / command
        path = _write_config(tmp_path, budgets=[1000, 2000], replications=2, out_dir=str(out))
        assert main([command, "--config", str(path)]) == 0
        summary = json.loads((out / "manifest.json").read_text())["summary"]
        assert set(stage) <= set(summary), command
        seen[command] = {k: summary[k] for k in stage}
    assert all(s == seen["allocate"] for s in seen.values()), seen


@pytest.mark.parametrize("overrides", [{"problem": GAUSS_PROBLEM, "budget": 5, "M": 2},
                                       {"m_max": 2, "epsilon": 1e-4}],
                         ids=["budget-below-allocation-minimum", "truncation-beyond-m_max"])
def test_geometric_runs_only_the_power_norms(tmp_path, overrides):
    # a truncation or an allocation the geometric engine never uses cannot refuse its run
    out = tmp_path / "geo"
    path = _write_config(tmp_path, out_dir=str(out), **overrides)
    assert main(["geometric", "--config", str(path)]) == 0
    summary = json.loads((out / "manifest.json").read_text())["summary"]
    assert "norms_accuracy" in summary and "N" not in summary


@pytest.mark.parametrize("overrides", [{"export_covariance": True},
                                       {"tail_report": True, "n_sim": 100_000}],
                         ids=["export_covariance", "tail_report"])
def test_geometric_covariance_options_refused_by_validate_too(tmp_path, capsys, overrides):
    out = tmp_path / "geo"
    path = _write_config(tmp_path, mode="geometric", out_dir=str(out), **overrides)
    for command in ("validate", "geometric"):
        assert main([command, "--config", str(path)]) == 2
        assert "no plug-in covariance model" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, overrides, code", [
    ("coverage-study", {"replications": 2.0}, 0),
    ("solve", {"n_sim": 10000.0}, 0),
    ("solve", {"m_max": 12.0}, 0),
    ("rate-study", {"M": 10.0, "budgets": [1000, 2000.0], "replications": 1}, 0),
    ("geometric", {"M": 10.5}, 2),
    ("rate-study", {"budgets": [1000, 2000.5]}, 2),
    ("solve", {"seed": 3.5}, 2),
], ids=["replications", "n_sim", "m_max", "M-and-budgets", "M-fraction", "budgets-fraction",
        "seed-fraction"])
def test_integer_fields_take_integral_numbers_only(tmp_path, capsys, command, overrides, code):
    out = tmp_path / "out"
    path = _write_config(tmp_path, out_dir=str(out), **overrides)
    assert main([command, "--config", str(path)]) == code
    if code:
        assert "must be an integer" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("command, overrides, field", [
    ("geometric", {"M": 1}, "M"),
    ("solve", {"n_sim": -1}, "n_sim"),
    ("solve", {"m_max": 0}, "m_max"),
    ("rate-study", {"budgets": [0, 1000]}, "budgets"),
    ("rate-study", {"budgets": []}, "budgets"),
], ids=["geometric-M", "n_sim", "m_max", "budgets-entry", "budgets-empty"])
def test_validate_refuses_what_the_run_refuses(tmp_path, capsys, command, overrides, field):
    out = tmp_path / "out"
    path = _write_config(tmp_path, out_dir=str(out), **overrides)
    for cmd in ("validate", command):
        assert main([cmd, "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {field} must") and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("field, value", [("export_covariance", "no"), ("export_per_term", 1),
                                          ("tail_report", [])], ids=["str", "int", "list"])
def test_bool_fields_take_json_booleans_only(tmp_path, capsys, field, value):
    out = tmp_path / "out"
    path = _write_config(tmp_path, problem=GAUSS_PROBLEM, out_dir=str(out), **{field: value})
    for command in ("validate", "solve"):
        assert main([command, "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {field} has the wrong type")
    assert not out.exists()


def test_integral_float_budget_keeps_the_estimate(tmp_path):
    for name, budget in (("int", 100_000), ("float", 100_000.0)):
        path = _write_config(tmp_path, budget=budget, out_dir=str(tmp_path / name))
        assert main(["solve", "--config", str(path)]) == 0
    assert ((tmp_path / "int" / "estimate.csv").read_bytes()
            == (tmp_path / "float" / "estimate.csv").read_bytes())


def test_csv_artifacts_pinned_by_bytes(tmp_path):
    # the constant fixture's estimates are exact, so its tables are known to the byte:
    # UTF-8, LF line endings, shortest round-trip floats
    out = tmp_path / "const"
    path = _write_config(tmp_path, problem=CONST_PROBLEM, export_per_term=True,
                         export_covariance=True, out_dir=str(out))
    assert main(["solve", "--config", str(path)]) == 0
    ts = [repr(t) for t in np.linspace(0.0, 1.0, 11).tolist()]
    assert (out / "estimate.csv").read_bytes() == (
        "t_1,value,var,n_used,mode,seed\n"
        + "".join(f"{t},1.9921875,0.0,5019,solution,3\n" for t in ts)).encode()
    assert (out / "per_term.csv").read_bytes() == (
        "t_1,m,value\n"
        + "".join(f"{t},{m},{0.5 ** m!r}\n" for m in range(1, 8) for t in ts)).encode()
    assert (out / "covariance.csv").read_bytes() == (
        ",".join(ts) + "\n" + (",".join(["0.0"] * 11) + "\n") * 11).encode()
    for command, table, header in (("rate-study", "rates.csv", b"method,n,replication,sup_error\n"),
                                   ("coverage-study", "coverage.csv", b"replication,covered\n")):
        out = tmp_path / command
        path = _write_config(tmp_path, budgets=[1000, 2000], replications=2, out_dir=str(out))
        assert main([command, "--config", str(path)]) == 0
        data = (out / table).read_bytes()
        assert data.startswith(header) and b"\r" not in data


def test_names_the_benchmark_harness_hooks_still_exist():
    # perfbench/op.py replaces these by name and reads these arguments by name, and
    # the replication index by position: a rename fails every benchmark operation
    import inspect

    import fredmc.cli as cli
    from fredmc.allocation import BudgetAllocation
    from fredmc.confidence import v_star
    from fredmc.estimator import CovarianceModel

    assert callable(cli.validate_and_echo) and callable(cli.main) and callable(v_star)
    for name, args in (("solve_fredholm_mc", {"seed", "alloc", "collect_covariance"}),
                       ("solve_geometric", {"seed", "budget", "lam", "M"}),
                       ("simulate_sup_quantile", {"cov", "seed", "n", "n_sim", "return_sims"})):
        assert args <= set(inspect.signature(getattr(cli, name)).parameters), name
    assert isinstance(inspect.getattr_static(CovarianceModel, "Z_hat"), property)
    assert callable(BudgetAllocation.to_json)
    for name, rep_arg in (("_solve_sup_error", 5), ("_geometric_sup_error", 4),
                          ("_coverage_rep", 5)):
        assert list(inspect.signature(getattr(cli, name)).parameters)[rep_arg] == "rep", name
