"""Each output check of the benchmark accepts the program's real output and
rejects a deliberately wrong one.

    python3 -m pytest -q bench/checks_selftest.py

The file name keeps it out of the repository's own test collection.
"""

import json
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

import checks

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
from rflsmooth import cli  # noqa: E402

BUNDLED = ROOT / "src" / "rflsmooth" / "data" / "phase_estimation.cfg"
MC_RUNS = 40


def _run(*argv):
    assert cli.main([str(a) for a in argv]) == 0


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Real outputs of a pinned synth, two sweeps and a short Monte Carlo pair."""
    tmp = tmp_path_factory.mktemp("outputs")
    doc = checks.read_config(BUNDLED)
    doc["simulation"]["horizon"] = 2e-4
    cfg = tmp / "short.cfg"
    checks.write_config(cfg, doc)
    rerun = dict(doc, simulation=dict(doc["simulation"], batch=5))
    checks.write_config(tmp / "rerun.cfg", rerun)
    _run("synth", "--config", cfg, "--out-dir", tmp / "synth")
    _run("sweep", "--config", cfg, "--grid", 11, "--out-dir", tmp / "balanced")
    _run("sweep", "--config", cfg, "--grid", 11, "--out-dir", tmp / "paper",
         "--paper-realization")
    for est in ("smoother", "ngcf"):
        _run("mc", "--config", cfg, "--runs", MC_RUNS, "--estimator", est, "--seed", 3,
             "--save-errors", "--out-dir", tmp / est)
    _run("mc", "--config", tmp / "rerun.cfg", "--runs", 5, "--estimator", "smoother",
         "--seed", 3, "--save-errors", "--out-dir", tmp / "rerun")
    sol = checks.load_solution(tmp / "synth" / "synthesis.json")
    plant = checks.plant_from_doc(doc)
    return {"dir": tmp, "doc": doc, "plant": plant, "sol": sol,
            "lag": doc["delay"]["delta"],
            "balanced": checks.load_sweep(tmp / "balanced" / "sweep.csv"),
            "paper": checks.load_sweep(tmp / "paper" / "sweep.csv"),
            "prediction": checks.mc_prediction(plant, sol, doc["simulation"])}


def _mc(outputs, name):
    report = json.loads((outputs["dir"] / name / "monte_carlo.json").read_text())
    return report, checks.load_errors(outputs["dir"] / name / "errors.csv")


def test_certificates(outputs):
    sol = outputs["sol"]
    assert checks.check_certificates(sol) == []
    assert checks.check_certificates(dict(sol, Y=-sol["Y"]))
    assert checks.check_certificates(dict(sol, tau=0.5 * sol["rho_yx"]))
    assert checks.check_certificates(dict(sol, Vtau=0.2))


def test_loop_hurwitz_rejects_unstable_loop(outputs):
    sol, plant = outputs["sol"], outputs["plant"]
    assert checks.check_loop_hurwitz(plant, sol) == []
    unstable = dict(sol, Ac=sol["Ac"] + 1e7 * np.eye(sol["Ac"].shape[0]))
    assert checks.check_loop_hurwitz(plant, unstable)


def test_sweep_rows_reject_broken_properties(outputs):
    rows = outputs["balanced"]
    assert checks.check_sweep_rows(rows) == []
    bump = rows.copy()
    bump[3, 1] = bump[2, 1] * 1.01             # Psa grows as |delta2| shrinks
    assert checks.check_sweep_rows(bump)
    swapped = rows[:, [0, 2, 1, 3]]           # Psa and Pf exchanged
    assert checks.check_sweep_rows(swapped)
    unstable = rows.copy()
    unstable[0, 3] = 0
    assert checks.check_sweep_rows(unstable)


def test_sweep_recomputed_rejects_perturbed_gain(outputs):
    sol, plant, rows, lag = outputs["sol"], outputs["plant"], outputs["balanced"], outputs["lag"]
    picks = range(len(rows))
    assert checks.check_sweep_recomputed(plant, sol, rows, lag, picks) == []
    perturbed = dict(sol, Bc_tilde=sol["Bc_tilde"] * 1.01)
    assert checks.check_sweep_recomputed(plant, perturbed, rows, lag, picks)


def test_same_sweep_rejects_realization_mismatch(outputs):
    paper, balanced = outputs["paper"], outputs["balanced"]
    assert checks.check_same_sweep(paper, balanced) == []
    off = paper.copy()
    off[5, 1] *= 1 + 1e-6
    assert checks.check_same_sweep(off, balanced)


def test_converges_rejects_growing_steps():
    nominal = [0.08157, 0.077054, 0.076787, 0.076709, 0.076682, 0.076670]
    assert checks.check_converges(nominal) == []
    assert checks.check_converges(nominal[:3] + [0.0770, 0.0766, 0.0771])


def test_mc_report_rejects_wrong_levels(outputs):
    pred_s, _ = outputs["prediction"]
    report, errors = _mc(outputs, "smoother")
    assert checks.check_mc_report(report, errors, MC_RUNS, pred_s, "smoother") == []
    assert checks.check_mc_report(report, errors, MC_RUNS, 3.0 * pred_s, "smoother")
    diverged = dict(report, runs_diverged=1, runs_completed=MC_RUNS - 1)
    assert checks.check_mc_report(diverged, errors[:-1], MC_RUNS, pred_s, "smoother")
    assert checks.check_mc_report(report, errors * 1.1, MC_RUNS, pred_s, "smoother")


def test_mc_pair_rejects_swapped_readouts(outputs):
    _, smoother = _mc(outputs, "smoother")
    _, filt = _mc(outputs, "ngcf")
    assert checks.check_mc_pair(smoother, filt) == []
    assert checks.check_mc_pair(filt, smoother)


def test_rerun_rejects_other_errors(outputs):
    _, main = _mc(outputs, "smoother")
    _, rerun = _mc(outputs, "rerun")
    assert checks.check_rerun(main, rerun) == []
    assert checks.check_rerun(main, rerun * (1 + 1e-9))
    assert checks.check_rerun(main[1:], rerun)


def test_manifest_rejects_altered_artifact(outputs, tmp_path):
    out = tmp_path / "synth"
    shutil.copytree(outputs["dir"] / "synth", out)
    assert checks.check_manifest(out) == []
    with open(out / "synthesis.json", "a", encoding="utf-8") as fh:
        fh.write(" ")
    assert checks.check_manifest(out)


def test_mc_prediction_is_the_linearized_loop(outputs):
    smoother, filt = outputs["prediction"]
    assert smoother == pytest.approx(0.0500, abs=5e-4)
    assert filt == pytest.approx(0.0846, abs=5e-4)
