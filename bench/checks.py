"""Checks of the CLI's outputs, computed with NumPy/SciPy apart from the program.

Nothing here imports rflsmooth.  Each check takes parsed outputs and returns a
list of problems; an empty list means the output passed.

The closed loop is rebuilt from the written estimator matrices and the plant
matrices of the configuration.  The plant's own delay states are left out:
they are driven by the plant output but feed neither the measurement, the
nonlinearity channels nor the estimated output, so the covariances of the
remaining states, and every error covariance below, do not depend on them.
"""

from __future__ import annotations

import configparser
import csv
import hashlib
import json
import math
import re
from pathlib import Path

import numpy as np
import scipy.linalg as sla

VTAU_MAX = 0.16            # published optimum 0.15, with the acceptance margin
SWEEP_RTOL = 1e-8          # CSV point against the SciPy recomputation
REALIZATION_RTOL = 1e-9    # order 2, balanced against paper realization
MONOTONE_ATOL = 1e-12      # same slack as the acceptance suite
CONVERGED_RTOL = 1e-3      # last Pade-order step of the nominal Psa
MC_LEVEL_SE = 4.0          # MC level against the linearized Lyapunov prediction
MC_RATIO_SE = 4.0          # filter/smoother ratio against [1.15, 2.0]
MC_RATIO_RANGE = (1.15, 2.0)
RERUN_RTOL = 1e-12         # per-run errors across batch sizes


# ---------------------------------------------------------------- parsing

def read_config(path) -> dict:
    """INI sections whose values are JSON literals, as the CLI reads them."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    with open(path, encoding="utf-8") as fh:
        parser.read_file(fh)
    return {s: {k: json.loads(v) for k, v in parser.items(s)} for s in parser.sections()}


def write_config(path, doc: dict) -> None:
    lines = []
    for section, values in doc.items():
        lines.append(f"[{section}]")
        lines.extend(f"{k} = {json.dumps(v)}" for k, v in values.items())
        lines.append("")
    Path(path).write_text("\n".join(lines), encoding="utf-8")


def plant_from_doc(doc: dict) -> dict:
    """Plant matrices of the [plant] section, nonlinearity channels stacked."""
    sec = doc["plant"]
    p = {k: np.asarray(sec[k], dtype=float) for k in ("a", "b1", "c0", "c2", "d21")}
    p["b1_nl"] = np.hstack([np.asarray(m, dtype=float) for m in sec["b1_nl"]])
    p["c1_nl"] = np.vstack([np.asarray(m, dtype=float) for m in sec["c1_nl"]])
    p["d21_nl"] = np.hstack([np.asarray(m, dtype=float) for m in sec["d21_nl"]])
    return p


def load_solution(path) -> dict:
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    sol = {k: v for k, v in doc.items() if not isinstance(v, dict)}
    for k, v in doc.items():
        if isinstance(v, dict) and "data" in v:
            sol[k] = np.asarray(v["data"], dtype=float).reshape(v["rows"], v["cols"])
    return sol


def load_sweep(path) -> np.ndarray:
    """Rows (delta2, psa, pf, hurwitz) of a sweep CSV."""
    with open(path, encoding="utf-8", newline="") as fh:
        rows = [r for r in csv.reader(line for line in fh if not line.startswith("#"))]
    if rows[0] != ["delta2", "psa", "pf", "hurwitz"]:
        raise ValueError(f"unexpected sweep header {rows[0]}")
    return np.array([[float(x) for x in r] for r in rows[1:]])


_WRAPPED = re.compile(r"^np\.float64\((.*)\)$")


def load_errors(path) -> np.ndarray:
    """Per-run terminal errors of errors.csv.  Lines written as the NumPy
    repr `np.float64(x)` are read as x."""
    lines = Path(path).read_text(encoding="utf-8").split()
    if lines[0] != "run_error":
        raise ValueError(f"unexpected errors.csv header {lines[0]!r}")
    return np.array([float(_WRAPPED.sub(r"\1", s)) for s in lines[1:]])


# ---------------------------------------------------------------- linear algebra

def _split(sol: dict, plant: dict):
    l, m = plant["c2"].shape[0], plant["c0"].shape[0]
    bct, cct = sol["Bc_tilde"], sol["Cc_tilde"]
    return bct[:, :l], bct[:, l:], cct[:m], cct[m:]


def sweep_loop(plant: dict, sol: dict, delta2: float):
    """Plant/estimator loop (states [x, xhat]) with the nonlinearity channel
    and its estimator copy closed by delta2, driven by the physical noise and
    the copy channel's regularizing noise."""
    bc, gc, _, kc = _split(sol, plant)
    a, b1, c2, d21 = plant["a"], plant["b1"], plant["c2"], plant["d21"]
    b1nl, c1nl, d21nl = plant["b1_nl"], plant["c1_nl"], plant["d21_nl"]
    nbar, n, g = a.shape[0], sol["Ac"].shape[0], gc.shape[1]
    acl = np.block([
        [a + delta2 * b1nl @ c1nl, np.zeros((nbar, n))],
        [bc @ (c2 + delta2 * d21nl @ c1nl), sol["Ac"] + delta2 * gc @ kc],
    ])
    bcl = np.block([
        [b1, np.zeros((nbar, g))],
        [bc @ d21, gc],
    ])
    return acl, bcl


def sweep_point(plant: dict, sol: dict, delta2: float, lag: float):
    """(Psa, Pf) of one sweep point: stationary covariance by Bartels-Stewart,
    lag transition by SciPy's expm."""
    acl, bcl = sweep_loop(plant, sol, delta2)
    p = sla.solve_continuous_lyapunov(acl, -bcl @ bcl.T)
    phi = sla.expm(acl * lag)
    nbar = plant["a"].shape[0]
    n = sol["Ac"].shape[0]
    _, _, cc, _ = _split(sol, plant)
    cw = np.hstack([plant["c0"], np.zeros((1, n))])
    ca = np.hstack([np.zeros((1, nbar)), sol["Ca"]])
    cf = np.hstack([plant["c0"], -cc])
    cross = (ca @ phi @ p @ cw.T)[0, 0]
    psa = (cw @ p @ cw.T)[0, 0] - 2.0 * cross + (ca @ p @ ca.T)[0, 0]
    return float(psa), float((cf @ p @ cf.T)[0, 0])


def mc_prediction(plant: dict, sol: dict, sim: dict):
    """Stationary (smoother, filter) error variances of the homodyne loop
    linearized at zero phase error, without the copy channel's regularizing
    noise, which the physical loop does not have.

    sin(phi - phihat) ~ phi - phihat and psi(nu) ~ (1 - beta) nu / (2 alpha gamma).
    """
    bc, gc, cc, kc = _split(sol, plant)
    lam, kappa = sim["lambda_ou"], sim["kappa"]
    alpha, beta, gamma = sim["alpha"], sim.get("beta_slope", 1.0), sim["gamma"]
    noise = sim.get("meas_noise_scale", 1.0)
    lag = sim["delta"]
    n = sol["Ac"].shape[0]
    a_est = sol["Ac"] + gc @ kc * (1.0 - beta) / (2 * alpha * gamma) + bc @ cc * (1.0 - 1.0 / beta)
    a = np.block([[np.array([[-lam]]), np.zeros((1, n))], [bc / beta, a_est]])
    b = np.block([[np.array([[math.sqrt(kappa), 0.0]])],
                  [np.zeros((n, 1)), bc * noise / (2 * alpha * beta)]])
    p = sla.solve_continuous_lyapunov(a, -b @ b.T)
    phi = sla.expm(a * lag)
    e_phi = np.hstack([[[1.0]], np.zeros((1, n))])
    ca = np.hstack([[[0.0]], sol["Ca"]])
    smoother = (ca @ p @ ca.T)[0, 0] - 2.0 * (ca @ phi @ p @ e_phi.T)[0, 0] + p[0, 0]
    cf = np.hstack([[[-1.0]], cc])
    return float(smoother), float((cf @ p @ cf.T)[0, 0])


# ---------------------------------------------------------------- checks

def check_certificates(sol: dict, vtau_max: float = VTAU_MAX) -> list:
    """Y > 0, X >= 0, rho(YX) < tau and V <= vtau_max, by own eigenvalues."""
    problems = []
    y, x, tau = sol["Y"], sol["X"], sol["tau"]
    ymin = np.linalg.eigvalsh(0.5 * (y + y.T)).min()
    xmin = np.linalg.eigvalsh(0.5 * (x + x.T)).min()
    rho = np.abs(np.linalg.eigvals(y @ x)).max()
    if not ymin > 0:
        problems.append(f"Y not positive definite (min eig {ymin:.3e})")
    if xmin < -1e-10 * (1.0 + np.linalg.norm(x)):
        problems.append(f"X not positive semidefinite (min eig {xmin:.3e})")
    if not rho < tau:
        problems.append(f"rho(YX) = {rho:.6e} not below tau = {tau:.6e}")
    if not sol["Vtau"] <= vtau_max:
        problems.append(f"Vtau = {sol['Vtau']:.6g} above {vtau_max}")
    return problems


def check_loop_hurwitz(plant: dict, sol: dict) -> list:
    """The loop built from the written Ac, Bc~, Cc~ is Hurwitz at the nominal
    point and at the worst nonlinearity level."""
    problems = []
    for d2 in (0.0, -1.0):
        acl, _ = sweep_loop(plant, sol, d2)
        top = np.linalg.eigvals(acl).real.max()
        if not top < 0:
            problems.append(f"loop not Hurwitz at delta2 = {d2} (max Re eig {top:.6g})")
    return problems


def check_sweep_rows(rows: np.ndarray) -> list:
    """Every point stable, Psa <= Pf, both nondecreasing in |delta2|."""
    problems = []
    d2, psa, pf, hurwitz = rows.T
    if rows.shape[0] < 2:
        return [f"sweep has {rows.shape[0]} points"]
    if not np.all(np.diff(d2) > 0) or d2[0] != -1.0 or d2[-1] != 0.0:
        problems.append("delta2 grid is not an increasing grid over [-1, 0]")
    if not np.all(hurwitz == 1):
        problems.append(f"{int(np.sum(hurwitz != 1))} points not stable")
    if not np.all(psa <= pf):
        problems.append(f"Psa > Pf at {int(np.sum(~(psa <= pf)))} points")
    # rows run from delta2 = -1 to 0, so |delta2| falls along them
    for name, col in (("Psa", psa), ("Pf", pf)):
        if not np.all(np.diff(col) <= MONOTONE_ATOL):
            problems.append(f"{name} decreases somewhere as |delta2| grows")
    return problems


def check_sweep_recomputed(plant: dict, sol: dict, rows: np.ndarray, lag: float,
                           picks) -> list:
    """The sampled CSV points agree with the SciPy recomputation."""
    problems = []
    for i in picks:
        d2, psa, pf, _ = rows[i]
        want = sweep_point(plant, sol, d2, lag)
        for name, got, ref in (("Psa", psa, want[0]), ("Pf", pf, want[1])):
            if not abs(got - ref) <= SWEEP_RTOL * abs(ref):
                problems.append(f"{name}({d2:.4f}) = {got!r}, SciPy gives {ref!r}")
    return problems


def check_same_sweep(rows: np.ndarray, reference: np.ndarray) -> list:
    """Two realizations of one plant give the same covariances to rounding."""
    if rows.shape != reference.shape or not np.array_equal(rows[:, 0], reference[:, 0]):
        return ["sweeps are on different grids"]
    worst = float(np.max(np.abs(rows[:, 1:3] - reference[:, 1:3]) / np.abs(reference[:, 1:3])))
    if not worst <= REALIZATION_RTOL:
        return [f"realizations differ by {worst:.3e} relative (> {REALIZATION_RTOL})"]
    return []


def check_converges(nominal_psa: list) -> list:
    """Nominal Psa over increasing Pade orders: each step smaller than the one
    before, the last below CONVERGED_RTOL of the value."""
    steps = np.abs(np.diff(np.asarray(nominal_psa, dtype=float)))
    problems = []
    if not np.all(np.diff(steps) < 0):
        problems.append(f"order-to-order steps do not shrink: {steps.tolist()}")
    if not steps[-1] <= CONVERGED_RTOL * abs(nominal_psa[-1]):
        problems.append(f"last order step {steps[-1]:.3e} above {CONVERGED_RTOL} relative")
    return problems


def check_mc_report(report: dict, errors: np.ndarray, runs: int, prediction: float,
                    name: str) -> list:
    """No divergence, the written errors reproduce the written level, and the
    level lies within MC_LEVEL_SE standard errors of the prediction."""
    problems = []
    if report["runs_diverged"] != 0 or report["runs_completed"] != runs:
        problems.append(f"{name}: {report['runs_completed']} of {runs} runs completed, "
                        f"{report['runs_diverged']} diverged")
    if errors.size != report["runs_completed"]:
        problems.append(f"{name}: {errors.size} errors written for "
                        f"{report['runs_completed']} runs")
        return problems
    level, se = report["error_covariance"], report["standard_error"]
    sq = errors ** 2
    if not math.isclose(float(np.mean(sq)), level, rel_tol=1e-12):
        problems.append(f"{name}: written errors give {np.mean(sq)!r}, report says {level!r}")
    if not math.isclose(float(np.std(sq, ddof=1) / math.sqrt(sq.size)), se, rel_tol=1e-9):
        problems.append(f"{name}: written errors do not give the reported standard error")
    if not abs(level - prediction) <= MC_LEVEL_SE * se:
        problems.append(f"{name}: level {level:.5f} +- {se:.5f} is "
                        f"{abs(level - prediction) / se:.1f} SE from the prediction "
                        f"{prediction:.5f}")
    return problems


def check_mc_pair(smoother: np.ndarray, filt: np.ndarray) -> list:
    """Smoother below filter on the same runs; the filter/smoother ratio is
    consistent with MC_RATIO_RANGE within MC_RATIO_SE standard errors (delta
    method on the paired squared errors)."""
    if smoother.size != filt.size or smoother.size < 2:
        return ["smoother and filter readouts cover different runs"]
    s, f = smoother ** 2, filt ** 2
    ms, mf = float(np.mean(s)), float(np.mean(f))
    problems = []
    if not ms < mf:
        problems.append(f"smoother level {ms:.5f} not below filter level {mf:.5f}")
    ratio = mf / ms
    cov = np.cov(np.vstack([f, s])) / s.size
    rel_var = cov[0, 0] / mf ** 2 + cov[1, 1] / ms ** 2 - 2 * cov[0, 1] / (mf * ms)
    se = ratio * math.sqrt(max(rel_var, 0.0))
    lo, hi = MC_RATIO_RANGE
    if ratio + MC_RATIO_SE * se < lo or ratio - MC_RATIO_SE * se > hi:
        problems.append(f"ratio {ratio:.3f} +- {se:.3f} is outside [{lo}, {hi}] "
                        f"by more than {MC_RATIO_SE} SE")
    return problems


def check_rerun(main: np.ndarray, rerun: np.ndarray) -> list:
    """Per-run errors of a re-run at another batch size match the main run."""
    if rerun.size == 0 or rerun.size > main.size:
        return [f"re-run wrote {rerun.size} errors"]
    ref = main[: rerun.size]
    worst = float(np.max(np.abs(rerun - ref) / np.maximum(1.0, np.abs(ref))))
    if not worst <= RERUN_RTOL:
        return [f"re-run errors differ from the main run by {worst:.3e}"]
    return []


def check_manifest(out_dir) -> list:
    """manifest.json lists a SHA-256 that matches every artifact it names."""
    out_dir = Path(out_dir)
    manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
    problems = []
    for name, digest in manifest["checksums"].items():
        path = out_dir / name
        if not path.is_file():
            problems.append(f"manifest names missing artifact {name}")
        elif hashlib.sha256(path.read_bytes()).hexdigest() != digest:
            problems.append(f"checksum of {name} does not match the manifest")
    if not manifest["checksums"]:
        problems.append("manifest lists no artifact")
    return problems
