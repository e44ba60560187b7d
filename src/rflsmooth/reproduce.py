"""Consolidated reproduction report for the bundled phase-estimation example.

Every computed quantity is compared against its published reference value
with an explicit tolerance rule, and the structural certificates (Riccati
residuals, definiteness, coupling, closed-loop stability, sweep properties)
are checked alongside.  Matrix entries are compared only where the
reference entry is significant, i.e. its magnitude exceeds `sig_frac` times
the Frobenius norm of the reference matrix; smaller entries are below the
precision the references are quoted at.
"""

from __future__ import annotations

import numpy as np

from .covariance import delta_sweep
from .errors import StationarityError
from .example import (
    REFERENCE,
    OpticalParameters,
    phase_estimation_compact,
    reference_scaling_point,
)
from .numkernel import _eigvalsh, care_threshold
from .synthesis import compute_gains, feasible

__all__ = ["matrix_check", "run_reproduction"]

GAIN_RTOL = 0.05
VTAU_RTOL = 0.15
SIG_FRAC = 1e-3
SWEEP_POINTS = 21


def matrix_check(name, computed, reference, rtol=GAIN_RTOL, sig_frac=SIG_FRAC):
    """Compare significant entries of `computed` against `reference`.

    Returns a result dict with the worst relative deviation over compared
    entries and the pass flag.
    """
    computed = np.asarray(computed, dtype=float)
    reference = np.asarray(reference, dtype=float)
    if computed.shape != reference.shape:
        return {"name": name, "passed": False, "worst_rel": None,
                "compared": 0, "detail": f"shape {computed.shape} != {reference.shape}"}
    threshold = sig_frac * np.linalg.norm(reference, "fro")
    mask = np.abs(reference) > threshold
    if not mask.any():
        return {"name": name, "passed": True, "worst_rel": 0.0, "compared": 0,
                "detail": "no significant entries"}
    rel = np.abs(computed[mask] - reference[mask]) / np.abs(reference[mask])
    worst = float(rel.max())
    return {"name": name, "passed": bool(worst <= rtol), "worst_rel": worst,
            "compared": int(mask.sum()),
            "detail": f"worst relative deviation {worst:.3e} over {int(mask.sum())} entries"}


def _scalar_check(name, computed, reference, rtol):
    rel = abs(computed - reference) / abs(reference)
    return {"name": name, "passed": bool(rel <= rtol), "worst_rel": float(rel),
            "compared": 1,
            "detail": f"computed {computed:.6g} vs reference {reference:.6g} "
                      f"(rel {rel:.3e}, tol {rtol})"}


def _flag_check(name, passed, detail):
    return {"name": name, "passed": bool(passed), "worst_rel": None,
            "compared": None, "detail": detail}


def run_reproduction(realization: str = "paper",
                     params: OpticalParameters = OpticalParameters()) -> dict:
    """Build the example, synthesize at the published scaling point, and
    compare everything against the published references.  The loop flags and
    the nominal levels are read from the sweep's end points, delta2 = -1 and 0.

    With realization="balanced" the gain matrices differ from the published
    ones by a state-space similarity of the delay states, so only the
    similarity-invariant quantities (Vtau, covariances, stability) are
    compared.
    """
    compact = phase_estimation_compact(params, realization=realization)
    point = reference_scaling_point()
    checks = []

    ok, margin = feasible(compact, point)
    checks.append(_flag_check("lambda_feasible", ok,
                              f"published scaling vector margin {margin:.6e}"))

    sol = compute_gains(compact, point)
    compare_gains = realization == "paper"
    if compare_gains:
        checks.append(matrix_check("Ap", compact.aug.Ap, REFERENCE["Ap"]))
        checks.append(matrix_check("Bt1", compact.Bt1, REFERENCE["Bt1"]))
        checks.append(matrix_check("Ct1", compact.Ct1, REFERENCE["Ct1"]))
        checks.append(matrix_check("Dt12", compact.Dt12, REFERENCE["Dt12"]))
        checks.append(matrix_check("Ct2", compact.Ct2, REFERENCE["Ct2"]))
        checks.append(matrix_check("Db21", compact.Db21, REFERENCE["Db21"], rtol=0.08))
        checks.append(matrix_check("Ac", sol.Ac, REFERENCE["Ac"]))
        checks.append(matrix_check("Bc_tilde", sol.Bc_tilde, REFERENCE["Bc_tilde"]))
        checks.append(matrix_check("Cc_tilde", sol.Cc_tilde, REFERENCE["Cc_tilde"]))

    checks.append(_scalar_check("Vtau", sol.Vtau, REFERENCE["Vtau"], VTAU_RTOL))
    checks.append(_flag_check(
        "riccati_residuals",
        sol.residual_y <= care_threshold(sol.Y) and sol.residual_x <= care_threshold(sol.X),
        f"residual_y {sol.residual_y:.3e}, residual_x {sol.residual_x:.3e}"))
    ymin, xmin = _eigvalsh(sol.Y).min(), _eigvalsh(sol.X).min()
    checks.append(_flag_check("Y_positive_definite", ymin > 0, f"min eig(Y) = {ymin:.3e}"))
    checks.append(_flag_check("X_positive_semidefinite", xmin >= -1e-12,
                              f"min eig(X) = {xmin:.3e}"))
    checks.append(_flag_check("coupling", sol.rho_yx < point.tau,
                              f"rho(YX) = {sol.rho_yx:.6e} < tau = {point.tau:.6e}"))

    rows = delta_sweep(compact, sol, np.linspace(-1.0, 0.0, SWEEP_POINTS))
    worst, nominal = rows[0], rows[-1]
    for name, row in (("nominal_loop_hurwitz", nominal), ("worst_case_loop_hurwitz", worst)):
        checks.append(_flag_check(name, row.hurwitz, f"max Re eig = {row.abscissa:.6g}"))
    if not nominal.hurwitz:
        raise StationarityError("closed loop is not Hurwitz; no stationary covariance "
                                f"exists (max Re eig = {nominal.abscissa:.6g})")
    psa = np.array([r.psa for r in rows])
    pf = np.array([r.pf for r in rows])
    dominance = bool(np.all(psa <= pf))
    monotone = bool(np.all(np.diff(psa) <= 1e-12) and np.all(np.diff(pf) <= 1e-12))
    checks.append(_flag_check("sweep_smoother_dominates", dominance,
                              "Psa <= Pf at every sweep point"))
    checks.append(_flag_check("sweep_monotone", monotone,
                              "Psa, Pf nondecreasing in |delta2|"))

    report = {
        "realization": realization,
        "tau": point.tau,
        "lambda": point.lam.tolist(),
        "Vtau": sol.Vtau,
        "rho_yx": sol.rho_yx,
        "nominal_Psa": nominal.psa,
        "nominal_Pf": nominal.pf,
        "checks": checks,
        "passed": all(c["passed"] for c in checks),
        "sweep": rows,
        "solution": sol,
        "compact": compact,
    }
    return report


def format_report(report: dict) -> str:
    lines = [f"reproduction report (realization={report['realization']})"]
    for c in report["checks"]:
        status = "PASS" if c["passed"] else "FAIL"
        lines.append(f"  [{status}] {c['name']}: {c['detail']}")
    lines.append(f"  Vtau = {report['Vtau']:.6g}, rho(YX) = {report['rho_yx']:.6g}")
    lines.append(f"  nominal Psa = {report['nominal_Psa']:.6g}, "
                 f"Pf = {report['nominal_Pf']:.6g}")
    lines.append("overall: " + ("PASS" if report["passed"] else "FAIL"))
    return "\n".join(lines)
