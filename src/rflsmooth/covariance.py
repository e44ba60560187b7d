"""Closed-loop covariance analysis: stationary Lyapunov solve, smoothed-error
covariance evaluation, and the uncertainty sweep."""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import StationarityError
from .model import CompactPlant
from .numkernel import expm, is_hurwitz, solve_lyapunov
from .synthesis import SynthesisSolution

__all__ = [
    "ClosedLoopModel",
    "CovarianceReport",
    "SweepRow",
    "build_closed_loop",
    "smoothed_error_covariance",
    "delta_sweep",
    "write_sweep_csv",
]


@dataclass(frozen=True)
class ClosedLoopModel:
    """Stacked plant/estimator loop dX = Abold X dt + Bbold dW under a fixed
    contraction Delta closing the uncertainty channels."""

    compact: CompactPlant
    solution: SynthesisSolution
    Abold: np.ndarray
    Bbold: np.ndarray
    Delta: np.ndarray

    @property
    def n(self) -> int:
        return self.compact.n

    def is_hurwitz(self) -> bool:
        return is_hurwitz(self.Abold)


@dataclass(frozen=True)
class CovarianceReport:
    """Stationary covariance P, lag transition matrix Phi, and the smoothed
    (Psa) and filter-only (Pf) error covariances."""

    P: np.ndarray
    Phi: np.ndarray
    Psa: np.ndarray
    Pf: np.ndarray
    delta2: float


@dataclass(frozen=True)
class SweepRow:
    delta2: float
    psa: float
    pf: float
    hurwitz: bool


def build_closed_loop(compact: CompactPlant, sol: SynthesisSolution,
                      delta1: float = 0.0, delta2: float = 0.0,
                      tol: float = 1e-12) -> ClosedLoopModel:
    """Close the loop with Delta = diag(delta1 I_r, delta2 I_g, delta2 I_g).

    delta1 scales the parametric-uncertainty channels, delta2 the
    measurement-nonlinearity channel and its estimator copy.  Both must lie
    in the unit interval in magnitude.
    """
    for name, val in (("delta1", delta1), ("delta2", delta2)):
        if abs(val) > 1.0 + tol:
            raise ValueError(f"{name} must satisfy |{name}| <= 1, got {val}")
    g = compact.g
    delta = np.diag(np.concatenate([
        np.full(compact.r, float(delta1)),
        np.full(g, float(delta2)),
        np.full(g, float(delta2)),
    ]))
    bt1, ct1 = compact.Bt1, compact.Ct1
    dt12, dt21, ct2 = compact.Dt12, compact.Dt21, compact.Ct2
    ac, bc, cc = sol.Ac, sol.Bc_tilde, sol.Cc_tilde
    n = compact.n
    abold = np.empty((2 * n, 2 * n))
    abold[:n, :n] = compact.aug.Ap + bt1 @ delta @ ct1
    abold[:n, n:] = bt1 @ delta @ dt12 @ cc
    abold[n:, :n] = bc @ ct2 + bc @ dt21 @ delta @ ct1
    abold[n:, n:] = ac + bc @ dt21 @ delta @ dt12 @ cc
    bbold = np.vstack([compact.Bp1w, bc @ compact.Db21])
    return ClosedLoopModel(compact=compact, solution=sol,
                           Abold=abold, Bbold=bbold, Delta=delta)


def smoothed_error_covariance(loop: ClosedLoopModel, lag: float = None) -> CovarianceReport:
    """Evaluate the stationary smoothed-error covariance.

        Psa = cw P cw' - ca Phi P cw' - (ca Phi P cw')' + ca P ca'

    with cw = [Cp0, 0] selecting the estimated plant output, ca = [0, Ca]
    selecting the delayed readout of the estimator state, and
    Phi = e^(Abold * lag).  The cross term is symmetrized so Psa is symmetric
    by construction.  Also returns the filter-only error covariance Pf built
    from the estimator output rows against Cp0.

    Raises StationarityError, from the Lyapunov solve, when the loop is not Hurwitz.
    """
    compact = loop.compact
    if lag is None:
        lag = compact.aug.delay.delta
    n = compact.n
    p = solve_lyapunov(loop.Abold, loop.Bbold @ loop.Bbold.T)
    phi = expm(loop.Abold, lag)
    cw = np.hstack([compact.aug.Cp0, np.zeros((compact.m, n))])
    ca = np.hstack([np.zeros((compact.m, n)), compact.aug.Ca])
    cross = ca @ phi @ p @ cw.T
    psa = cw @ p @ cw.T - cross - cross.T + ca @ p @ ca.T
    cf = cw - np.hstack([np.zeros((compact.m, n)), loop.solution.Cc])
    pf = cf @ p @ cf.T
    return CovarianceReport(P=p, Phi=phi, Psa=psa, Pf=pf,
                            delta2=float(loop.Delta[-1, -1]) if loop.Delta.size else 0.0)


def delta_sweep(compact: CompactPlant, sol: SynthesisSolution, grid,
                delta1: float = 0.0) -> list[SweepRow]:
    """Evaluate (Psa, Pf) over a grid of measurement-uncertainty levels
    delta2 in [-1, 0].  Points where the loop loses stability are flagged
    rather than filled.  The returned table is sorted by delta2.
    """
    grid = np.asarray(grid, dtype=float)
    if np.any(grid < -1.0) or np.any(grid > 0.0):
        raise ValueError("delta2 grid must lie within [-1, 0]")
    rows = []
    for d2 in sorted(grid):
        loop = build_closed_loop(compact, sol, delta1=delta1, delta2=float(d2))
        try:
            rep = smoothed_error_covariance(loop)
            psa, pf, stable = float(rep.Psa[0, 0]), float(rep.Pf[0, 0]), True
        except StationarityError:
            psa, pf, stable = float("nan"), float("nan"), False
        rows.append(SweepRow(delta2=float(d2), psa=psa, pf=pf, hurwitz=stable))
    return rows


def write_sweep_csv(rows: list[SweepRow], path, filter_output: str = "estimator-output-row") -> None:
    """Emit the sweep table as CSV with the fixed schema delta2,psa,pf,hurwitz."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(f"# filter_covariance_output={filter_output}\n")
        writer = csv.writer(fh)
        writer.writerow(["delta2", "psa", "pf", "hurwitz"])
        for row in rows:
            writer.writerow([repr(row.delta2), repr(row.psa), repr(row.pf),
                             int(row.hurwitz)])
