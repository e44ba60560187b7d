"""Closed-loop covariance analysis: stationary Lyapunov solve, smoothed-error
covariance evaluation, and the uncertainty sweep."""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import StationarityError
from .model import CompactPlant
from .numkernel import _lyapunov_stack, _schur_abscissa, expm
from .synthesis import SynthesisSolution

__all__ = ["ClosedLoopModel", "CovarianceReport", "SweepRow", "build_closed_loop",
           "smoothed_error_covariance", "delta_sweep", "write_sweep_csv"]


@dataclass(frozen=True)
class ClosedLoopModel:
    """Stacked plant/estimator loop dX = Abold X dt + Bbold dW under a fixed
    contraction Delta closing the uncertainty channels, delta2 its
    measurement-nonlinearity level (Delta holds no entry of it when g = 0)."""

    compact: CompactPlant
    solution: SynthesisSolution
    Abold: np.ndarray
    Bbold: np.ndarray
    Delta: np.ndarray
    delta2: float = 0.0

    def is_hurwitz(self) -> bool:
        return bool(_schur_abscissa(self.Abold)[2] < 0)


@dataclass(frozen=True)
class CovarianceReport:
    """Stationary covariance P and lag transition matrix Phi over the states [x; x^],
    and the smoothed (Psa) and filter-only (Pf) error covariances."""

    P: np.ndarray
    Phi: np.ndarray
    Psa: np.ndarray
    Pf: np.ndarray
    delta2: float


@dataclass(frozen=True)
class SweepRow:
    """A sweep point; Psa and Pf are NaN where the abscissa, max Re eig, is >= 0."""

    delta2: float
    psa: float
    pf: float
    abscissa: float

    @property
    def hurwitz(self) -> bool:
        return self.abscissa < 0


def _loops(compact: CompactPlant, sol: SynthesisSolution, delta1: float, delta2: np.ndarray):
    """Abold closed at each entry of the 1-D `delta2`, as a (k, 2n, 2n) stack,
    with Bbold (no Delta enters it) and the Delta stack.  Delta is block diagonal,
    delta1 I(r_s, h_s) per uncertainty channel s (norm |delta1|), then delta2 I_2g,
    so each entry takes the products of a single loop."""
    for name, vals in (("delta1", np.array([delta1], dtype=float)), ("delta2", delta2)):
        over = vals[np.abs(vals) > 1.0 + 1e-12]
        if over.size:
            raise ValueError(f"{name} must satisfy |{name}| <= 1, got {over[0]}")
    k, g, n = len(delta2), compact.g, compact.n
    r_s, h_s = compact.plant.r_s, compact.plant.h_s
    r_off, h_off = np.cumsum((0,) + r_s), np.cumsum((0,) + h_s)
    delta = np.zeros((k, r_off[-1] + 2 * g, h_off[-1] + 2 * g))
    for ro, ho, rs, hs in zip(r_off, h_off, r_s, h_s):
        d = np.arange(min(rs, hs))       # assigned, not delta1 * eye: no -0.0 entries
        delta[:, ro + d, ho + d] = delta1
    d = np.arange(2 * g)
    delta[:, r_off[-1] + d, h_off[-1] + d] = delta2[:, None]
    bt1, ct1 = compact.Bt1, compact.Ct1
    dt12, dt21, ct2 = compact.Dt12, compact.Dt21, compact.Ct2
    ac, bc, cc = sol.Ac, sol.Bc_tilde, sol.Cc_tilde
    abold = np.empty((k, 2 * n, 2 * n))
    abold[:, :n, :n] = compact.aug.Ap + bt1 @ delta @ ct1
    abold[:, :n, n:] = bt1 @ delta @ dt12 @ cc
    abold[:, n:, :n] = bc @ ct2 + bc @ dt21 @ delta @ ct1
    abold[:, n:, n:] = ac + bc @ dt21 @ delta @ dt12 @ cc
    bbold = np.vstack([compact.Bp1w, bc @ compact.Db21])
    return abold, bbold, delta


def build_closed_loop(compact: CompactPlant, sol: SynthesisSolution,
                      delta1: float = 0.0, delta2: float = 0.0) -> ClosedLoopModel:
    """Close the loop with Delta = diag(delta1 I(r_s, h_s) per channel s, delta2 I_2g).

    delta1 scales the parametric-uncertainty channels, delta2 the
    measurement-nonlinearity channel and its estimator copy.  Both must lie
    in the unit interval in magnitude.
    """
    abold, bbold, delta = _loops(compact, sol, delta1, np.array([delta2], dtype=float))
    return ClosedLoopModel(compact=compact, solution=sol, Abold=abold[0], Bbold=bbold,
                           Delta=delta[0], delta2=float(delta2))


def _covariances(compact: CompactPlant, sol: SynthesisSolution, abold: np.ndarray,
                 bbold: np.ndarray, lag: float):
    """Max Re eig of each loop in the stack `abold`, and P, Phi, Psa and Pf of its Hurwitz
    entries over the states [x; x^], from one Schur form each and one expm call.  The
    plant's delay states enter no other state and no readout, so the loop's eigenvalues
    are Fa's and the [x; x^] block's, solved in reverse order: the estimator's fast delay
    states lead, and LAPACK's Schur form keeps more digits of a matrix graded downward."""
    nbar, n, m = compact.plant.nbar, compact.n, compact.m
    keep = np.r_[:nbar, n:2 * n][::-1]
    floor = _schur_abscissa(compact.aug.delay.fa)[2] if compact.aug.na else -np.inf
    cw = np.hstack([compact.plant.C0, np.zeros((m, n))])
    ca = np.hstack([np.zeros((m, nbar)), compact.aug.Ca])
    cw, ca, cf = (c[:, ::-1] for c in (cw, ca, cw - np.hstack([np.zeros((m, nbar)), sol.Cc])))
    abold, bbold = abold[:, keep[:, None], keep], bbold[keep]
    abscissa, p = _lyapunov_stack(abold, bbold @ bbold.T, floor)
    phi = expm(abold[abscissa < 0], lag)
    cross = ca @ phi @ p @ cw.T
    psa = cw @ p @ cw.T - cross - cross.swapaxes(1, 2) + ca @ p @ ca.T
    return abscissa, p[:, ::-1, ::-1], phi[:, ::-1, ::-1], psa, cf @ p @ cf.T


def smoothed_error_covariance(loop: ClosedLoopModel, lag: float = None) -> CovarianceReport:
    """Evaluate the stationary smoothed-error covariance.

        Psa = cw P cw' - ca Phi P cw' - (ca Phi P cw')' + ca P ca'

    over the plant and estimator states [x; x^], with cw = [C0, 0] selecting the
    estimated plant output, ca = [0, Ca] the delayed readout of the estimator
    state, and Phi = e^(Abold * lag).  The cross term is symmetrized so Psa is
    symmetric by construction.  Also returns the filter-only error covariance
    Pf built from the estimator output rows against C0.

    Raises StationarityError when the loop is not Hurwitz.
    """
    if lag is None:
        lag = loop.compact.aug.delay.delta
    abscissa, p, phi, psa, pf = _covariances(loop.compact, loop.solution,
                                             loop.Abold[None], loop.Bbold, lag)
    if abscissa[0] >= 0:
        raise StationarityError("closed loop is not Hurwitz; no stationary covariance "
                                f"exists (max Re eig = {abscissa[0]:.6g})")
    return CovarianceReport(P=p[0], Phi=phi[0], Psa=psa[0], Pf=pf[0], delta2=loop.delta2)


def delta_sweep(compact: CompactPlant, sol: SynthesisSolution, grid,
                delta1: float = 0.0) -> list[SweepRow]:
    """Evaluate (Psa, Pf) over a grid of measurement-uncertainty levels
    delta2 in [-1, 0], all loops as one stack.  Points where the loop loses
    stability are flagged rather than filled.  The returned table is sorted
    by delta2.
    """
    grid = np.sort(np.asarray(grid, dtype=float), kind="stable")
    if not np.all((grid >= -1.0) & (grid <= 0.0)):
        raise ValueError("delta2 grid must lie within [-1, 0]")
    abold, bbold, _ = _loops(compact, sol, delta1, grid)
    abscissa, _, _, psa, pf = _covariances(compact, sol, abold, bbold,
                                           compact.aug.delay.delta)
    psa_col, pf_col = np.full((2, len(grid)), np.nan)
    psa_col[abscissa < 0], pf_col[abscissa < 0] = psa[:, 0, 0], pf[:, 0, 0]
    return [SweepRow(*row) for row in zip(grid.tolist(), psa_col.tolist(),
                                           pf_col.tolist(), abscissa.tolist())]


def write_sweep_csv(rows: list[SweepRow], path, filter_output: str = "estimator-output-row") -> None:
    """Emit the sweep table as CSV with the fixed schema delta2,psa,pf,hurwitz."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(f"# filter_covariance_output={filter_output}\n")
        writer = csv.writer(fh)
        writer.writerow(["delta2", "psa", "pf", "hurwitz"])
        for row in rows:
            writer.writerow([repr(row.delta2), repr(row.psa), repr(row.pf),
                             int(row.hurwitz)])
