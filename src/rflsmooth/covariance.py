"""Closed-loop covariance analysis: the stationary smoothed-error and filter
covariances over the uncertainty range, every loop of a sweep solved as one stack."""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .model import CompactPlant
from .numkernel import _lyapunov_stack, expm
from .synthesis import SynthesisSolution

__all__ = ["SweepRow", "delta_sweep", "write_sweep_csv"]


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


def _covariances(compact: CompactPlant, sol: SynthesisSolution, abold: np.ndarray,
                 bbold: np.ndarray, lag: float):
    """Max Re eig of each loop in the stack `abold`, and P, Phi, Psa and Pf of its Hurwitz
    entries over the states [x; x^], from one Schur form each and one expm call.  The
    plant's delay states enter no other state and no readout, so the loop's eigenvalues
    are Fa's (the delay model's abscissa) and the [x; x^] block's, solved in reverse
    order: the estimator's fast delay states lead, and LAPACK's Schur form keeps more
    digits of a matrix graded downward.

        Psa = cw P cw' - ca Phi P cw' - (ca Phi P cw')' + ca P ca',   Pf = cf P cf'

    with cw = [C0, 0], ca = [0, Ca], cf = [C0, -Cc] and Phi = e^(Abold lag)."""
    nbar, n, m = compact.plant.nbar, compact.n, compact.m
    keep = np.r_[:nbar, n:2 * n][::-1]
    cw = np.hstack([compact.plant.C0, np.zeros((m, n))])
    ca = np.hstack([np.zeros((m, nbar)), compact.aug.Ca])
    cw, ca, cf = (c[:, ::-1] for c in (cw, ca, cw - np.hstack([np.zeros((m, nbar)), sol.Cc])))
    abold, bbold = abold[:, keep[:, None], keep], bbold[keep]
    abscissa, p = _lyapunov_stack(abold, bbold @ bbold.T, compact.aug.delay.abscissa)
    phi = expm(abold[abscissa < 0], lag)
    cross = ca @ phi @ p @ cw.T
    psa = cw @ p @ cw.T - cross - cross.swapaxes(1, 2) + ca @ p @ ca.T
    return abscissa, p[:, ::-1, ::-1], phi[:, ::-1, ::-1], psa, cf @ p @ cf.T


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
