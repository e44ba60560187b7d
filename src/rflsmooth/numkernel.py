"""Dense numerical kernels: algebraic Riccati and Lyapunov solvers, matrix
exponential, spectral radius.

The Riccati solver handles the generic form

    X A + A' X + X S X + Q = 0

with a sign-indefinite quadratic coefficient S, via an ordered real Schur
decomposition of the associated Hamiltonian matrix, optionally refined by
Newton-Kleinman iterations.  Lyapunov equations are solved by Bartels-Stewart:
one real Schur form, by a direct LAPACK `gees` call, gives the Hurwitz test
and a triangular Sylvester solve.  The sensitivity of a Riccati solution is
such a Lyapunov equation in its closed loop.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .errors import InfeasibleError, NumericalError, StationarityError

__all__ = [
    "RiccatiProblem",
    "CareSolution",
    "solve_care",
    "care_residual",
    "care_threshold",
    "care_sensitivity",
    "solve_lyapunov",
    "expm",
    "spectral_radius",
]

_SYM_TOL = 1e-12
_trsyl = sla.get_lapack_funcs("trsyl", dtype=np.float64)
_gees = sla.get_lapack_funcs("gees", dtype=np.float64)


@dataclass(frozen=True)
class RiccatiProblem:
    """Continuous algebraic Riccati equation  X A + A' X + X S X + Q = 0.

    Q is the constant term and S the (possibly sign-indefinite) quadratic
    coefficient; both must be symmetric.  Cross and shift terms are folded
    into A by the caller.
    """

    a: np.ndarray
    q: np.ndarray
    s: np.ndarray

    def __post_init__(self):
        a = np.atleast_2d(np.asarray(self.a, dtype=float))
        q = np.atleast_2d(np.asarray(self.q, dtype=float))
        s = np.atleast_2d(np.asarray(self.s, dtype=float))
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "s", s)
        n = a.shape[0]
        if a.shape != (n, n) or q.shape != (n, n) or s.shape != (n, n):
            raise ValueError("A, Q, S must be square and of equal size")
        for name, mat in (("Q", q), ("S", s)):
            scale = 1.0 + np.abs(mat).max()
            if np.abs(mat - mat.T).max() > _SYM_TOL * scale:
                raise ValueError(f"{name} is not symmetric to tolerance {_SYM_TOL}")

    @property
    def n(self) -> int:
        return self.a.shape[0]


@dataclass(frozen=True)
class CareSolution:
    x: np.ndarray
    residual: float


def care_residual(prob: RiccatiProblem, x: np.ndarray) -> float:
    """Frobenius norm of  X A + A' X + X S X + Q."""
    r = x @ prob.a + prob.a.T @ x + x @ prob.s @ x + prob.q
    return float(np.linalg.norm(r, "fro"))


def care_threshold(x: np.ndarray) -> float:
    """Largest accepted Frobenius residual of a Riccati solution X: 1e-8 (1 + ||X||_F^2)."""
    return 1e-8 * (1.0 + np.linalg.norm(x, "fro") ** 2)


def _hamiltonian_schur(prob: RiccatiProblem, imag_tol: float):
    """Stabilizing solution from one ordered real Schur form of the Hamiltonian, which
    also gives the imaginary-axis test: scipy.linalg.schur's sort="lhp", by direct `gees`."""
    n = prob.n
    ham = np.empty((2 * n, 2 * n))
    ham[:n, :n], ham[:n, n:], ham[n:, :n], ham[n:, n:] = prob.a, prob.s, -prob.q, -prob.a.T
    if not np.isfinite(ham).all():
        raise ValueError("array must not contain infs or NaNs")
    t, sdim, wr, wi, z, _, info = _gees(lambda re, im: re < 0.0, ham,
                                        lwork=_gees_lwork(2 * n), sort_t=1)
    if info > 0:    # no Schur form, or reordering moved an eigenvalue across the axis
        raise InfeasibleError(f"ordered Schur form failed (LAPACK gees info {info})",
                              eigenvalues=np.linalg.eigvals(ham))
    eigs = wr + 1j * wi
    scale = max(1.0, np.abs(eigs).max())
    near_axis = eigs[np.abs(eigs.real) <= imag_tol * scale]
    if near_axis.size > 0:
        raise InfeasibleError(
            "Hamiltonian matrix has eigenvalues on the imaginary axis; "
            "no stabilizing Riccati solution exists",
            eigenvalues=near_axis,
        )
    if sdim != n:
        raise InfeasibleError(
            f"stable invariant subspace has dimension {sdim}, expected {n}",
            eigenvalues=eigs,
        )
    try:                # U1 singular: the stable subspace is the graph of no X
        x = np.linalg.solve(z[:n, :n].T, z[n:, :n].T).T
    except np.linalg.LinAlgError:
        raise InfeasibleError("stable subspace has a singular U1 block", eigenvalues=eigs) from None
    return 0.5 * (x + x.T)


def _newton_refine(prob: RiccatiProblem, x: np.ndarray, sweeps: int = 5):
    """Newton-Kleinman refinement; each step is one Lyapunov solve."""
    best = x
    best_res = care_residual(prob, x)
    for _ in range(sweeps):
        t, z, abscissa = _schur_abscissa((prob.a + prob.s @ best).T)
        if abscissa >= 0:
            break
        f = best @ prob.a + prob.a.T @ best + best @ prob.s @ best + prob.q
        delta = _lyap_schur(t[None], z, f[None])[0]
        cand = 0.5 * ((best + delta) + (best + delta).T)
        res = care_residual(prob, cand)
        if res >= best_res:
            break
        best, best_res = cand, res
    return best, best_res


def solve_care(prob: RiccatiProblem, imag_tol: float = 1e-9) -> CareSolution:
    """Solve X A + A' X + X S X + Q = 0 for the stabilizing symmetric X.

    Parameters
    ----------
    prob : RiccatiProblem
    imag_tol : float
        Relative tolerance for detecting imaginary-axis Hamiltonian
        eigenvalues, which make the problem infeasible.

    Returns
    -------
    CareSolution
        Symmetric solution and its Frobenius residual.

    Raises
    ------
    InfeasibleError
        If no stabilizing solution exists.
    """
    x = _hamiltonian_schur(prob, imag_tol)
    res = care_residual(prob, x)
    if res > care_threshold(x):
        x, res = _newton_refine(prob, x)
    return CareSolution(x=x, residual=res)


def care_sensitivity(prob: RiccatiProblem, x: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Derivatives of the stabilizing solution X of `prob`, one per entry of
    the stack `rhs`: F = X dA + dA' X + X dS X + dQ, the change of the
    equation at fixed X, gives dX from (A + S X)' dX + dX (A + S X) + F = 0.
    One Schur form of the closed loop serves every entry (Kenney & Hewer)."""
    t, z, _ = _schur_abscissa((prob.a + prob.s @ x).T)
    return _lyap_schur(np.broadcast_to(t, rhs.shape), z, rhs)


@functools.lru_cache(maxsize=None)
def _gees_lwork(n: int) -> int:
    """The workspace scipy.linalg.schur queries; LAPACK sizes it from n alone."""
    return int(_gees(lambda x: None, np.zeros((n, n)), lwork=-1)[-2][0])


def _schur_abscissa(a: np.ndarray):
    """Real Schur forms A = Z T Z' of a matrix or of each in a stack, and max Re eig(A),
    read from diag(T): LAPACK gives each 2x2 block of T equal diagonal entries, its
    pair's real part.  One `gees` call an entry, with scipy.linalg.schur's workspace."""
    if not np.isfinite(a).all():
        raise ValueError("array must not contain infs or NaNs")
    (t, z), lwork = np.empty((2, *a.shape)), _gees_lwork(a.shape[-1])
    for i in np.ndindex(a.shape[:-2]):
        t[i], _, _, _, z[i], _, info = _gees(lambda x: None, a[i], lwork=lwork)
        if info > 0:
            raise NumericalError(f"Schur form not found (LAPACK gees info {info})")
    return t, z, np.diagonal(t, axis1=-2, axis2=-1).max(axis=-1)


def _lyap_schur(t: np.ndarray, z: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Solve A P + P A' + W = 0 for each A = Z T Z' of the stack `t` (Bartels-Stewart):
    z or w (not both) may be one matrix for every entry; only `trsyl` runs per entry."""
    y, scale = -(z.swapaxes(-1, -2) @ w @ z), np.empty(len(t))
    for i, ti in enumerate(t):
        y[i], scale[i], _ = _trsyl(ti, ti, y[i], tranb="T")
    p = (z @ y @ z.swapaxes(-1, -2)) / scale[:, None, None]
    return 0.5 * (p + p.swapaxes(1, 2))


def _lyapunov_stack(a: np.ndarray, w: np.ndarray, floor: float = -np.inf):
    """Max Re eig of each A in the stack `a`, raised to `floor` (the abscissa of any
    block the caller split off), and the stack of P with A P + P A' + W = 0 for the
    entries where that is negative: per entry only `gees` and `trsyl` run.
    Raises NumericalError when a residual exceeds the accepted threshold."""
    t, z, abscissa = _schur_abscissa(a)
    abscissa = np.maximum(abscissa, floor)
    a, t, z = (m[abscissa < 0] for m in (a, t, z))
    p = _lyap_schur(t, z, w)
    r = a @ p                   # P is symmetric, so P A' = (A P)'
    res = np.linalg.norm(r + r.swapaxes(1, 2) + w, axis=(1, 2))
    bound = 1e-8 * (1.0 + np.linalg.norm(p, axis=(1, 2))) * (1.0 + np.linalg.norm(a, axis=(1, 2)))
    if np.any(res > bound):
        raise NumericalError(f"Lyapunov residual too large: {res.max():.3e}")
    return abscissa, p


def solve_lyapunov(a: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Solve the continuous Lyapunov equation  A P + P A' + W = 0.

    A must be Hurwitz; W symmetric.  Raises ValueError when A or W is not
    finite, StationarityError when A is not Hurwitz (the stationary
    covariance does not exist) and NumericalError when the residual exceeds
    the accepted threshold.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    w = np.atleast_2d(np.asarray(w, dtype=float))
    if a.shape != w.shape or a.shape[0] != a.shape[1]:
        raise ValueError("A and W must be square matrices of equal size")
    if not np.isfinite(w).all():
        raise ValueError("W must not contain infs or NaNs")
    abscissa, p = _lyapunov_stack(a[None], w)
    if abscissa[0] >= 0:
        raise StationarityError("matrix is not Hurwitz; stationary Lyapunov equation has no "
                                f"solution (max Re eig = {abscissa[0]:.6g})")
    return p[0]


def expm(a: np.ndarray, t: float = 1.0) -> np.ndarray:
    """e^(A t) of a matrix or of each in a stack (scaling-and-squaring Pade, via SciPy)."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    return sla.expm(a * t)


def spectral_radius(m: np.ndarray) -> float:
    """Largest eigenvalue magnitude of a square matrix."""
    m = np.atleast_2d(np.asarray(m, dtype=float))
    if m.size == 0:
        return 0.0
    return float(np.abs(np.linalg.eigvals(m)).max())
