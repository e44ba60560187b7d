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

The matrix exponential works on a stack: scaling and squaring of a diagonal
Pade approximant, with each entry's degree m and squarings s chosen by Al-Mohy
and Higham's rule (2009), as SciPy chooses them, from exact 1-norms of the
powers the approximant needs anyway.  Entries that share (m, s) share every
NumPy product, one stacked solve and the squarings.
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
# Al-Mohy & Higham (2009), Algorithm 6.1: the Pade degrees m, the largest eta at which
# each needs no scaling (theta_m), and 1/|c_(2m+1)| of the backward-error bound ell(m).
_DEGREES = np.array([3, 5, 7, 9, 13])
_THETA = np.array([1.495585217958292e-2, 2.539398330063230e-1, 9.504178996162932e-1,
                   2.097847961257068, 4.25])
_ELL_C = np.array([100800.0, 10059033600.0, 4487938430976000.0, 5914384781877411840000.0,
                   113250775606021113483283660800000000.0])


def _pade_rows(b: tuple) -> np.ndarray:
    """Pade coefficients b_0 ... b_m as rows of even polynomials over [I, A^2, A^4, ...],
    stacked over each coefficient's power of A: row 0 is U's odd part (U = A times it),
    row 1 is V.  Degree 13 splits both at A^6 (Higham 2005): rows 0 and 1 then hold
    the terms that A^6 multiplies, rows 2 and 3 the rest."""
    b, j = np.array(b), np.arange(len(b), dtype=float)
    rows = np.array([[b[1::2], b[::2]], [j[1::2], j[::2]]])
    if len(b) == 14:
        rows = np.concatenate([np.concatenate([np.zeros((2, 2, 1)), rows[..., 4:]], 2),
                               rows[..., :4]], 1)
    return rows


_PADE = {len(b) - 1: _pade_rows(b) for b in (
    (120.0, 60.0, 12.0, 1.0),
    (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0),
    (17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0, 56.0, 1.0),
    (17643225600.0, 8821612800.0, 2075673600.0, 302702400.0, 30270240.0, 2162160.0, 110880.0,
     3960.0, 90.0, 1.0),
    (64764752532480000.0, 32382376266240000.0, 7771770303897600.0, 1187353796428800.0,
     129060195264000.0, 10559470521600.0, 670442572800.0, 33522128640.0, 1323241920.0,
     40840800.0, 960960.0, 16380.0, 182.0, 1.0))}


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


def _rowmax(x: np.ndarray) -> np.ndarray:
    """Largest entry along the last axis of a nonnegative array; the axis is moved
    first and made contiguous, which NumPy reduces far faster than a short last axis."""
    return np.ascontiguousarray(x.T).max(axis=0, initial=0.0).T


def _pade_structure(a: np.ndarray, pw: np.ndarray):
    """Pade degree m and squarings s of each entry of the stack `a` by Al-Mohy & Higham's
    Algorithm 6.1, from the exact 1-norms of A^4 ... A^10 (`pw[2:]`) and of
    |2^-s0 A|^(2m+1): s0 is the scaling those norms ask for, and ell(m) the squarings
    that degree m's backward error adds."""
    d = _rowmax(np.einsum("...ij->...j", np.abs(pw[2:]))) ** (1 / np.array([[4], [6], [8], [10]]))
    eta = np.maximum(d[[0, 0, 1, 1]], d[[1, 1, 2, 2]])          # for m = 3, 5, 7, 9
    with np.errstate(divide="ignore", invalid="ignore"):       # log2(0) and 0/0 read as ell 0
        s = np.fmax(np.ceil(np.log2(np.minimum(eta[2], np.maximum(d[2], d[3])) / _THETA[-1])), 0)
        absa = np.abs(a) * 2.0 ** -s[:, None, None]
        b2 = absa @ absa
        b4 = b2 @ b2
        v = np.empty((8, len(a), 1, a.shape[-1]))               # 1'|A|^p, p = 1, 3, 7, ..., 27
        np.einsum("kij->kj", absa, out=v[0, :, 0])
        np.matmul(v[0], b2, out=v[1])
        for i in range(2, 8):
            np.matmul(v[i - 1], b4, out=v[i])
        norm = _rowmax(v[:, :, 0])
        ell = np.fmax(np.ceil(np.log2(norm[[2, 3, 4, 5, 7]] / (norm[0] * _ELL_C[:, None])
                                      * 2.0 ** 53) / (2 * _DEGREES[:, None])), 0)
    if not (np.isfinite(d).all() and np.isfinite(ell).all()):
        raise NumericalError("matrix exponential out of range: the powers of A t overflow")
    fits = (eta <= _THETA[:4, None]) & (ell[:4] == 0)
    m = np.where(fits.any(axis=0), _DEGREES[fits.argmax(axis=0)], 13)
    return m, np.where(m == 13, s + ell[4], 0).astype(int)


def _pade(a: np.ndarray, pw: np.ndarray, m: int, s: int):
    """U and V of the degree-m Pade approximant r_m(2^-s A) = (V - U)^-1 (V + U) of each
    A in the stack `a`, from pw = [I, A^2, A^4, A^6, ...].  The scaling enters each b_j
    as b_j 2^(-s j), which is exact, and one einsum sums every even polynomial."""
    b, j = _PADE[m]
    t = np.einsum("rj,j...->r...", b * 2.0 ** (-s * j), pw[:b.shape[1]])
    if m == 13:
        t = pw[3] @ t[:2] + t[2:]
    return a @ t[0], t[1]


def expm(a: np.ndarray, t: float = 1.0) -> np.ndarray:
    """e^(A t) of a matrix or of each in a stack, by scaling and squaring a Pade
    approximant.  Each entry gets its own degree m and squarings s by Al-Mohy &
    Higham's rule (SIAM J. Matrix Anal. Appl. 31, 2009), SciPy's, from exact 1-norms of
    the powers of A t that the approximant uses anyway.  Entries with the same (m, s)
    share every product, one stacked solve and the squarings, so no entry's bits depend
    on the rest of the stack.  r_m = I + 2 (V - U)^-1 U keeps I out of the solve.
    Raises ValueError for non-finite input and NumericalError when a Pade denominator
    is singular or the powers of A t overflow."""
    a = np.atleast_2d(np.asarray(a, dtype=float)) * t
    if not np.isfinite(a).all():
        raise ValueError("array must not contain infs or NaNs")
    shape, a = a.shape, a.reshape(-1, *a.shape[-2:])
    eye = np.eye(a.shape[-1])
    pw = np.empty((6, *a.shape))                                 # I, A^2, A^4, ..., A^10
    pw[0] = eye
    np.matmul(a, a, out=pw[1])
    for i, (j, k) in enumerate(((1, 1), (2, 1), (2, 2), (2, 3)), 2):
        np.matmul(pw[j], pw[k], out=pw[i])
    m, s = _pade_structure(a, pw)
    x = np.empty_like(a)
    groups = sorted(set(zip(m.tolist(), s.tolist())))
    for deg, sq in groups:
        pick = (m == deg) & (s == sq) if len(groups) > 1 else slice(None)   # one: no gather
        u, v = _pade(a[pick], pw[:5, pick], deg, sq)
        try:
            r = 2.0 * np.linalg.solve(v - u, u) + eye
        except np.linalg.LinAlgError:
            raise NumericalError(f"singular Pade denominator (degree {deg})") from None
        for _ in range(sq):
            r = r @ r
        x[pick] = r
    return x.reshape(shape)


def spectral_radius(m: np.ndarray) -> float:
    """Largest eigenvalue magnitude of a square matrix."""
    m = np.atleast_2d(np.asarray(m, dtype=float))
    if m.size == 0:
        return 0.0
    return float(np.abs(np.linalg.eigvals(m)).max())
