"""Estimator/smoother synthesis: multiplier assembly, feasibility, the two
Riccati equations, gain computation, the guaranteed cost bound, and its
minimization over the scaling point (tau, lambda).

Conventions
-----------
lambda is ordered as [k uncertainty scalings, g difference scalings,
g plant-nonlinearity scalings, g estimator-copy scalings], ktilde = k + 3g.

The scaled noise is read in information form, from one Cholesky factor
C C' = P'MP in the frame P = [N, D+] of D = Dt21 (`CompactPlant.frame`, N
spanning D's null space).  With C split after N's columns and
[U, V] = Bt1 P C^-T, E = Dt21 M^-1 Dt21' has E^-1 = C22 C22' and
K = Bt1 M^-1 Dt21' E^-1 = Bt1 D+ - U C21'.  The filter Riccati is solved in
covariance orientation,

    At Y + Y At' - Y (Ct2' E^-1 Ct2 - R/tau) Y + U U' = 0,   At = Ap - K Ct2,

and the companion equation is the estimation-cost Riccati

    X Ap + Ap' X - (1/tau) X (U U' + V V') X + (R - Gam G^-1 Gam') = 0,

whose constant term is positive semidefinite by construction (it is a Schur
complement of the stacked cost form), so a stabilizing PSD solution exists
whenever Ap is Hurwitz.  U U' + V V' = Bt1 M^-1 Bt1', but neither M^-1 nor E
is formed, so V keeps its digits up to the face where M turns singular.
M > 0 when C's pivots clear working precision (`_factor`).  Without
uncertainty channels (ktilde = 0) M = I in Db21's frame with noise input
Bp1w, and the filter Riccati is the Kalman filter's.

A scaling point is evaluated along one path, `_gains`: `_lambda_terms` tests
admissibility and forms lambda's multipliers (from the term stacks `build_compact`
precomputes) and scaled noise, tau adds its cost weights, and both Riccati
solves read them.  It returns the bound (`_Bound`: Y, X, V_tau, certificates)
and the point's `_PointTerms`, all that V's exact gradient (`_bound_gradient`)
reads; a start's golden search over tau forms its lambda's terms once.
`_estimator` assembles Ac, Bc~ and Cc~ from them once per `compute_gains`, and
once per search at its lowest V.  A point that gives no bound raises a
`ToolkitError`, never a bare LAPACK error.
"""

from __future__ import annotations

import json
import math
from collections import namedtuple
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .errors import CouplingError, InfeasibleError, NumericalError
from .model import CompactPlant
from .numkernel import (LinAlgError, RiccatiProblem, _cholesky, _eigvalsh, _frobenius, _inv,
                        _solve, care_sensitivity, care_threshold, solve_care, spectral_radius)

__all__ = [
    "ScalingPoint",
    "MultiplierPair",
    "SynthesisSolution",
    "OptimizationResult",
    "assemble_multipliers",
    "feasible",
    "cost_weights",
    "compute_gains",
    "minimize_bound",
    "solution_to_json",
]

MU_PATH = 10.0 ** -np.arange(0.0, 8.1, 0.5)   # barrier weights of the path, 1 to 1e-8
NEWTON_STEPS = 10         # most Newton steps at one barrier weight
_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class ScalingPoint:
    """IQC scaling vector lambda (length ktilde) and cost scale tau > 0."""

    lam: np.ndarray
    tau: float

    def __post_init__(self):
        object.__setattr__(self, "lam", np.asarray(self.lam, dtype=float).reshape(-1))
        if self.tau <= 0:
            raise ValueError(f"tau must be positive, got {self.tau}")


@dataclass(frozen=True)
class MultiplierPair:
    """Input/output multipliers M(lambda), N(lambda)."""

    M: np.ndarray
    N: np.ndarray


@dataclass(frozen=True)
class SynthesisSolution:
    """Riccati solutions, estimator matrices, and the guaranteed cost bound."""

    point: ScalingPoint
    Y: np.ndarray
    X: np.ndarray
    Ac: np.ndarray
    Bc_tilde: np.ndarray
    Cc_tilde: np.ndarray
    Ca: np.ndarray
    Vtau: float
    rho_yx: float
    residual_y: float
    residual_x: float
    m: int
    l: int

    @property
    def Bc(self) -> np.ndarray:
        """Gain on the physical measurement increment (first l columns)."""
        return self.Bc_tilde[:, : self.l]

    @property
    def Gc(self) -> np.ndarray:
        """Gain on the estimator-copy outputs (last g columns)."""
        return self.Bc_tilde[:, self.l:]

    @property
    def Cc(self) -> np.ndarray:
        """Estimated-output rows (first m rows of Cc_tilde)."""
        return self.Cc_tilde[: self.m]

    @property
    def Kc(self) -> np.ndarray:
        """Copy-input rows (last g rows of Cc_tilde)."""
        return self.Cc_tilde[self.m:]


def assemble_multipliers(compact: CompactPlant, lam: np.ndarray) -> MultiplierPair:
    """Build M(lambda), N(lambda) from the plant's constant term stacks
    (see `CompactPlant.M_stack`): one term per uncertainty channel,
    then per nonlinearity the difference, plant, and estimator-copy bounds."""
    lam = np.asarray(lam, dtype=float).reshape(-1)
    if lam.size != compact.ktilde:
        raise ValueError(f"lambda must have length {compact.ktilde}, got {lam.size}")
    # an elementwise product summed in term order: a BLAS contraction
    # (tensordot) may fuse multiply-adds and move the last bit when beta != 1
    w = lam[:, None, None]
    return MultiplierPair(M=(w * compact.M_stack).sum(axis=0), N=(w * compact.N_stack).sum(axis=0))


def _factor(m: np.ndarray):
    """Lower Cholesky factor of m if m > 0 to working precision: each pivot^2
    above len(m) eps times its diagonal entry, its elimination's rounding."""
    try:
        c = _cholesky(m)
    except LinAlgError:
        return None
    rel = min(c.diagonal() ** 2 / m.diagonal(), default=math.inf)
    return c if rel > len(m) * _EPS else None


def _admissibility(compact: CompactPlant, lam: np.ndarray):
    """(margin, multipliers, `_factor` of P'MP) of lambda: the margin is the
    least eigenvalue of I - J'M(lambda)J, -inf for a bad lambda (multipliers
    None) or no factor, and inf without uncertainty channels (M = I)."""
    if lam.size != compact.ktilde or np.any(lam < 0):
        return -math.inf, None, None
    mult, p = assemble_multipliers(compact, lam), compact.frame
    c = _factor(p.T @ (mult.M if compact.ktilde else np.eye(len(p))) @ p)
    if c is None:
        return -math.inf, mult, None
    if compact.ktilde == 0:
        return math.inf, mult, c
    gap = compact.j_identity - compact.J.T @ mult.M @ compact.J
    return float(_eigvalsh(0.5 * (gap + gap.T)).min()), mult, c


def feasible(compact: CompactPlant, point: ScalingPoint):
    """Admissibility of a scaling point: lambda >= 0, M(lambda) > 0 and
    I - J'M(lambda)J >= 0 (equivalently M^-1 >= JJ', by a Schur complement).
    Returns (bool, margin) where the margin is the least eigenvalue of
    I - J'MJ (-inf when M is not PD to working precision)."""
    margin = _admissibility(compact, point.lam)[0]
    return margin >= 0, margin


def cost_weights(compact: CompactPlant, point: ScalingPoint, mult: MultiplierPair,
                 delayed_target: bool = False):
    """Quadratic cost data (R, G, Gam) for the estimation cost plus the
    tau-weighted stacked-output penalty.

    delayed_target=True swaps the estimation target row from the undelayed
    output Cp0 to the delayed readout Ca (experimental variant; the published
    gains correspond to the default Cp0 target).
    """
    tau, (gram, gam0) = point.tau, compact.targets[delayed_target]
    r = gram + tau * compact.Ct1.T @ mult.N @ compact.Ct1
    gmat = compact.selector + tau * compact.Dt12.T @ mult.N @ compact.Dt12
    gam = gam0 + tau * compact.Ct1.T @ mult.N @ compact.Dt12
    return r, gmat, gam


# A scaling point's terms, in three stages: lambda's multipliers and scaled noise
# (C, U, V, K, E^-1, Wxx = U U' + V V'; see the module docstring), tau's cost weights
# (R, G, Gam), and what `_gains` built from them: the filter and cost Riccati problems,
# G^-1 Gam' and `_bound_tail`'s (Bc~, (I - YX/tau)^-1, P).
_PointTerms = namedtuple("_PointTerms", "mult c u v k einv wxx r gmat gam yprob xprob g_gam tail",
                         defaults=(None,) * 7)
# What `_gains` evaluates at a scaling point: both Riccati solutions, V_tau and its certificates.
_Bound = namedtuple("_Bound", "point Y X Vtau rho_yx residual_y residual_x")


def _lambda_terms(compact: CompactPlant, lam: np.ndarray) -> _PointTerms:
    """lambda's stage of the terms; an inadmissible lambda raises InfeasibleError."""
    margin, mult, c = _admissibility(compact, lam)
    if not margin >= 0:
        raise InfeasibleError(
            f"scaling point is infeasible (margin {margin:.3e})", margin=margin
        )
    z = len(c) - compact.l - compact.g                  # D has l + g rows
    bp = compact.noise_frame
    uv = _solve(c, bp.T).T
    u, v, c22 = uv[:, :z], uv[:, z:], c[z:, z:]
    return _PointTerms(mult, c, u, v, bp[:, z:] - u @ c[z:, :z].T, c22 @ c22.T, u @ u.T + v @ v.T)


def _filter_problem(compact: CompactPlant, tau: float, t: _PointTerms, r):
    s = r / tau - compact.Ct2.T @ t.einv @ compact.Ct2
    return RiccatiProblem(a=(compact.aug.Ap - t.k @ compact.Ct2).T, q=t.u @ t.u.T,
                          s=0.5 * (s + s.T))


def _control_problem(compact: CompactPlant, tau: float, t: _PointTerms, r, gam, g_gam):
    q = r - gam @ g_gam
    return RiccatiProblem(a=compact.aug.Ap, q=0.5 * (q + q.T), s=-t.wxx / tau)


def _bound_tail(compact: CompactPlant, t: _PointTerms, y, x, tau):
    """Measurement gain Bc~ = Yc E^-1 + K, coupling correction (I - YX/tau)^-1
    and Bc~ E Bc~' = Yc E^-1 Yc' + Yc K' + K Yc' + V V', with Yc = Y Ct2'."""
    yc = y @ compact.Ct2.T
    ye = yc @ t.einv
    p = ye @ yc.T + (f := yc @ t.k.T) + f.T + t.v @ t.v.T
    return ye + t.k, _inv(np.eye(compact.n) - (y @ x) / tau), p


def compute_gains(compact: CompactPlant, point: ScalingPoint,
                  delayed_target: bool = False) -> SynthesisSolution:
    """Solve both Riccati equations and assemble the estimator matrices
    Ac, Bc~, Cc~ and the cost bound.  Enforces admissibility, the residual
    thresholds and the coupling condition rho(Y X) < tau, in that order.
    """
    return _estimator(compact, *_gains(compact, point, delayed_target))


def _gains(compact: CompactPlant, point: ScalingPoint, delayed_target: bool, lam_terms=None):
    """`compute_gains`'s bound (a `_Bound`) with its terms, from `lam_terms`
    (point.lam's `_lambda_terms`) if given; the estimator is left to `_estimator`."""
    t = _lambda_terms(compact, point.lam) if lam_terms is None else lam_terms
    (r, gmat, gam), tau = cost_weights(compact, point, t.mult, delayed_target), point.tau
    ysol = solve_care(yprob := _filter_problem(compact, tau, t, r))
    ev = _eigvalsh(ysol.x)       # Y > 0 to working precision, relative to its norm
    if not ev[0] > len(ev) * _EPS * ev[-1]:
        raise InfeasibleError(
            "filter Riccati solution is not positive definite at this scaling point")
    if _eigvalsh(0.5 * (gmat + gmat.T)).min() <= 0:
        raise InfeasibleError("cost weight G is singular at this scaling point")
    g_gam = _solve(gmat, gam.T)
    xsol = solve_care(xprob := _control_problem(compact, tau, t, r, gam, g_gam))
    if _eigvalsh(xsol.x).min() < -1e-10 * (1.0 + _frobenius(xsol.x)):
        raise InfeasibleError("estimation-cost Riccati solution is not positive semidefinite")
    for name, sol in (("filter", ysol), ("cost", xsol)):
        if sol.residual > care_threshold(sol.x):
            raise NumericalError(f"{name} Riccati residual {sol.residual:.3e} above threshold")
    y, x = ysol.x, xsol.x
    rho = spectral_radius(y @ x)
    if rho >= tau:
        raise CouplingError(
            f"coupling condition violated: rho(YX) = {rho:.6e} >= tau = {tau:.6e}",
            rho=rho, tau=tau,
        )
    _, corr, p = tail = _bound_tail(compact, t, y, x, tau)
    v = float(0.5 * (y @ r + p @ x @ corr).trace())
    return (_Bound(point, y, x, v, rho, ysol.residual, xsol.residual),
            _PointTerms(t.mult, t.c, t.u, t.v, t.k, t.einv, t.wxx, r, gmat, gam, yprob, xprob,
                        g_gam, tail))


def _estimator(compact: CompactPlant, bound: _Bound, t: _PointTerms) -> SynthesisSolution:
    """The estimator at a point `_gains` evaluated, from the bound and terms it returned:
    Ac, Cc~ = -G^-1 Gam' (I - YX/tau)^-1 and a copy of the readout Ca."""
    y, tau, (bc, corr, _) = bound.Y, bound.point.tau, t.tail
    ac = (compact.aug.Ap + (y @ t.r) / tau - bc @ compact.Ct2 - (y @ t.gam @ t.g_gam @ corr) / tau)
    return SynthesisSolution(**bound._asdict(), Ac=ac, Bc_tilde=bc, Cc_tilde=-t.g_gam @ corr,
                             Ca=compact.aug.Ca.copy(), m=compact.m, l=compact.l)


def _bound_gradient(compact: CompactPlant, bound: _Bound, t: _PointTerms):
    """Exact gradient of V_tau in (log tau, log lambda) at a point `_gains`
    evaluated, from the terms it returned.

    Each parameter's derivative of M (as Om = C^-1 P' dM P C^-T, whose blocks
    give those of [U, V], K and E^-1), N and the cost weights changes both
    Riccati equations; dY and dX follow from one Lyapunov solve each in that
    equation's closed loop (`care_sensitivity`) and are chained through Bc~,
    (I - YX/tau)^-1 and V_tau.  Derivatives are stacked on a leading axis:
    log tau first, then each log lambda_i.
    """
    point, y, x = bound.point, bound.Y, bound.X
    tau, w, kt = point.tau, point.lam[:, None, None], compact.ktilde
    ct1, dt12, ct2 = compact.Ct1, compact.Dt12, compact.Ct2
    dlt = np.eye(kt + 1, 1)[:, :, None]                     # d log tau

    # cost weights through d(tau N); scaled noise through Om: dWxx = -[U V] Om [U V]',
    # d(U U') = -U Om11 U', dK = -U Om12 C22' and d(E^-1) = C22 Om22 C22'
    dtn = tau * np.concatenate([t.mult.N[None], w * compact.N_stack])
    ctn = ct1.T @ dtn
    dr, dg, dgam = ctn @ ct1, dt12.T @ dtn @ dt12, ctn @ dt12
    z = t.u.shape[1]
    c22, uv = t.c[z:, z:], np.hstack([t.u, t.v])
    om = np.zeros((kt + 1,) + t.c.shape)
    if kt:
        white = _solve(t.c, compact.frame.T)                # C^-1 P'
        om[1:] = white @ (w * compact.M_stack) @ white.T
    dwxx, dw = -uv @ om @ uv.T, -t.u @ om[:, :z, :z] @ t.u.T
    dk, deinv = -t.u @ om[:, :z, z:] @ c22.T, c22 @ om[:, z:, z:] @ c22.T

    # filter: a = At', S = R/tau - Ct2' E^-1 Ct2, Q = U U'
    ds = (dr - dlt * t.r) / tau - ct2.T @ deinv @ ct2
    fy = -y @ ct2.T @ dk.swapaxes(1, 2)
    dy = care_sensitivity(t.yprob, y, fy + fy.swapaxes(1, 2) + y @ ds @ y + dw)

    # estimation cost: a = Ap, S = -Wxx/tau, Q = R - Gam G^-1 Gam'
    dq = dr - (f := dgam @ t.g_gam) - f.swapaxes(1, 2) + t.g_gam.T @ dg @ t.g_gam
    dx = care_sensitivity(t.xprob, x, x @ ((dlt * t.wxx - dwxx) / tau) @ x + dq)

    # V = tr(Y R + P X corr) / 2 with P = Bc~ E Bc~' (`_bound_tail`); d(V V') = dWxx - d(U U')
    bc, corr, p = t.tail
    dcorr = corr @ ((dy @ x + y @ dx - dlt * (y @ x)) / tau) @ corr
    yc = y @ ct2.T
    dp = (f := dy @ ct2.T @ bc.T + dk @ yc.T) + f.swapaxes(1, 2) + yc @ deinv @ yc.T + dwxx - dw
    dv = 0.5 * (dy @ t.r + y @ dr + dp @ x @ corr + p @ dx @ corr + p @ x @ dcorr).trace(
        axis1=1, axis2=2)
    if not np.isfinite(dv).all():
        raise NumericalError("cost bound gradient is not finite")
    return dv


@dataclass
class OptimizationResult:
    point: ScalingPoint
    solution: SynthesisSolution
    vtau: float
    trace: list = field(default_factory=list)
    evaluations: int = 0      # compute_gains evaluations the search made


def _barrier(m_terms, s_terms, bounds, x, derivatives=True):
    """Log barrier of x = (log tau, lambda): -log det M - log det(I - J'MJ)
    - sum log lambda_i - log(log tau - lo) - log(hi - log tau), M = sum lambda_i
    M_i (m_terms, s_terms stack M_i and J'M_i J), with its gradient and Hessian
    if `derivatives`; None outside the open set, whose M > 0 and I - J'MJ > 0 are `_factor`'s."""
    lam, t = x[1:], np.array([x[0] - bounds[0], bounds[1] - x[0]])
    w = lam[:, None, None]
    m, s = (w * m_terms).sum(axis=0), np.eye(s_terms.shape[1]) - (w * s_terms).sum(axis=0)
    if (t.min() <= 0 or lam.min(initial=np.inf) <= 0 or (f := _factor(m)) is None
            or (fs := _factor(s)) is None):
        return None
    logdet = 2.0 * (np.log(f.diagonal()).sum() + np.log(fs.diagonal()).sum())
    value = -logdet - np.log(lam).sum() - np.log(t).sum()
    if not derivatives:
        return value
    a, c = _solve(m, m_terms), _solve(s, s_terms)
    grad = np.concatenate(([1.0 / t[1] - 1.0 / t[0]], c.trace(axis1=1, axis2=2)
                           - a.trace(axis1=1, axis2=2) - 1.0 / lam))
    hess = np.zeros((x.size, x.size))
    hess[0, 0] = (t ** -2.0).sum()
    hess[1:, 1:] = (np.einsum("iab,jba->ij", a, a) + np.einsum("iab,jba->ij", c, c)
                    + np.diag(lam ** -2.0))
    return value, grad, hess


def _backtrack(fun, x, f, d, slope):
    """First of x + d, x + d/2, ... (40 at most) where fun(y) is defined and
    its first entry at most f + 1e-4 t slope, as (y, fun(y)); else None."""
    for t in 0.5 ** np.arange(40):
        if (fy := fun(x + t * d)) is not None and fy[0] <= f + 1e-4 * t * slope:
            return x + t * d, fy
    return None


def _bfgs(h, s, y):
    """Damped (Powell) BFGS update of the Hessian model h by a step s and its
    gradient change y; a zero model starts as the scaled identity y'y/s'y."""
    sy = s @ y
    if not h.any() and sy > 0:
        h = (y @ y / sy) * np.eye(s.size)
    hs = h @ s
    if not (shs := s @ hs) > 0:
        return h
    theta = 0.8 * shs / (shs - sy) if sy < 0.2 * shs else 1.0
    r = theta * y + (1.0 - theta) * hs
    return h + np.outer(r, r) / (s @ r) - np.outer(hs, hs) / shs


def _golden(f, a, b, tol=1e-4):
    """Golden-section minimum on [a, b] of f's first entry, as (s, f(s)): f runs
    once per point.  It only compares values, so they may be inf where f has none;
    ties move the bracket up, toward the large tau where V exists."""
    r = 0.5 * (math.sqrt(5.0) - 1.0)
    c, d = b - r * (b - a), a + r * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc[0] < fd[0]:
            b, d, fd = d, c, fc
            c = b - r * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + r * (b - a)
            fd = f(d)
    return (c, fc) if fc[0] < fd[0] else (d, fd)


def minimize_bound(compact: CompactPlant, *, tau_bounds=(1e-8, 1e-3),
                   n_starts: int = 8, seed: int = 0, starts=None,
                   lam_high: float = 1.0, delayed_target: bool = False,
                   ) -> OptimizationResult:
    """Minimize the guaranteed cost bound V over (tau, lambda) along one
    barrier path: V + mu B(x) in x = (log tau, lambda) for each mu in MU_PATH.

    Newton steps take B's exact gradient and Hessian, V's exact gradient
    (`_bound_gradient`) and a damped BFGS model of V's Hessian (both in log tau
    and log lambda); backtracking keeps each iterate inside B's domain, an
    evaluation that raises has no value, and a gradient that raises or a
    singular Newton system ends the path.  The first start is the LMI set's analytic centre, then n_starts - 1
    admissible draws from [0, lam_high)^k by `seed`; explicit `starts` replace
    them all.  Each takes tau from a golden-section search.  Returns the
    lowest V evaluated, with one trace entry (tau, lambda, V) per start and
    accepted step, and the number of evaluations.  Raises InfeasibleError
    when no V was evaluated.
    """
    kt, bounds = compact.ktilde, (math.log(tau_bounds[0]), math.log(tau_bounds[1]))
    m_terms, trace, best, evaluations = compact.M_stack, [], None, 0
    p = compact.frame if kt else np.eye(0)      # M_i in the frame P'MP is factored in
    barrier = partial(_barrier, p.T @ m_terms @ p, compact.J.T @ m_terms @ compact.J, bounds)

    def evaluate(x, lam_terms=None):
        """(V, (bound, terms)) at x, from x's `lam_terms` if given; (inf, None) if it raises."""
        nonlocal best, evaluations
        evaluations += 1
        try:
            evaluated = _gains(compact, ScalingPoint(lam=x[1:], tau=math.exp(x[0])),
                               delayed_target, lam_terms)
        except (InfeasibleError, NumericalError):
            return math.inf, None
        if best is None or evaluated[0].Vtau < best[0].Vtau:
            best = evaluated
        return evaluated[0].Vtau, evaluated

    def gradient(evaluated):
        """V's gradient in (log tau, log lambda) at an evaluated point; None if it raises."""
        try:
            return _bound_gradient(compact, *evaluated)
        except (InfeasibleError, NumericalError):
            return None

    def follow(x, evaluated):
        """The barrier path through MU_PATH from x, where `evaluate` returned `evaluated`;
        each accepted step is traced."""
        def phi(y):
            """(V + mu B, V, evaluated point, B with derivatives) at y; None outside B's domain."""
            if (by := barrier(y)) is None:
                return None
            vy, at_y = evaluate(y)
            return vy + mu * by[0], vy, at_y, by

        if (bx := barrier(x)) is None:      # B's derivatives do not depend on mu
            return
        v, at_x = evaluated
        if at_x is None or (gu := gradient(at_x)) is None:
            return
        trace.append((math.exp(x[0]), x[1:].tolist(), v))
        hv = np.zeros((x.size, x.size))
        for mu in MU_PATH:
            for _ in range(NEWTON_STEPS):
                b, gb, hb = bx
                scale = np.concatenate(([1.0], x[1:]))   # dx / d(log tau, log lambda)
                g = gu / scale + mu * gb
                hc = mu * hb                             # stop near the path in B's metric,
                hc[0, 0] += hv[0, 0]                     # not the BFGS one, which can overshoot
                try:
                    if g @ _solve(hc, g) <= 0.1 * mu:
                        break
                    d = -_solve(hv / np.outer(scale, scale) + mu * hb, g)
                except LinAlgError:                      # B's Hessian lost rank near the face
                    return
                if (step := _backtrack(phi, x, v + mu * b, d, g @ d)) is None:
                    break
                y, (_, v, at_y, by) = step
                if (gy := gradient(at_y)) is None:
                    return
                hv = _bfgs(hv, np.concatenate(([y[0] - x[0]], np.log(y[1:] / x[1:]))), gy - gu)
                x, gu, bx = y, gy, by
                trace.append((math.exp(x[0]), x[1:].tolist(), v))

    if starts is None:
        s_sum = compact.J.T @ m_terms.sum(axis=0) @ compact.J
        t = 0.5 / max(_eigvalsh(s_sum).max(initial=0), 1.0)   # I - t s_sum > 0
        x = np.concatenate(([sum(bounds) / 2], np.full(kt, t)))
        bx = barrier(x)
        for _ in range(50):                          # damped Newton to the analytic centre
            b, g, h = bx
            try:
                d = -_solve(h, g)
            except LinAlgError:                      # B's Hessian lost rank: centring ends
                break
            if -(g @ d) < 1e-12 or (step := _backtrack(barrier, x, b, d, g @ d)) is None:
                break
            x, bx = step
        starts, rng = [x[1:]], np.random.default_rng(seed)
        for _ in range(200 * (n_starts - 1) if kt else 0):
            if len(starts) == n_starts:
                break
            cand = rng.uniform(0.0, lam_high, size=kt)
            if barrier(np.concatenate(([x[0]], cand)), False) is not None:
                starts.append(cand)
    for lam0 in np.asarray(starts, dtype=float).reshape(len(starts), kt):
        try:                                   # shared by every tau the golden search tries
            lam_terms = _lambda_terms(compact, lam0)
        except InfeasibleError:
            lam_terms = None
        s, evaluated = _golden(lambda s: evaluate(np.concatenate(([s], lam0)), lam_terms), *bounds)
        follow(np.concatenate(([s], lam0)), evaluated)
    if best is None:
        raise InfeasibleError("no scaling point in the search gives a bound")
    sol = _estimator(compact, *best)
    return OptimizationResult(point=sol.point, solution=sol, vtau=sol.Vtau, trace=trace,
                              evaluations=evaluations)


def solution_to_json(sol: SynthesisSolution, extra: dict = None) -> str:
    """Serialize a synthesis solution to JSON (row-major matrices with dims)."""

    def mat(a):
        a = np.asarray(a)
        return {"rows": a.shape[0], "cols": a.shape[1], "data": a.reshape(-1).tolist()}

    doc = {
        "tau": sol.point.tau,
        "lambda": sol.point.lam.tolist(),
        "Vtau": sol.Vtau,
        "rho_yx": sol.rho_yx,
        "residual_y": sol.residual_y,
        "residual_x": sol.residual_x,
        "Y": mat(sol.Y),
        "X": mat(sol.X),
        "Ac": mat(sol.Ac),
        "Bc_tilde": mat(sol.Bc_tilde),
        "Cc_tilde": mat(sol.Cc_tilde),
        "Ca": mat(sol.Ca),     # delayed readout row of the chosen realization
    }
    if extra:
        doc.update(extra)
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
