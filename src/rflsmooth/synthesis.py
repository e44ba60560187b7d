"""Estimator/smoother synthesis: multiplier assembly, feasibility, the two
Riccati equations, gain computation, the guaranteed cost bound, and its
minimization over the scaling point (tau, lambda).

Conventions
-----------
lambda is ordered as [k uncertainty scalings, g difference scalings,
g plant-nonlinearity scalings, g estimator-copy scalings], ktilde = k + 3g.

The filter Riccati is solved in covariance orientation,

    At Y + Y At' - Y (Ct2' E^-1 Ct2 - R/tau) Y + W = 0,

with At = Ap - Bt1 M^-1 Dt21' E^-1 Ct2, E = Dt21 M^-1 Dt21', and
W = Bt1 M^-1 Bt1' - Bt1 M^-1 Dt21' E^-1 Dt21 M^-1 Bt1'.  The companion
equation is the estimation-cost Riccati

    X Ap + Ap' X - (1/tau) X Bt1 M^-1 Bt1' X + (R - Gam G^-1 Gam') = 0,

whose constant term is positive semidefinite by construction (it is a Schur
complement of the stacked cost form), so a stabilizing PSD solution exists
whenever Ap is Hurwitz.  With no uncertainty channels (ktilde = 0) the
scaled noise products fall back to the physical ones and the filter Riccati
reduces to the standard Kalman form.

A scaling point is evaluated once: `_point_terms` forms its multipliers
(from the term stacks `build_compact` precomputes), feasibility margin,
M^-1, scaled noise and cost weights, which both Riccati solves read, and
`compute_gains` and `cost_bound` share one coupling/gain/bound tail.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import CouplingError, InfeasibleError, NumericalError
from .model import CompactPlant
from .numkernel import RiccatiProblem, solve_care, spectral_radius

__all__ = [
    "ScalingPoint",
    "MultiplierPair",
    "SynthesisSolution",
    "OptimizationResult",
    "assemble_multipliers",
    "feasible",
    "cost_weights",
    "filter_riccati",
    "control_riccati",
    "compute_gains",
    "cost_bound",
    "minimize_bound",
    "solution_to_json",
]

FEASIBILITY_SLACK = 1e-9
INNER_MAXITER = 60        # SLSQP iterations over lambda per tau
OUTER_XTOL = 5e-3         # tolerance of the bounded search over log tau


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
    """Input/output multipliers M(lambda), N(lambda) and their rank-one terms."""

    M: np.ndarray
    N: np.ndarray
    M_terms: tuple
    N_terms: tuple


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
    return MultiplierPair(
        M=(w * compact.M_stack).sum(axis=0), N=(w * compact.N_stack).sum(axis=0),
        M_terms=tuple(compact.M_stack), N_terms=tuple(compact.N_stack),
    )


def _admissibility(compact: CompactPlant, lam: np.ndarray):
    """(margin, multipliers, M^-1) of lambda; the margin is -inf for a bad
    lambda or M not PD, and what is not formed on the way is None."""
    if compact.ktilde == 0:
        return math.inf, None, None
    if lam.size != compact.ktilde or np.any(lam < 0):
        return -math.inf, None, None
    mult = assemble_multipliers(compact, lam)
    if np.linalg.eigvalsh(mult.M).min() <= 0:
        return -math.inf, mult, None
    minv = np.linalg.inv(mult.M)
    gap = minv - compact.J @ compact.J.T
    return float(np.linalg.eigvalsh(0.5 * (gap + gap.T)).min()), mult, minv


def feasible(compact: CompactPlant, point: ScalingPoint):
    """Admissibility of a scaling point: lambda >= 0, M(lambda) > 0 and
    M(lambda)^-1 >= J J'.  Returns (bool, margin) where the margin is the
    smallest eigenvalue of M^-1 - J J' (or -inf when M is not PD)."""
    margin = _admissibility(compact, point.lam)[0]
    return margin >= 0, margin


def cost_weights(compact: CompactPlant, point: ScalingPoint, mult: MultiplierPair = None,
                 delayed_target: bool = False):
    """Quadratic cost data (R, G, Gam) for the estimation cost plus the
    tau-weighted stacked-output penalty.

    delayed_target=True swaps the estimation target row from the undelayed
    output Cp0 to the delayed readout Ca (experimental variant; the published
    gains correspond to the default Cp0 target).
    """
    if mult is None:
        mult = assemble_multipliers(compact, point.lam)
    aug = compact.aug
    n, m, g = compact.n, compact.m, compact.g
    tau = point.tau
    target = aug.Ca if delayed_target else aug.Cp0
    sel = np.block([[np.eye(m), np.zeros((m, g))], [np.zeros((g, m)), np.zeros((g, g))]])
    r = target.T @ target + tau * compact.Ct1.T @ mult.N @ compact.Ct1
    gmat = sel + tau * compact.Dt12.T @ mult.N @ compact.Dt12
    gam = -np.hstack([target.T, np.zeros((n, g))]) + tau * compact.Ct1.T @ mult.N @ compact.Dt12
    return r, gmat, gam


@dataclass(frozen=True)
class _PointTerms:
    """Scaled noise (Wxx, Wxy, E) and cost weights (R, G, Gam) of one scaling point."""

    wxx: np.ndarray
    wxy: np.ndarray
    e: np.ndarray
    r: np.ndarray
    gmat: np.ndarray
    gam: np.ndarray

    @cached_property
    def einv(self) -> np.ndarray:
        return np.linalg.inv(self.e)


def _point_terms(compact: CompactPlant, point: ScalingPoint, delayed_target: bool,
                 enforce: bool = True) -> _PointTerms:
    """A scaling point's terms; with `enforce`, an inadmissible point raises
    InfeasibleError first.  Without uncertainty channels the noise is physical."""
    margin, mult, minv = _admissibility(compact, point.lam)
    if enforce and not margin >= 0:
        raise InfeasibleError(
            f"scaling point is infeasible (margin {margin:.3e})", margin=margin
        )
    if mult is None:
        mult = assemble_multipliers(compact, point.lam)
    if compact.ktilde == 0:
        bw, dw = compact.Bp1w, compact.Db21
        wxx, wxy, e = bw @ bw.T, bw @ dw.T, dw @ dw.T
    else:
        if minv is None:
            minv = np.linalg.inv(mult.M)
        bm, dm = compact.Bt1 @ minv, compact.Dt21 @ minv
        wxx, wxy, e = bm @ compact.Bt1.T, bm @ compact.Dt21.T, dm @ compact.Dt21.T
    return _PointTerms(wxx, wxy, e, *cost_weights(compact, point, mult, delayed_target))


def _solve_filter(compact: CompactPlant, point: ScalingPoint, t: _PointTerms):
    at = compact.aug.Ap - t.wxy @ t.einv @ compact.Ct2
    s = -(compact.Ct2.T @ t.einv @ compact.Ct2 - t.r / point.tau)
    w = t.wxx - t.wxy @ t.einv @ t.wxy.T
    sol = solve_care(RiccatiProblem(a=at.T, q=0.5 * (w + w.T), s=0.5 * (s + s.T)))
    if np.linalg.eigvalsh(sol.x).min() <= 0:
        raise InfeasibleError(
            "filter Riccati solution is not positive definite at this scaling point"
        )
    return sol.x, sol.residual


def _solve_control(compact: CompactPlant, point: ScalingPoint, t: _PointTerms):
    if np.linalg.eigvalsh(0.5 * (t.gmat + t.gmat.T)).min() <= 0:
        raise InfeasibleError("cost weight G is singular at this scaling point")
    q = t.r - t.gam @ np.linalg.solve(t.gmat, t.gam.T)
    s = -t.wxx / point.tau
    sol = solve_care(RiccatiProblem(a=compact.aug.Ap, q=0.5 * (q + q.T), s=0.5 * (s + s.T)))
    if np.linalg.eigvalsh(sol.x).min() < -1e-10 * (1.0 + np.linalg.norm(sol.x)):
        raise InfeasibleError(
            "estimation-cost Riccati solution is not positive semidefinite"
        )
    return sol.x, sol.residual


def filter_riccati(compact: CompactPlant, point: ScalingPoint,
                   delayed_target: bool = False):
    """Solve the filter Riccati equation; returns (Y, residual).

    Raises InfeasibleError when the point is inadmissible or the equation
    has no stabilizing positive-definite solution.
    """
    return _solve_filter(compact, point, _point_terms(compact, point, delayed_target))


def control_riccati(compact: CompactPlant, point: ScalingPoint,
                    delayed_target: bool = False):
    """Solve the estimation-cost Riccati equation; returns (X, residual)."""
    return _solve_control(compact, point, _point_terms(compact, point, delayed_target))


def _residual_threshold(x):
    return 1e-8 * (1.0 + np.linalg.norm(x, "fro") ** 2)


def _coupling(y, x, tau):
    """rho(Y X), which must stay below tau."""
    rho = spectral_radius(y @ x)
    if rho >= tau:
        raise CouplingError(
            f"coupling condition violated: rho(YX) = {rho:.6e} >= tau = {tau:.6e}",
            rho=rho, tau=tau,
        )
    return rho


def _bound_tail(compact: CompactPlant, t: _PointTerms, y, x, tau):
    """Measurement gain Bc~, coupling correction (I - YX/tau)^-1 and V_tau."""
    corr = np.linalg.inv(np.eye(compact.n) - (y @ x) / tau)
    bc = (y @ compact.Ct2.T + t.wxy) @ t.einv
    v = float(0.5 * np.trace(y @ t.r + bc @ t.e @ bc.T @ x @ corr))
    return bc, corr, v


def compute_gains(compact: CompactPlant, point: ScalingPoint,
                  delayed_target: bool = False) -> SynthesisSolution:
    """Solve both Riccati equations and assemble the estimator matrices
    Ac, Bc~, Cc~ and the cost bound.  Enforces admissibility, the residual
    thresholds and the coupling condition rho(Y X) < tau, in that order.
    """
    terms = _point_terms(compact, point, delayed_target)
    y, res_y = _solve_filter(compact, point, terms)
    x, res_x = _solve_control(compact, point, terms)
    if res_y > _residual_threshold(y):
        raise NumericalError(f"filter Riccati residual {res_y:.3e} above threshold")
    if res_x > _residual_threshold(x):
        raise NumericalError(f"cost Riccati residual {res_x:.3e} above threshold")

    tau = point.tau
    rho = _coupling(y, x, tau)
    bc, corr, v = _bound_tail(compact, terms, y, x, tau)
    g_gam = np.linalg.solve(terms.gmat, terms.gam.T)
    cc = -g_gam @ corr
    ac = (compact.aug.Ap + (y @ terms.r) / tau - bc @ compact.Ct2
          - (y @ terms.gam @ g_gam @ corr) / tau)
    return SynthesisSolution(
        point=point, Y=y, X=x, Ac=ac, Bc_tilde=bc, Cc_tilde=cc,
        Ca=compact.aug.Ca.copy(), Vtau=v, rho_yx=rho,
        residual_y=res_y, residual_x=res_x, m=compact.m, l=compact.l,
    )


def cost_bound(compact: CompactPlant, point: ScalingPoint,
               y: np.ndarray, x: np.ndarray, delayed_target: bool = False) -> float:
    """Guaranteed cost bound V_tau for given Riccati solutions.  The point's
    admissibility is not checked here, only the coupling condition."""
    _coupling(y, x, point.tau)
    terms = _point_terms(compact, point, delayed_target, enforce=False)
    return _bound_tail(compact, terms, y, x, point.tau)[2]


@dataclass
class OptimizationResult:
    point: ScalingPoint
    solution: SynthesisSolution
    vtau: float
    trace: list = field(default_factory=list)


def minimize_bound(compact: CompactPlant, *, tau_bounds=(1e-8, 1e-3),
                   n_starts: int = 8, seed: int = 0, starts=None,
                   lam_high: float = 1.0, delayed_target: bool = False,
                   ) -> OptimizationResult:
    """Minimize the guaranteed cost bound over (tau, lambda).

    A projected SLSQP search over lambda inside the admissible set is nested
    in a bounded scalar search over log tau, restarted from `n_starts`
    feasible points drawn deterministically from `seed` (or from explicit
    `starts`).  Returns the best feasible point found together with its
    synthesis solution and the full search trace.

    Raises InfeasibleError when no feasible start can be found.
    """
    from scipy import optimize  # imported here: ~0.3 s that no other command needs
    kt = compact.ktilde
    rng = np.random.default_rng(seed)
    log_lo, log_hi = math.log(tau_bounds[0]), math.log(tau_bounds[1])
    trace = []
    penalty = 1e9

    def value(tau, lam):
        try:
            sol = compute_gains(compact, ScalingPoint(lam=lam, tau=tau),
                                delayed_target=delayed_target)
        except (InfeasibleError, NumericalError, np.linalg.LinAlgError):
            return penalty
        trace.append((float(tau), [float(v) for v in lam], sol.Vtau))
        return sol.Vtau

    if kt == 0:
        empty = np.zeros(0)
        res = optimize.minimize_scalar(
            lambda lt: value(math.exp(lt), empty),
            bounds=(log_lo, log_hi), method="bounded",
            options={"xatol": OUTER_XTOL},
        )
        if res.fun >= penalty:
            raise InfeasibleError("no feasible tau found within the search bounds")
        sol = compute_gains(compact, ScalingPoint(lam=empty, tau=math.exp(res.x)),
                            delayed_target=delayed_target)
        return OptimizationResult(point=sol.point, solution=sol, vtau=sol.Vtau, trace=trace)

    def margin_of(lam):
        return feasible(compact, ScalingPoint(lam=lam, tau=1.0))[1]

    if starts is None:
        starts = []
        attempts = 0
        while len(starts) < n_starts and attempts < 200 * n_starts:
            cand = rng.uniform(FEASIBILITY_SLACK, lam_high, size=kt)
            attempts += 1
            if margin_of(cand) > FEASIBILITY_SLACK:
                starts.append(cand)
        if not starts:
            raise InfeasibleError(
                "no feasible scaling vector found within the sampling budget"
            )
    else:
        starts = [np.asarray(s, dtype=float) for s in starts]

    constraints = [
        {"type": "ineq", "fun": lambda lam: lam - FEASIBILITY_SLACK},
        {"type": "ineq", "fun": lambda lam: margin_of(lam) - FEASIBILITY_SLACK},
    ]
    bounds = [(FEASIBILITY_SLACK, None)] * kt

    best = None
    for lam0 in starts:
        def tau_profile(log_tau, lam0=lam0):
            tau = math.exp(log_tau)
            with warnings.catch_warnings():
                # finite-difference probes step onto the penalty cliff
                warnings.simplefilter("ignore", RuntimeWarning)
                res = optimize.minimize(
                    lambda lam: value(tau, lam), lam0, method="SLSQP",
                    bounds=bounds, constraints=constraints,
                    options={"maxiter": INNER_MAXITER, "ftol": 1e-10},
                )
            lam_opt = res.x if margin_of(res.x) >= 0 else lam0
            return value(tau, lam_opt), lam_opt

        scan = optimize.minimize_scalar(
            lambda lt: tau_profile(lt)[0],
            bounds=(log_lo, log_hi), method="bounded",
            options={"xatol": OUTER_XTOL},
        )
        v_here, lam_here = tau_profile(scan.x)
        if v_here < penalty and (best is None or _better(v_here, lam_here, best)):
            best = (v_here, math.exp(scan.x), lam_here)

    if best is None:
        raise InfeasibleError("optimizer found no feasible point within budget")
    _, tau_best, lam_best = best
    sol = compute_gains(compact, ScalingPoint(lam=lam_best, tau=tau_best),
                        delayed_target=delayed_target)
    return OptimizationResult(point=sol.point, solution=sol, vtau=sol.Vtau, trace=trace)


def _better(v, lam, best):
    v_best, _, lam_best = best
    if abs(v - v_best) > 1e-12 * (1.0 + abs(v_best)):
        return v < v_best
    return tuple(lam) < tuple(lam_best)      # deterministic tie break


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
    return json.dumps(doc, indent=2, sort_keys=True)
