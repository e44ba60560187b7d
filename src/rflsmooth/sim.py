"""Nonlinear stochastic simulation of the adaptive homodyne loop and Monte
Carlo estimation of the empirical error covariance.

The loop integrated by Euler-Maruyama is

    d phi = -lambda phi dt + sqrt(kappa) dV
    dI    = 2 alpha sin(phi - phihat) dt + dW
    dybar = (dI + 2 alpha beta phihat dt) / (2 alpha beta)
    dxhat = (Ac xhat + Gc psi(Kc xhat)) dt + Bc dybar

with phihat = (Cc xhat) fed back to the local oscillator and psi the
estimator's copy of the measurement nonlinearity,
psi(nu) = sin(nu / (2 alpha gamma)) - beta * nu / (2 alpha gamma).

Per-run noise comes from independent counter-based Philox streams keyed by
(master_seed, run_index), so the aggregate report depends only on the
configuration and master seed, not on batching or scheduling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .synthesis import SynthesisSolution

__all__ = [
    "SimConfig",
    "RunResult",
    "MonteCarloReport",
    "run_generator",
    "simulate_run",
    "monte_carlo",
    "sample_linear_loop",
]


@dataclass(frozen=True)
class SimConfig:
    """Parameters of the homodyne phase-tracking experiment.

    estimator selects which terminal error is collected: "smoother" compares
    the delayed readout Ca xhat(T) against phi(T - delta) (or against phi(T)
    when compare="undelayed"), "ngcf" compares the filter output against
    phi(T).
    """

    kappa: float = 4.0e4          # phase diffusion intensity, rad^2/s
    lambda_ou: float = 9.14e3     # mean-reversion rate, 1/s
    alpha: float = 1162.0         # field amplitude, 1/s
    beta_slope: float = 1.0       # tangent slope of the measurement curve
    gamma: float = 0.4            # sector bound
    dt: float = 1.0e-8            # integration step, s
    horizon: float = 1.0e-3       # run length, s
    delta: float = 3.1e-6         # smoother lag, s
    runs: int = 2000
    master_seed: int = 0
    estimator: str = "smoother"   # "smoother" | "ngcf"
    compare: str = "delayed"      # "delayed" | "undelayed" (smoother target)
    phi0: float = 0.0
    meas_noise_scale: float = 1.0
    divergence_guard: float = 1.0e3   # |phihat| beyond this aborts a run
    sector_limit: float = 1.656       # |phi - phihat| range where the sector bound holds
    batch: int = 256                  # runs integrated per vectorized batch
    chunk: int = 5000                 # steps per pre-drawn noise block

    def validate(self) -> None:
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.horizon < 100 * self.dt:
            raise ValueError("horizon must cover at least 100 integration steps")
        if self.delta < 0:
            raise ValueError("delta must be nonnegative")
        ratio = self.delta / self.dt
        if abs(ratio - round(ratio)) > 1e-6 * max(1.0, ratio):
            raise ValueError("delta must be an integer multiple of dt")
        for key in ("runs", "batch", "chunk"):
            if getattr(self, key) < 1:
                raise ValueError(f"{key} must be at least 1")
        if self.estimator not in ("smoother", "ngcf"):
            raise ValueError(f"unknown estimator mode {self.estimator!r}")
        if self.compare not in ("delayed", "undelayed"):
            raise ValueError(f"unknown comparison mode {self.compare!r}")

    @property
    def nsteps(self) -> int:
        return round(self.horizon / self.dt)

    @property
    def lag_steps(self) -> int:
        return round(self.delta / self.dt)


@dataclass(frozen=True)
class RunResult:
    error: float
    diverged: bool
    sector_violations: int
    trajectory: dict = None


@dataclass(frozen=True)
class MonteCarloReport:
    error_covariance: float
    standard_error: float
    runs_completed: int
    runs_diverged: int
    sector_violation_rate: float
    healthy: bool
    errors: np.ndarray = None

    def to_dict(self) -> dict:
        return {
            "error_covariance": self.error_covariance,
            "standard_error": self.standard_error,
            "runs_completed": self.runs_completed,
            "runs_diverged": self.runs_diverged,
            "sector_violation_rate": self.sector_violation_rate,
            "healthy": self.healthy,
        }


def run_generator(master_seed: int, run_index: int) -> np.random.Generator:
    """Independent counter-based stream for one run, keyed by
    (master_seed, run_index)."""
    seq = np.random.SeedSequence(entropy=(int(master_seed), int(run_index)))
    return np.random.Generator(np.random.Philox(seq))


def copy_nonlinearity(cfg: SimConfig):
    """Estimator copy psi(nu), normalized so its input lives in the same
    units as the synthesized copy-input row Kc xhat."""
    scale = 2.0 * cfg.alpha * cfg.gamma

    def psi(nu):
        z = nu / scale
        return np.sin(z) - cfg.beta_slope * z

    return psi


def _integrate_batch(cfg: SimConfig, gains: SynthesisSolution, indices,
                     record_trajectory: bool = False):
    """Euler-Maruyama integration of a batch of runs on their own streams."""
    if gains.Cc.shape[0] != 1:
        raise ValueError("the homodyne simulator assumes a single estimated output")
    nruns = len(indices)
    n = gains.Ac.shape[0]
    rngs = [run_generator(cfg.master_seed, i) for i in indices]
    psi = copy_nonlinearity(cfg)
    two_ab = 2.0 * cfg.alpha * cfg.beta_slope
    sqrt_kappa = math.sqrt(cfg.kappa)
    sqdt = math.sqrt(cfg.dt)
    dt = cfg.dt
    ac_t = gains.Ac.T
    bc = gains.Bc[:, 0]
    gc = gains.Gc[:, 0] if gains.Gc.shape[1] else np.zeros(n)
    cc = gains.Cc[0]
    kc = gains.Kc[0] if gains.Kc.shape[0] else np.zeros(n)
    has_copy = gains.Gc.shape[1] > 0

    nsteps = cfg.nsteps
    snap_at = nsteps - cfg.lag_steps
    phi = np.full(nruns, cfg.phi0, dtype=float)
    xhat = np.zeros((nruns, n))
    phi_lag = np.zeros(nruns)
    alive = np.ones(nruns, dtype=bool)
    violations = np.zeros(nruns, dtype=np.int64)
    traj = {"t": [], "phi": [], "phihat": []} if record_trajectory else None

    for start in range(0, nsteps, cfg.chunk):
        mlen = min(cfg.chunk, nsteps - start)
        dv = np.empty((mlen, nruns))
        dw = np.empty((mlen, nruns))
        for j, rng in enumerate(rngs):
            block = rng.standard_normal((mlen, 2)) * sqdt
            dv[:, j] = block[:, 0]
            dw[:, j] = block[:, 1] * cfg.meas_noise_scale
        # diverging runs may overflow inside a chunk; they are detected and
        # excluded at the chunk boundary, so the arithmetic noise is expected
        with np.errstate(over="ignore", invalid="ignore"):
            for j in range(mlen):
                step = start + j
                if step == snap_at:
                    phi_lag = phi.copy()
                phihat = xhat @ cc
                err = phi - phihat
                violations += np.abs(err) > cfg.sector_limit
                di = 2.0 * cfg.alpha * np.sin(err) * dt + dw[j]
                dybar = (di + two_ab * phihat * dt) / two_ab
                if has_copy:
                    mu_copy = psi(xhat @ kc)
                    xhat = xhat + (xhat @ ac_t + np.outer(mu_copy, gc)) * dt + np.outer(dybar, bc)
                else:
                    xhat = xhat + (xhat @ ac_t) * dt + np.outer(dybar, bc)
                phi = phi - cfg.lambda_ou * phi * dt + sqrt_kappa * dv[j]
                if record_trajectory:
                    traj["t"].append((step + 1) * dt)
                    traj["phi"].append(float(phi[0]))
                    traj["phihat"].append(float(phihat[0]))
            bad = ~np.isfinite(xhat).all(axis=1) | (np.abs(xhat @ cc) > cfg.divergence_guard)
        if bad.any():
            alive &= ~bad
            xhat[bad] = 0.0
            phi[bad] = 0.0

    if cfg.lag_steps == 0:
        phi_lag = phi.copy()
    if cfg.estimator == "smoother":
        target = phi if cfg.compare == "undelayed" else phi_lag
        errors = xhat @ gains.Ca[0] - target
    else:
        errors = xhat @ cc - phi
    traj_out = {k: np.asarray(v) for k, v in traj.items()} if record_trajectory else None
    return errors, alive, violations, traj_out


def simulate_run(cfg: SimConfig, gains: SynthesisSolution, run_index: int = 0,
                 record_trajectory: bool = False) -> RunResult:
    """Integrate a single run and return its terminal error sample."""
    cfg.validate()
    errors, alive, violations, traj = _integrate_batch(
        cfg, gains, [run_index], record_trajectory=record_trajectory
    )
    return RunResult(
        error=float(errors[0]),
        diverged=not bool(alive[0]),
        sector_violations=int(violations[0]),
        trajectory=traj,
    )


def monte_carlo(cfg: SimConfig, gains: SynthesisSolution,
                keep_errors: bool = False, progress=None) -> MonteCarloReport:
    """Estimate the terminal error covariance over cfg.runs independent runs.

    Runs whose estimate diverges are excluded and counted; the report is
    flagged unhealthy when more than 1 percent diverge.  standard_error is
    the standard error of the mean of the squared terminal errors (infinite
    for a single run).
    """
    cfg.validate()
    all_errors = []
    n_div = 0
    total_viol = 0
    done = 0
    for lo in range(0, cfg.runs, cfg.batch):
        indices = range(lo, min(lo + cfg.batch, cfg.runs))
        errors, alive, violations, _ = _integrate_batch(cfg, gains, list(indices))
        all_errors.append(errors[alive])
        n_div += int((~alive).sum())
        total_viol += int(violations.sum())
        done += len(list(indices))
        if progress is not None:
            progress(done, cfg.runs)
    errors = np.concatenate(all_errors)
    sq = errors ** 2
    cov = float(np.mean(sq)) if sq.size else float("nan")
    if sq.size >= 2:
        se = float(np.std(sq, ddof=1) / math.sqrt(sq.size))
    else:
        se = float("inf")
    viol_rate = total_viol / (cfg.runs * cfg.nsteps)
    return MonteCarloReport(
        error_covariance=cov,
        standard_error=se,
        runs_completed=int(sq.size),
        runs_diverged=n_div,
        sector_violation_rate=viol_rate,
        healthy=(n_div <= 0.01 * cfg.runs),
        errors=errors if keep_errors else None,
    )


def sample_linear_loop(abold: np.ndarray, bbold: np.ndarray, sel_est: np.ndarray,
                       sel_target: np.ndarray, *, dt: float, horizon: float,
                       lag: float, runs: int, master_seed: int = 0,
                       batch: int = 1024, chunk: int = 1000) -> MonteCarloReport:
    """Empirical error covariance of a linear loop dX = Abold X dt + Bbold dW.

    Collects sel_est X(T) - sel_target X(T - lag) over independent runs; used
    to cross-check the Lyapunov-based covariance on small analytic models.
    """
    nsteps = round(horizon / dt)
    lag_steps = round(lag / dt)
    nx = abold.shape[0]
    nw = bbold.shape[1]
    sqdt = math.sqrt(dt)
    at = abold.T
    bt = bbold.T
    samples = []
    for lo in range(0, runs, batch):
        nb = min(batch, runs - lo)
        rngs = [run_generator(master_seed, lo + i) for i in range(nb)]
        x = np.zeros((nb, nx))
        x_lag = np.zeros((nb, nx))
        for start in range(0, nsteps, chunk):
            mlen = min(chunk, nsteps - start)
            noise = np.empty((mlen, nb, nw))
            for j, rng in enumerate(rngs):
                noise[:, j, :] = rng.standard_normal((mlen, nw)) * sqdt
            for j in range(mlen):
                if start + j == nsteps - lag_steps:
                    x_lag = x.copy()
                x = x + (x @ at) * dt + noise[j] @ bt
        if lag_steps == 0:
            x_lag = x.copy()
        samples.append(x @ sel_est - x_lag @ sel_target)
    err = np.concatenate(samples)
    sq = err ** 2
    return MonteCarloReport(
        error_covariance=float(np.mean(sq)),
        standard_error=float(np.std(sq, ddof=1) / math.sqrt(sq.size)),
        runs_completed=int(sq.size),
        runs_diverged=0,
        sector_violation_rate=0.0,
        healthy=True,
        errors=err,
    )
