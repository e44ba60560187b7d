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
The constants come from the compact plant the gains were synthesized for
(homodyne_loop); it fixes only alpha beta and alpha gamma, so beta alone,
which sin e / beta and psi's -beta z need, is SimConfig.beta_slope.

A batch integrates in a slab (slab + 1, n + 7, runs) whose entry j holds
step j's rows [e; z; xhat; phi; sin e; sin z; dV; dW], a column per run,
with e = phi - Cc xhat, z = Kc xhat / (2 alpha gamma) and the two normals
already in place.  A step is one sine of the e and z rows into the sine
rows and one product with a fixed (n+3)x(n+5) matrix W from entry j's
[xhat; phi; sin e; sin z; dV; dW] to entry j + 1's [e; z; xhat; phi].  All
but the two sines is linear, so W holds dybar's phihat dt term, psi's
-beta z term, the constants and the noise scales.  The sector count
and phi(T - delta) are read per slab.  One pass yields all
READOUTS: Ca xhat(T) against phi(T - delta) and phi(T), and Cc xhat(T)
against phi(T).

Per-run noise comes from independent counter-based Philox streams keyed by
(master_seed, run_index) (Salmon et al., SC 2011), drawn one contiguous
block per run and chunk, so the chunk length changes no value.  A batch
runs in two processes: a child made by os.fork draws chunk k + 1 into the
other of two raw buffers in an anonymous shared mmap while the caller
integrates chunk k, and two pipes carry one byte per chunk each way.  The
child has its own interpreter lock, so the caller's many small NumPy calls
never wait on the draws.  This is POSIX-only; from Python 3.12 on, os.fork
warns when other OS threads, such as OpenBLAS's, are alive.  A batch holds
2 NOISE_BUDGET run-steps of shared noise (8 MB) and a slab of SLAB_BUDGET
(1.3 MB at n = 3).  The sines act elementwise, and OpenBLAS's dgemm sums
every column in one order at any column count and thread count; its
one-column (gemv) path does not, so a batch of one runs in two columns.
The divergence guard is checked after every GUARD_STEPS-th step and at the
horizon, where slabs end.  A run's errors, divergence flag and violation
count are thus bit-identical at any batch size and chunk and with one or
two BLAS threads (pinned by the tests).
"""

from __future__ import annotations

import dataclasses
import math
import mmap
import os
import signal
from collections import namedtuple
from contextlib import closing
from dataclasses import dataclass

import numpy as np

from .model import CompactPlant
from .synthesis import SynthesisSolution

__all__ = ["SimConfig", "MonteCarloReport", "READOUTS", "homodyne_loop",
           "run_generator", "monte_carlo", "sample_linear_loop"]

READOUTS = ("delayed", "undelayed", "filter")
NOISE_BUDGET = 1 << 18      # run-steps per raw buffer: 4 MB of 2 draws, two shared buffers
SLAB_BUDGET = 1 << 14       # run-steps per slab: 1.3 MB at n = 3
GUARD_STEPS = 128           # steps between divergence-guard checks


@dataclass(frozen=True)
class SimConfig:
    """Settings of the homodyne phase-tracking experiment; the loop itself is
    the compact plant's (homodyne_loop).  estimator and compare pick the
    headline READOUTS entry: "smoother" with "delayed" or "undelayed", or
    "ngcf" for the filter.  All three come from one pass."""

    beta_slope: float = 1.0       # tangent slope of the measurement curve
    dt: float = 1.0e-8            # integration step, s
    horizon: float = 1.0e-3       # run length, s
    runs: int = 2000
    master_seed: int = 0
    estimator: str = "smoother"   # "smoother" | "ngcf"
    compare: str = "delayed"      # "delayed" | "undelayed" (smoother target)
    phi0: float = 0.0
    meas_noise_scale: float = 1.0
    divergence_guard: float = 1.0e3   # |phihat| beyond this aborts a run
    sector_limit: float = 1.656       # |phi - phihat| range where the sector bound holds
    batch: int = 2048                 # runs integrated per vectorized batch
    chunk: int = 5000                 # steps per noise block, at most NOISE_BUDGET // batch

    def validate(self) -> None:
        for key in ("dt", "beta_slope"):
            if getattr(self, key) <= 0:
                raise ValueError(f"{key} must be positive")
        if self.horizon < 100 * self.dt:
            raise ValueError("horizon must cover at least 100 integration steps")
        for key in ("runs", "batch", "chunk"):
            if getattr(self, key) < 1:
                raise ValueError(f"{key} must be at least 1")
        if self.estimator not in ("smoother", "ngcf"):
            raise ValueError(f"estimator = {self.estimator!r} is not 'smoother' or 'ngcf'")
        if self.compare not in ("delayed", "undelayed"):
            raise ValueError(f"compare = {self.compare!r} is not 'delayed' or 'undelayed'")

    @property
    def nsteps(self) -> int:
        return round(self.horizon / self.dt)

    def lag_steps(self, delta: float) -> int:
        """The lag delta in steps: a multiple of dt shorter than the horizon."""
        ratio = delta / self.dt
        if abs(ratio - round(ratio)) > 1e-6 * max(1.0, ratio) or round(ratio) >= self.nsteps:
            raise ValueError(f"lag {delta!r} s must be a multiple of dt = {self.dt!r} s "
                             f"shorter than the horizon {self.horizon!r} s")
        return round(ratio)

    @property
    def readout(self) -> str:
        """The READOUTS entry that estimator and compare select."""
        return "filter" if self.estimator == "ngcf" else self.compare


HomodyneLoop = namedtuple("HomodyneLoop", "lam sqrt_kappa two_ab two_ag delta")


def homodyne_loop(compact: CompactPlant) -> HomodyneLoop:
    """The loop constants of the plant that synthesis used: lambda = -a,
    sqrt(kappa) = b1[0, 0], 2 alpha beta = 1 / d21[0, 1], 2 alpha gamma =
    c1_nl and the delay model's lag delta.  Raises ValueError unless the plant
    has the one-state homodyne shape (nbar = 1, q = 2, g = 1, m = l = 1) and a
    nonzero c1_nl."""
    p = compact.plant
    shape = {"nbar": p.nbar, "q": p.q, "g": p.g, "m": p.m, "l": p.l}
    if list(shape.values()) != [1, 2, 1, 1, 1]:
        raise ValueError("the simulator integrates the one-state homodyne loop "
                         f"(nbar = 1, q = 2, g = 1, m = l = 1), not a plant with {shape}")
    if p.C1_nl[0][0, 0] == 0.0:
        raise ValueError("c1_nl = 2 alpha gamma must be nonzero")
    return HomodyneLoop(float(-p.A[0, 0]), float(p.B1[0, 0]), float(1.0 / p.D21[0, 1]),
                        float(p.C1_nl[0][0, 0]), compact.aug.delay.delta)


@dataclass(frozen=True)
class MonteCarloReport:
    error_covariance: float
    standard_error: float
    runs_completed: int
    runs_diverged: int
    sector_violation_rate: float
    healthy: bool
    errors: np.ndarray = None
    readouts: dict = None     # READOUTS name -> report from the same runs

    def to_dict(self) -> dict:
        """The statistics as JSON holds them: None for a non-finite one (the
        standard error of fewer than two runs, the level of none)."""
        return {f.name: None if isinstance(v := getattr(self, f.name), float) and not math.isfinite(v)
                else v for f in dataclasses.fields(self) if f.name not in ("errors", "readouts")}


def run_generator(master_seed: int, run_index: int) -> np.random.Generator:
    """Independent counter-based stream for one run, keyed by
    (master_seed, run_index)."""
    seq = np.random.SeedSequence(entropy=(int(master_seed), int(run_index)))
    return np.random.Generator(np.random.Philox(seq))


def _batches(runs: int, batch: int):
    for lo in range(0, runs, batch):
        yield range(lo, min(lo + batch, runs))


def _buffers(width, rows, dims, chunk):
    """Two raw noise buffers (2, width, steps, dims) in an anonymous shared
    mmap, which starts zeroed, and a slab (slab + 1, rows, width) within
    their budgets and GUARD_STEPS."""
    steps = max(1, min(chunk, NOISE_BUDGET // width))
    slab = max(1, min(GUARD_STEPS, SLAB_BUDGET // width))
    shape = (2, width, steps, dims)
    raws = np.frombuffer(mmap.mmap(-1, 8 * math.prod(shape)), dtype=np.float64)
    return raws.reshape(shape), np.zeros((slab + 1, rows, width))


def _draw(master_seed, indices, nsteps, raws, free, ready):
    """The noise process: draws chunk k of each run, one draw from the run's
    own stream, into raws[k % 2] once a byte on `free` says the caller is done
    with that buffer, and writes a byte to `ready`.  Pad columns stay zero."""
    rngs = [run_generator(master_seed, i) for i in indices]
    steps, dims = raws.shape[2:]
    for k, first in enumerate(range(0, nsteps, steps)):
        if k >= 2 and not os.read(free, 1):
            return                                    # the caller has gone
        m = min(steps, nsteps - first)
        for rng, block in zip(rngs, raws[k % 2]):
            rng.standard_normal((m, dims), out=block[:m])
        os.write(ready, b"k")


def _slabs(master_seed, indices, nsteps, raws, slab):
    """Yields (start, m) once slab[:m]'s last dims rows hold the normals of
    steps start .. start + m - 1, and on resuming carries slab[m]'s other rows
    into slab[0].  Slabs end at chunk ends and GUARD_STEPS multiples.  A
    forked child runs _draw, chunk k + 1 while the caller integrates chunk k,
    and leaves by os._exit; the caller kills and reaps it on leaving."""
    steps, dims = raws.shape[2:]
    free_r, free_w = os.pipe()
    ready_r, ready_w = os.pipe()
    pid = None
    try:
        try:
            pid = os.fork()
            if pid == 0:
                try:
                    os.close(free_w)
                    os.close(ready_r)
                    _draw(master_seed, indices, nsteps, raws, free_r, ready_w)
                finally:
                    os._exit(0)
        finally:
            os.close(free_r)
            os.close(ready_w)
        for k, first in enumerate(range(0, nsteps, steps)):
            if not os.read(ready_r, 1):
                raise RuntimeError(f"the noise process {pid} exited before "
                                   f"drawing chunk {k}")
            raw = raws[k % 2].transpose(1, 2, 0)          # (steps, dims, width)
            start, last = first, min(first + steps, nsteps)
            while start < last:
                m = min(last - start, len(slab) - 1, GUARD_STEPS - start % GUARD_STEPS)
                np.copyto(slab[:m, -dims:], raw[start - first:start - first + m])
                yield start, m
                np.copyto(slab[0, :-dims], slab[m, :-dims])
                start += m
            if first + 2 * steps < nsteps:
                try:
                    os.write(free_w, b"f")
                except BrokenPipeError:
                    pass                    # the next read finds the noise process gone
    finally:
        os.close(ready_r)
        os.close(free_w)
        if pid:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _readout(row, x):
    """row @ x as a sum over the state rows, so a column's value does not
    depend on how many columns x has."""
    return sum(r * xr for r, xr in zip(row, x))


def _step_matrix(cfg: SimConfig, loop: HomodyneLoop, gains: SynthesisSolution) -> np.ndarray:
    """W with W [xhat; phi; sin e; sin z; dV; dW] = next [xhat; phi; e; z].

    dybar = (dt / beta) sin e + dt Cc xhat + noise and psi = sin z - beta z
    are linear apart from the two sines, so their linear parts sit in W."""
    n, dt = gains.Ac.shape[0], cfg.dt
    gc, kc = gains.Gc, gains.Kc / loop.two_ag
    bc, cc = gains.Bc, gains.Cc
    ax = np.eye(n) + (gains.Ac + bc @ cc - cfg.beta_slope * gc @ kc) * dt
    w_noise = cfg.meas_noise_scale * math.sqrt(dt) / loop.two_ab
    zero = np.zeros((n, 1))
    phi_row = np.zeros((1, n + 5))
    phi_row[0, [n, n + 3]] = 1.0 - loop.lam * dt, loop.sqrt_kappa * math.sqrt(dt)
    top = np.vstack([np.hstack([ax, zero, bc * (dt / cfg.beta_slope), gc * dt,
                                zero, bc * w_noise]), phi_row])
    to_ez = np.block([[-cc, np.ones((1, 1))], [kc, np.zeros((1, 1))]])
    return np.vstack([top, to_ez @ top])


def _integrate(cfg: SimConfig, compact: CompactPlant, gains: SynthesisSolution, indices):
    """Euler-Maruyama integration of the runs `indices` of the compact plant's
    loop.  Returns the (3, runs) errors in READOUTS order, alive flags and
    sector-violation counts."""
    loop = homodyne_loop(compact)
    w = np.roll(_step_matrix(cfg, loop, gains), 2, axis=0)     # rows [e; z; xhat; phi]
    n = gains.Ac.shape[0]
    cc = gains.Cc[0]
    nruns = len(indices)
    width = max(nruns, 2)         # one column would take BLAS's gemv path
    # slab rows: e, z, xhat (n), phi, sin e, sin z, dV, dW
    raws, slab = _buffers(width, n + 7, 2, cfg.chunk)
    slab[0, [0, n + 2]] = cfg.phi0    # phi, and e = phi - Cc xhat with xhat = 0
    steps = [(y[:2], y[n + 3:n + 5], y[2:], nxt[:n + 3]) for y, nxt in zip(slab, slab[1:])]
    phi_lag = np.zeros(width)
    alive = np.ones(width, dtype=bool)
    violations = np.zeros(width, dtype=np.int64)
    snap_at = cfg.nsteps - cfg.lag_steps(loop.delta)

    # diverging runs may overflow between guard checks; they are detected and
    # excluded there, so the arithmetic noise is expected
    with np.errstate(over="ignore", invalid="ignore"), \
            closing(_slabs(cfg.master_seed, indices, cfg.nsteps, raws, slab)) as slabs:
        for start, m in slabs:
            for ez, sines, y, nxt in steps[:m]:
                np.sin(ez, out=sines)
                np.dot(w, y, out=nxt)
            violations += np.count_nonzero(np.abs(slab[:m, 0]) > cfg.sector_limit, axis=0)
            if start <= snap_at < start + m:
                np.copyto(phi_lag, slab[snap_at - start, n + 2])
            if (start + m) % GUARD_STEPS == 0 or start + m == cfg.nsteps:
                y = slab[m]
                # a non-finite xhat gives a non-finite phihat, which fails the comparison
                bad = ~(np.abs(_readout(cc, y[2:n + 2])) <= cfg.divergence_guard)
                if bad.any():
                    alive &= ~bad
                    y[:, bad] = 0.0

    x, phi = slab[0, 2:n + 2], slab[0, n + 2]
    if snap_at == cfg.nsteps:
        phi_lag = phi
    smoothed, filtered = _readout(gains.Ca[0], x), _readout(cc, x)
    errors = np.stack([smoothed - phi_lag, smoothed - phi, filtered - phi])
    return errors[:, :nruns], alive[:nruns], violations[:nruns]


def _report(errors, runs, diverged=0, violation_rate=0.0, keep_errors=True):
    sq = errors ** 2
    cov = float(np.mean(sq)) if sq.size else float("nan")
    se = float(np.std(sq, ddof=1) / math.sqrt(sq.size)) if sq.size >= 2 else float("inf")
    return MonteCarloReport(cov, se, int(sq.size), diverged, violation_rate,
                            healthy=diverged <= 0.01 * runs,
                            errors=errors if keep_errors else None)


def monte_carlo(cfg: SimConfig, compact: CompactPlant, gains: SynthesisSolution,
                keep_errors: bool = False, progress=None) -> MonteCarloReport:
    """Estimate the terminal error covariance over cfg.runs independent runs
    of the compact plant's loop under the gains.

    Runs whose estimate diverges are excluded and counted; the report is
    flagged unhealthy when more than 1 percent diverge.  standard_error is
    the standard error of the mean of the squared terminal errors (infinite
    for a single run).  The report is cfg.readout's; its `readouts` maps
    every READOUTS name to the report of that readout on the same runs.
    """
    cfg.validate()
    parts = []
    for indices in _batches(cfg.runs, cfg.batch):
        parts.append(_integrate(cfg, compact, gains, indices))
        if progress is not None:
            progress(indices.stop, cfg.runs)
    errors, alive, violations = (np.concatenate(p, axis=-1) for p in zip(*parts))
    n_div = int((~alive).sum())
    rate = int(violations.sum()) / (cfg.runs * cfg.nsteps)
    reports = {name: _report(e[alive], cfg.runs, n_div, rate, keep_errors)
               for name, e in zip(READOUTS, errors)}
    return dataclasses.replace(reports[cfg.readout], readouts=reports)


def sample_linear_loop(abold: np.ndarray, bbold: np.ndarray, sel_est: np.ndarray,
                       sel_target: np.ndarray, *, dt: float, horizon: float,
                       lag: float, runs: int, master_seed: int = 0,
                       batch: int = 2048, chunk: int = 5000) -> MonteCarloReport:
    """Empirical error covariance of a linear loop dX = Abold X dt + Bbold dW.

    Collects sel_est X(T) - sel_target X(T - lag) over independent runs; used
    to cross-check the Lyapunov-based covariance on small analytic models.
    A step is one product of [I + Abold dt, Bbold] with [X; dW].
    """
    nsteps = round(horizon / dt)
    snap_at = nsteps - round(lag / dt)
    nx, nw = bbold.shape
    w = np.hstack([np.eye(nx) + abold * dt, bbold * math.sqrt(dt)])
    samples = []
    for indices in _batches(runs, batch):
        width = max(len(indices), 2)
        raws, slab = _buffers(width, nx + nw, nw, chunk)
        steps = [(y, nxt[:nx]) for y, nxt in zip(slab, slab[1:])]
        with closing(_slabs(master_seed, indices, nsteps, raws, slab)) as slabs:
            for start, m in slabs:
                for y, nxt in steps[:m]:
                    np.dot(w, y, out=nxt)
                if start <= snap_at < start + m:
                    x_lag = slab[snap_at - start, :nx].copy()
        x = slab[0, :nx]
        if snap_at == nsteps:
            x_lag = x
        err = _readout(sel_est, x) - _readout(sel_target, x_lag)
        samples.append(err[:len(indices)])
    return _report(np.concatenate(samples), runs)
