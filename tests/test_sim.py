import dataclasses
import math
import os
import signal
import threading

import numpy as np
import pytest

from rflsmooth import sim
from rflsmooth.delay import identity_delay, pade_delay
from rflsmooth.example import OpticalParameters, phase_estimation_plant
from rflsmooth.model import augment_with_delay, build_compact
from rflsmooth.sim import (
    READOUTS,
    SimConfig,
    homodyne_loop,
    monte_carlo,
    run_generator,
    sample_linear_loop,
)


@pytest.fixture(scope="module")
def fast_cfg():
    """Coarse, short configuration for cheap functional tests."""
    return SimConfig(dt=1e-7, horizon=5e-5, runs=4, master_seed=7)


def loop_compact(**physics):
    """Compact plant of the example loop with changed physical parameters; a
    zero lag gives the identity delay."""
    params = OpticalParameters(**physics)
    dly = pade_delay(2, params.delta, "paper") if params.delta else identity_delay(1)
    return build_compact(augment_with_delay(phase_estimation_plant(params), dly))


def test_config_validation_errors():
    with pytest.raises(ValueError):
        SimConfig(dt=0.0).validate()
    with pytest.raises(ValueError, match="beta_slope"):
        SimConfig(beta_slope=0.0).validate()
    with pytest.raises(ValueError):
        SimConfig(horizon=1e-8).validate()
    with pytest.raises(ValueError):
        SimConfig().lag_steps(1.5e-8)           # not a step multiple
    with pytest.raises(ValueError):
        SimConfig(runs=0).validate()
    with pytest.raises(ValueError):
        SimConfig(estimator="kalman").validate()


def test_lag_longer_than_horizon_refused(paper_compact, paper_solution):
    """A lag of 310 steps in a 200-step run has no phi(T - delta) to compare."""
    cfg = SimConfig(horizon=2e-6, runs=4, master_seed=1)
    with pytest.raises(ValueError, match="shorter than the horizon"):
        monte_carlo(cfg, paper_compact, paper_solution)
    assert SimConfig(horizon=3.2e-6).lag_steps(3.1e-6) == 310


def test_plant_of_other_shape_refused(paper_solution):
    plant = phase_estimation_plant()
    two_outputs = dataclasses.replace(plant, C0=np.ones((2, 1)))
    compact = build_compact(augment_with_delay(two_outputs, identity_delay(2)))
    with pytest.raises(ValueError, match="one-state homodyne loop"):
        monte_carlo(SimConfig(dt=1e-7, horizon=5e-5, runs=1), compact, paper_solution)


def test_zero_noise_equilibrium(fast_cfg, paper_solution):
    cfg = dataclasses.replace(fast_cfg, meas_noise_scale=0.0, runs=1)
    rep = monte_carlo(cfg, loop_compact(kappa=0.0), paper_solution, keep_errors=True)
    assert rep.errors.tolist() == [0.0]
    assert rep.runs_diverged == 0


def test_run_determinism(fast_cfg, paper_compact, paper_solution):
    a, b = (monte_carlo(fast_cfg, paper_compact, paper_solution, keep_errors=True)
            for _ in range(2))
    assert a.errors.shape == (4,) and np.array_equal(a.errors, b.errors)


def test_distinct_runs_differ(fast_cfg, paper_compact, paper_solution):
    rep = monte_carlo(fast_cfg, paper_compact, paper_solution, keep_errors=True)
    assert len(set(rep.errors.tolist())) == fast_cfg.runs


def test_single_run_report(fast_cfg, paper_compact, paper_solution):
    rep = monte_carlo(dataclasses.replace(fast_cfg, runs=1), paper_compact, paper_solution)
    four = monte_carlo(fast_cfg, paper_compact, paper_solution, keep_errors=True)
    assert rep.error_covariance == four.errors[0] ** 2
    assert rep.standard_error == math.inf
    assert rep.healthy


def test_report_independent_of_batch_boundaries(fast_cfg, paper_compact, paper_solution):
    cfg_a = dataclasses.replace(fast_cfg, runs=6, batch=2)
    cfg_b = dataclasses.replace(fast_cfg, runs=6, batch=6)
    ra = monte_carlo(cfg_a, paper_compact, paper_solution, keep_errors=True)
    rb = monte_carlo(cfg_b, paper_compact, paper_solution, keep_errors=True)
    np.testing.assert_allclose(ra.errors, rb.errors, rtol=1e-12)


def per_run(cfg, compact, gains):
    """Every run's three errors, divergence flag and violation count, batch
    by batch as monte_carlo integrates them."""
    parts = [sim._integrate(cfg, compact, gains, idx)
             for idx in sim._batches(cfg.runs, cfg.batch)]
    return [np.concatenate(p, axis=-1) for p in zip(*parts)]


def test_runs_bit_identical_at_any_batch_size(fast_cfg, paper_compact, paper_solution):
    """A one-column product would take BLAS's matrix-vector path, which
    rounds differently.  phi0 = 1.8 starts every run outside the sector so
    the violation counts differ from run to run."""
    cfg = dataclasses.replace(fast_cfg, runs=300, phi0=1.8)
    ref = per_run(dataclasses.replace(cfg, batch=2048), paper_compact, paper_solution)
    assert ref[1].all()                         # no run diverged
    assert len(set(ref[2].tolist())) > 10
    for batch in (1, 3, 5, 256, 300):
        got = per_run(dataclasses.replace(cfg, batch=batch), paper_compact, paper_solution)
        for a, b in zip(got, ref):
            np.testing.assert_array_equal(a, b)


def test_chunk_does_not_change_error_bits(fast_cfg, paper_compact, paper_solution):
    """A run's Philox stream continues across chunks, so shorter noise
    blocks give the same numbers."""
    cfg = dataclasses.replace(fast_cfg, runs=5)
    ref = per_run(cfg, paper_compact, paper_solution)
    for chunk in (1, 7, 64, 499):
        got = per_run(dataclasses.replace(cfg, chunk=chunk), paper_compact, paper_solution)
        for a, b in zip(got, ref):
            np.testing.assert_array_equal(a, b)


def test_divergence_flags_independent_of_batch_and_chunk(fast_cfg, paper_compact,
                                                         paper_solution):
    """A guard of 1.5 rad, which phihat crosses and recrosses, flags about
    half the runs, each at the first check that finds it beyond.  The checks
    come after every GUARD_STEPS-th step whatever the batch and chunk, so the
    flags, and the errors of the runs reset at a check, are the same bits
    everywhere."""
    cfg = dataclasses.replace(fast_cfg, horizon=1e-4, runs=300, divergence_guard=1.5,
                              batch=300)
    ref = per_run(cfg, paper_compact, paper_solution)
    assert 10 < np.count_nonzero(~ref[1]) < cfg.runs - 10
    for over in ({"batch": 1}, {"batch": 3}, {"batch": 7},
                 {"chunk": 1}, {"chunk": 7}, {"chunk": 499}):
        got = per_run(dataclasses.replace(cfg, **over), paper_compact, paper_solution)
        for a, b in zip(got, ref):
            np.testing.assert_array_equal(a, b)


def test_noise_and_slab_buffers_within_budget():
    """Per batch, the two raw noise buffers hold at most NOISE_BUDGET
    run-steps of two draws each (8 MiB together) and the slab of the n = 3
    loop (10 rows) at most 1.5 MB."""
    expected = {2: (320_000, 20_640), 300: (8_380_800, 1_320_000),
                2000: (8_384_000, 1_440_000)}
    for width, nbytes in expected.items():
        raws, slab = sim._buffers(width, 10, 2, 5000)
        assert (raws.nbytes, slab.nbytes) == nbytes
        assert raws.nbytes <= 2 * sim.NOISE_BUDGET * 2 * 8 == 8 << 20
        assert slab.nbytes <= 1_500_000


def leftovers():
    """Threads, open file descriptors and unreaped children of this process."""
    try:
        child = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        child = None
    return threading.active_count(), len(os.listdir("/proc/self/fd")), child


def test_no_thread_outlives_a_pass(fast_cfg, paper_compact, paper_solution):
    """The noise process is killed and reaped and both pipes are closed when a
    pass returns and when a progress callback raises between batches; the
    callback's exception propagates."""
    baseline = leftovers()
    assert baseline[2] is None
    monte_carlo(fast_cfg, paper_compact, paper_solution)
    assert leftovers() == baseline
    sample_linear_loop(np.array([[-1.0]]), np.array([[1.0]]), np.ones(1), np.ones(1),
                       dt=1e-2, horizon=2.0, lag=0.5, runs=3)
    assert leftovers() == baseline

    class Stop(Exception):
        pass

    stop = Stop()

    def progress(done, total):
        raise stop

    with pytest.raises(Stop) as info:
        monte_carlo(dataclasses.replace(fast_cfg, batch=2), paper_compact, paper_solution,
                    progress=progress)
    assert info.value is stop
    assert leftovers() == baseline


def test_dead_noise_process_raises(fast_cfg, paper_compact, paper_solution, monkeypatch):
    """A noise process that dies before its first chunk closes its end of the
    pipe; the caller reads EOF, raises and reaps it instead of waiting.  The
    fork inherits the patched run_generator.  An alarm turns a hang into a
    failure."""
    def broken(master_seed, run_index):
        raise OSError("no stream")

    def hang(signum, frame):
        raise TimeoutError("monte_carlo still waiting on a dead noise process")

    monkeypatch.setattr(sim, "run_generator", broken)
    baseline = leftovers()
    previous = signal.signal(signal.SIGALRM, hang)
    signal.alarm(10)
    try:
        with pytest.raises(RuntimeError, match="noise process"):
            monte_carlo(fast_cfg, paper_compact, paper_solution)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert leftovers() == baseline


def test_paired_readouts_match_separate_calls(fast_cfg, paper_compact, paper_solution):
    cfg = dataclasses.replace(fast_cfg, runs=6)
    paired = monte_carlo(cfg, paper_compact, paper_solution, keep_errors=True)
    assert set(paired.readouts) == set(READOUTS)
    for name, over in (("delayed", {}), ("undelayed", {"compare": "undelayed"}),
                       ("filter", {"estimator": "ngcf"})):
        alone = monte_carlo(dataclasses.replace(cfg, **over), paper_compact, paper_solution,
                            keep_errors=True)
        np.testing.assert_array_equal(paired.readouts[name].errors, alone.errors)
        assert paired.readouts[name].to_dict() == alone.to_dict()
    np.testing.assert_array_equal(paired.errors, paired.readouts["delayed"].errors)


def test_step_matrix_matches_loop_equations(paper_solution):
    """One step through W against the loop equations of the sim module, with
    psi(nu) = sin(nu / (2 alpha gamma)) - beta nu / (2 alpha gamma), written
    in the physical parameters of a plant with beta = 0.8."""
    p = OpticalParameters(beta_slope=0.8)
    cfg = SimConfig(beta_slope=p.beta_slope, meas_noise_scale=1.3)
    g = paper_solution
    x, phi, dv, dw = np.array([0.3, -0.2, 0.5]), 0.4, 0.7, -1.1
    phihat, nu = g.Cc[0] @ x, g.Kc[0] @ x
    scale, two_ab = 2 * p.alpha * p.gamma, 2 * p.alpha * p.beta_slope
    sqdt = math.sqrt(cfg.dt)
    psi = math.sin(nu / scale) - p.beta_slope * nu / scale
    d_i = 2 * p.alpha * math.sin(phi - phihat) * cfg.dt + cfg.meas_noise_scale * sqdt * dw
    dybar = (d_i + two_ab * phihat * cfg.dt) / two_ab
    x1 = x + (g.Ac @ x + g.Gc[:, 0] * psi) * cfg.dt + g.Bc[:, 0] * dybar
    phi1 = phi - p.lambda_ou * phi * cfg.dt + math.sqrt(p.kappa) * sqdt * dv
    y = np.concatenate([x, [phi, math.sin(phi - phihat), math.sin(nu / scale), dv, dw]])
    expected = np.concatenate([x1, [phi1, phi1 - g.Cc[0] @ x1, g.Kc[0] @ x1 / scale]])
    w = sim._step_matrix(cfg, homodyne_loop(loop_compact(beta_slope=p.beta_slope)), g)
    np.testing.assert_allclose(w @ y, expected, rtol=1e-12, atol=1e-14)


def test_simulator_psi_vanishes_at_zero_and_keeps_sector_bound(paper_compact, paper_solution):
    """The psi that W applies along Gc dt, sin z - beta z with
    z = nu / (2 alpha gamma), read off as W minus W without the copy gain:
    psi(0) = 0 and |psi(u) - psi(v)| <= beta |u - v| over |nu| <= 900, with
    beta the plant's Lipschitz constant."""
    cfg, g = SimConfig(), paper_solution
    loop, n = homodyne_loop(paper_compact), g.Ac.shape[0]
    no_copy = dataclasses.replace(g, Bc_tilde=g.Bc_tilde * [1.0, 0.0])   # Gc = 0
    gain = sim._step_matrix(cfg, loop, g)[:n] - sim._step_matrix(cfg, loop, no_copy)[:n]
    nu = np.linspace(-900.0, 900.0, 201)
    kc = g.Kc[0]
    x = np.outer(kc / (kc @ kc), nu)                                   # Kc x = nu
    y = np.vstack([x, np.zeros((2, nu.size)), np.sin(nu / loop.two_ag), np.zeros((2, nu.size))])
    gc_dt = g.Gc[:, 0] * cfg.dt
    psi = gc_dt @ (gain @ y) / (gc_dt @ gc_dt)
    np.testing.assert_allclose(psi, np.sin(nu / loop.two_ag) - nu / loop.two_ag,
                               rtol=1e-6, atol=1e-12)
    assert psi[nu.size // 2] == 0.0
    beta = paper_compact.plant.beta[0]
    assert np.all(np.abs(psi[:, None] - psi[None, :])
                  <= beta * np.abs(nu[:, None] - nu[None, :]) + 1e-12)


def test_master_seed_changes_report(fast_cfg, paper_compact, paper_solution):
    ra = monte_carlo(fast_cfg, paper_compact, paper_solution)
    rb = monte_carlo(dataclasses.replace(fast_cfg, master_seed=8), paper_compact, paper_solution)
    assert ra.error_covariance != rb.error_covariance


def test_ngcf_mode_differs(fast_cfg, paper_compact, paper_solution):
    smo = monte_carlo(dataclasses.replace(fast_cfg, runs=8), paper_compact, paper_solution)
    ngcf = monte_carlo(dataclasses.replace(fast_cfg, runs=8, estimator="ngcf"),
                       paper_compact, paper_solution)
    assert smo.error_covariance != ngcf.error_covariance


def test_divergence_guard_and_health(fast_cfg, paper_compact, paper_solution):
    unstable = dataclasses.replace(
        paper_solution, Ac=-paper_solution.Ac, Vtau=paper_solution.Vtau)
    cfg = dataclasses.replace(fast_cfg, runs=4, divergence_guard=10.0)
    rep = monte_carlo(cfg, paper_compact, unstable)
    assert rep.runs_diverged == 4
    assert not rep.healthy


def test_sector_violations_counted(fast_cfg, paper_solution):
    cfg = dataclasses.replace(fast_cfg, meas_noise_scale=0.0, phi0=2.5, runs=1)
    rep = monte_carlo(cfg, loop_compact(kappa=0.0), paper_solution)
    assert rep.sector_violation_rate > 0


def test_sector_bound_holds_over_default_range(params):
    """|sin(e) - e| <= gamma |e| on the configured validity range, anchoring
    the default sector_limit."""
    cfg, gamma = SimConfig(), params.gamma
    e = np.linspace(-cfg.sector_limit, cfg.sector_limit, 2001)
    assert np.all(np.abs(np.sin(e) - e) <= gamma * np.abs(e) + 1e-12)
    beyond = cfg.sector_limit * 1.05
    assert abs(math.sin(beyond) - beyond) > gamma * beyond


def test_stream_independence():
    g0 = run_generator(42, 0)
    g1 = run_generator(42, 1)
    g0b = run_generator(42, 0)
    a, b, c = (g.standard_normal(4) for g in (g0, g1, g0b))
    np.testing.assert_array_equal(a, c)
    assert not np.array_equal(a, b)


def test_deterministic_convergence_order(paper_solution):
    """Zero-noise trajectories: halving dt changes the terminal value at
    first order, so successive refinements shrink the gap by about 2x."""
    compact = loop_compact(kappa=0.0, delta=0.0)

    def terminal(dt):
        cfg = SimConfig(dt=dt, horizon=4e-5, runs=1, meas_noise_scale=0.0, phi0=0.3,
                        estimator="ngcf")
        return monte_carlo(cfg, compact, paper_solution, keep_errors=True).errors[0]

    e1, e2, e4 = terminal(4e-8), terminal(2e-8), terminal(1e-8)
    ratio = abs(e1 - e2) / abs(e2 - e4)
    assert 1.5 <= ratio <= 2.6


def test_linearized_loop_agrees_at_small_noise(paper_solution):
    """With the diffusion scaled down 1e-4 the loop stays in the small-angle
    regime and must track a linearized integrator driven by the same noise."""
    p = OpticalParameters(kappa=4.0, delta=0.0)
    cfg = SimConfig(dt=1e-8, horizon=2e-5, runs=1, master_seed=5, estimator="ngcf")
    nonlinear = monte_carlo(cfg, loop_compact(kappa=p.kappa, delta=p.delta), paper_solution,
                            keep_errors=True).errors[0]

    # test-local linearized integrator: sin(e) -> e, copy output -> 0
    rng = run_generator(cfg.master_seed, 0)
    sqdt = math.sqrt(cfg.dt)
    n = paper_solution.Ac.shape[0]
    phi, xhat = 0.0, np.zeros(n)
    bc = paper_solution.Bc[:, 0]
    cc = paper_solution.Cc[0]
    two_ab = 2 * p.alpha * p.beta_slope
    block = rng.standard_normal((cfg.nsteps, 2)) * sqdt
    e_max = 0.0
    for j in range(cfg.nsteps):
        dv, dw = block[j]
        phihat = xhat @ cc
        e_max = max(e_max, abs(phi - phihat))
        di = 2 * p.alpha * (phi - phihat) * cfg.dt + dw
        dybar = (di + two_ab * phihat * cfg.dt) / two_ab
        xhat = xhat + (paper_solution.Ac @ xhat) * cfg.dt + bc * dybar
        phi = phi - p.lambda_ou * phi * cfg.dt + math.sqrt(p.kappa) * dv
    linear_error = xhat @ cc - phi
    # the loops differ only through sin(e) - e, a cubic-in-e perturbation
    assert abs(nonlinear - linear_error) <= e_max ** 3 + 1e-12
