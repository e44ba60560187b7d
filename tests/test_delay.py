import numpy as np
import pytest

from rflsmooth.delay import (
    DelayModel,
    delay_response_error,
    identity_delay,
    pade_coefficients,
    pade_delay,
)

DELTA = 3.1e-6


def test_order2_coefficients_analytic():
    num, den = pade_coefficients(2, DELTA)
    expected_den = np.array([1.0, 6.0 / DELTA, 12.0 / DELTA ** 2])
    expected_num = np.array([1.0, -6.0 / DELTA, 12.0 / DELTA ** 2])
    np.testing.assert_allclose(den, expected_den, rtol=1e-10)
    np.testing.assert_allclose(num, expected_num, rtol=1e-10)


@pytest.mark.parametrize("order", range(1, 7))
def test_dc_gain_unity(order):
    model = pade_delay(order, DELTA)
    assert abs(model.dc_gain()[0, 0] - 1.0) <= 1e-12


@pytest.mark.parametrize("order", range(1, 7))
def test_all_pass(order):
    model = pade_delay(order, DELTA)
    omega = np.linspace(0.0, 4.0 / DELTA, 400)
    mags = np.abs(model.frequency_response(omega)[:, 0, 0])
    assert np.abs(mags - 1.0).max() <= 1e-8


@pytest.mark.parametrize("order", range(1, 7))
def test_poles_stable(order):
    model = pade_delay(order, DELTA)
    assert np.linalg.eigvals(model.fa).real.max() < 0


def test_phase_lag_at_10khz():
    model = pade_delay(2, DELTA)
    omega = 2 * np.pi * 1.0e4
    h_ss = model.frequency_response(omega)[0, 0, 0]
    # polynomial-evaluation oracle for the same approximant
    num, den = pade_coefficients(2, DELTA)
    h_poly = np.polyval(num, 1j * omega) / np.polyval(den, 1j * omega)
    assert abs(h_ss - h_poly) <= 1e-9
    lag = -np.angle(h_ss)
    assert abs(lag - omega * DELTA) <= 0.01 * omega * DELTA


def test_response_error_vanishes_at_dc():
    model = pade_delay(2, DELTA)
    assert delay_response_error(model, 1e-3) <= 1e-12


def test_response_error_small_in_band():
    model = pade_delay(2, DELTA)
    assert delay_response_error(model, 2 * np.pi * 1.0e4) < 1e-3


def test_response_error_decreases_with_order():
    omega_max = 2 * np.pi * 1.0e5
    errs = [delay_response_error(pade_delay(order, DELTA), omega_max)
            for order in (2, 4)]
    assert errs[1] <= errs[0]


def test_markov_parameters_realization_invariant():
    paper = pade_delay(2, DELTA, realization="paper")
    balanced = pade_delay(2, DELTA, realization="balanced")
    for mp, mb in zip(paper.markov_parameters(5), balanced.markov_parameters(5)):
        scale = max(1.0, abs(mb[0, 0]))
        assert abs(mp[0, 0] - mb[0, 0]) <= 1e-9 * scale


def test_paper_realization_printed_blocks():
    model = pade_delay(2, DELTA, realization="paper")
    fa_expected = np.array([
        [-6.0 / DELTA, -(12.0 / DELTA ** 2) / 2 ** 20],
        [2 ** 20, 0.0],
    ])
    np.testing.assert_allclose(model.fa, fa_expected, rtol=1e-12)
    np.testing.assert_allclose(model.ga, [[2048.0], [0.0]])
    assert model.ja[0, 0] == 1.0


def test_paper_realization_keeps_its_bits_at_the_example_delay():
    """The scalings chosen from delta are 2^20 and 2^11 at 3.1 us, so the
    published form is the one built with those constants, bit for bit."""
    model = pade_delay(2, DELTA, realization="paper")
    _, den = pade_coefficients(2, DELTA)
    a1, a0 = den[1], den[2]
    s_sub, s_in = 2.0 ** 20, 2.0 ** 11
    assert np.array_equal(model.fa, [[-a1, -a0 / s_sub], [s_sub, 0.0]])
    assert np.array_equal(model.ga, [[s_in], [0.0]])
    assert np.array_equal(model.ha, [[-2.0 * a1 / s_in, 0.0]])
    assert np.array_equal(model.ja, [[1.0]])


@pytest.mark.parametrize("delta", [1e-3, 0.1, 1.0])
def test_paper_realization_scaled_from_delta(delta):
    """At any delay the power-of-two form's entries lie within a factor 2 of
    the balanced magnitudes sqrt(12)/delta and sqrt(12/delta), and its
    Markov parameters are the balanced form's."""
    paper = pade_delay(2, delta, realization="paper")
    balanced = pade_delay(2, delta, realization="balanced")
    sub, gain = np.sqrt(12.0) / delta, np.sqrt(12.0 / delta)
    for entry, size in ((paper.fa[1, 0], sub), (-paper.fa[0, 1], sub),
                        (paper.ga[0, 0], gain), (-paper.ha[0, 0], gain)):
        assert size / 2 <= entry <= 2 * size
    for mp, mb in zip(paper.markov_parameters(5), balanced.markov_parameters(5)):
        assert abs(mp[0, 0] - mb[0, 0]) <= 1e-12 * max(1.0, abs(mb[0, 0]))


def test_identity_delay():
    model = identity_delay(1)
    assert model.na == 0
    np.testing.assert_allclose(model.dc_gain(), np.eye(1))
    np.testing.assert_allclose(model.frequency_response([0.0, 5.0])[:, 0, 0], 1.0)


@pytest.mark.parametrize("order,delta", [(0, DELTA), (7, DELTA), (2, 0.0), (2, -1.0)])
def test_invalid_arguments(order, delta):
    with pytest.raises(ValueError):
        pade_delay(order, delta)


def test_paper_realization_requires_order_two():
    with pytest.raises(ValueError):
        pade_delay(3, DELTA, realization="paper")


def test_unknown_realization():
    with pytest.raises(ValueError):
        pade_delay(2, DELTA, realization="modal")
