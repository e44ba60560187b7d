"""Finite-dimensional state-space approximations of the pure delay e^(-s*delta).

The workhorse is the diagonal [n/n] Pade approximant, which is all-pass and
Hurwitz for every order, realized in a magnitude-balanced companion form.
A second realization reproduces, entry for entry, the power-of-two scaled
companion form used by common control toolboxes, which is the form the
bundled phase-estimation example is stated in.  Its second-order scalings
are the powers of two nearest sqrt(12)/delta (subdiagonal) and
sqrt(12/delta) (input gain): 2^20 and 2^11 at the example's 3.1 us.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DelayModel",
    "pade_coefficients",
    "pade_delay",
    "identity_delay",
    "delay_response_error",
]

MAX_ORDER = 6


@dataclass(frozen=True)
class DelayModel:
    """State-space delay approximation  xa' = Fa xa + Ga w,  wa = Ha xa + Ja w."""

    fa: np.ndarray
    ga: np.ndarray
    ha: np.ndarray
    ja: np.ndarray
    delta: float
    order: int

    @property
    def na(self) -> int:
        return self.fa.shape[0]

    @property
    def m(self) -> int:
        return self.ja.shape[0]

    @functools.cached_property
    def abscissa(self) -> float:
        """Max Re eig of Fa (-inf without states), from one real Schur form per model."""
        from .numkernel import _schur_abscissa  # at module level it slowed start-up ~10 ms
        return _schur_abscissa(self.fa)[2] if self.na else -np.inf

    def dc_gain(self) -> np.ndarray:
        """Ha (-Fa)^-1 Ga + Ja; equals identity for a true delay."""
        if self.na == 0:
            return self.ja.copy()
        return self.ha @ np.linalg.solve(-self.fa, self.ga) + self.ja

    def frequency_response(self, omega) -> np.ndarray:
        """Transfer function values Ha (jw I - Fa)^-1 Ga + Ja on a frequency grid."""
        omega = np.atleast_1d(np.asarray(omega, dtype=float))
        out = np.empty((omega.size, self.m, self.m), dtype=complex)
        eye = np.eye(self.na)
        for i, w in enumerate(omega):
            if self.na == 0:
                out[i] = self.ja
            else:
                out[i] = self.ha @ np.linalg.solve(1j * w * eye - self.fa, self.ga) + self.ja
        return out

    def markov_parameters(self, count: int) -> list[np.ndarray]:
        """[Ja, Ha Ga, Ha Fa Ga, ...]; invariant under state-space similarity."""
        params = [self.ja.copy()]
        if self.na == 0:
            params.extend(np.zeros_like(self.ja) for _ in range(count - 1))
            return params
        term = self.ga
        for _ in range(count - 1):
            params.append(self.ha @ term)
            term = self.fa @ term
        return params


def pade_coefficients(order: int, delta: float):
    """Monic numerator/denominator coefficients (descending powers of s) of
    the [order/order] Pade approximant of e^(-s*delta), with the common
    leading-coefficient ratio returned separately.

    Returns
    -------
    num, den : ndarray
        Degree-`order` polynomials, descending powers, both with den monic;
        num already carries the sign pattern so num/den is the approximant.
    """
    if delta <= 0:
        raise ValueError(f"delay must be positive, got {delta}")
    if not 1 <= order <= MAX_ORDER:
        raise ValueError(f"unsupported order {order}; supported range is 1..{MAX_ORDER}")
    num = np.zeros(order + 1)
    den = np.zeros(order + 1)
    num[order] = 1.0
    den[order] = 1.0
    c = 1.0
    for k in range(1, order + 1):
        c = delta * c * (order - k + 1) / ((2 * order - k + 1) * k)
        num[order - k] = c * (-1.0) ** k
        den[order - k] = c
    num = num / den[0]
    den = den / den[0]
    return num, den


def _companion_realization(num, den, order):
    """Controllable companion realization of num/den (both monic degree n)."""
    d = num[0] / den[0]                       # (-1)^order
    rem = num - d * den                       # strictly proper part, degree < n
    a = np.zeros((order, order))
    a[0, :] = -den[1:]
    a[np.arange(1, order), np.arange(order - 1)] = 1.0
    b = np.zeros((order, 1))
    b[0, 0] = 1.0
    c = rem[1:].reshape(1, order)
    return a, b, c, np.array([[d]])


def pade_delay(order: int, delta: float, realization: str = "balanced") -> DelayModel:
    """Build the [order/order] Pade delay model.

    realization="balanced" scales the companion states geometrically so all
    entries have comparable magnitude.  realization="paper" reproduces the
    published power-of-two scaled form of the second-order model (it is only
    defined for order 2), its scalings chosen from delta so that the form's
    entries stay balanced at any delay.
    """
    num, den = pade_coefficients(order, delta)
    if realization == "paper":
        if order != 2:
            raise ValueError("paper realization is defined for order 2 only")
        a1, a0 = den[1], den[2]               # 6/delta, 12/delta^2
        s_sub, s_in = (2.0 ** round(np.log2(np.sqrt(x))) for x in (a0, 2.0 * a1))
        fa = np.array([[-a1, -a0 / s_sub], [s_sub, 0.0]])
        ga = np.array([[s_in], [0.0]])
        ha = np.array([[-2.0 * a1 / s_in, 0.0]])
        ja = np.array([[1.0]])
        return DelayModel(fa, ga, ha, ja, float(delta), order)
    if realization != "balanced":
        raise ValueError(f"unknown realization {realization!r}")
    a, b, c, d = _companion_realization(num, den, order)
    w0 = den[-1] ** (1.0 / order)             # geometric pole magnitude
    scale = w0 ** (-np.arange(order))
    a = a * scale[None, :] / scale[:, None]
    b = b / scale[:, None]
    c = c * scale[None, :]
    rt = np.sqrt(w0)
    return DelayModel(a, b * rt, c / rt, d, float(delta), order)


def identity_delay(m: int = 1) -> DelayModel:
    """Degenerate zero-state delay (na = 0): wa = w."""
    return DelayModel(
        fa=np.zeros((0, 0)),
        ga=np.zeros((0, m)),
        ha=np.zeros((m, 0)),
        ja=np.eye(m),
        delta=0.0,
        order=0,
    )


def delay_response_error(model: DelayModel, omega_max: float, npoints: int = 512) -> float:
    """Max relative frequency-response error vs the exact delay e^(-j w delta)
    over [0, omega_max].  The exact response has unit magnitude, so the
    absolute deviation is already relative.
    """
    if omega_max <= 0:
        raise ValueError(f"omega_max must be positive, got {omega_max}")
    omega = np.linspace(0.0, omega_max, npoints)
    h = model.frequency_response(omega)[:, 0, 0]
    exact = np.exp(-1j * omega * model.delta)
    return float(np.abs(h - exact).max())
