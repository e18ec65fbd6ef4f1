"""Discrete power-law tail fitting by maximum likelihood.

Fits p(k) proportional to k**(-exponent) for k >= x_min to a sample of
positive integers (typically a degree sequence). For every candidate tail
cutoff x_min the exponent is estimated by maximizing the discrete
log-likelihood (Hurwitz-zeta normalization), and the cutoff minimizing the
Kolmogorov-Smirnov distance between the empirical and fitted tail CDFs is
selected. The Hurwitz zeta is a short numpy Euler-Maclaurin sum, the scheme
of the Cephes ``zeta``, so the package needs no special-function library.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

__all__ = [
    "PowerLawFit",
    "fit_discrete",
    "tail_log_likelihood",
    "DegenerateSequenceError",
]

# Exponent search interval and golden-section tolerance.
_EXPONENT_LO = 1.01
_EXPONENT_HI = 6.0
_GOLDEN_TOL = 1e-6
_MIN_SAMPLES = 10

# Euler-Maclaurin Hurwitz zeta at N = q + 9, the scheme of the Cephes
# ``zeta``: every piece is a weight times ``(q + offset)**(shift - s)``.
# Nine direct terms (offsets 0..8), then at N: half the term N**-s, the
# tail integral N**(1-s) / (s-1) and twelve Bernoulli corrections.
_ZETA_OFFSETS = np.concatenate((np.arange(9.0), np.full(14, 9.0)))
_ZETA_SHIFTS = np.concatenate((np.zeros(10), [1.0], -(2.0 * np.arange(12) + 1.0)))
_ZETA_RISING = np.arange(23.0)
# (2j)! / B_2j for j = 1..12, B the Bernoulli numbers.
_BERNOULLI_DIVISORS = np.array([
    12.0, -720.0, 30240.0, -1209600.0, 47900160.0,
    -1.8924375803183791606e9, 7.47242496e10, -2.950130727918164224e12,
    1.1646782814350067249e14, -4.5979787224074726105e15,
    1.8152105401943546773e17, -7.1661652561756670113e18,
])


class DegenerateSequenceError(ValueError):
    """Raised when a sample admits no meaningful power-law fit."""


@dataclass(frozen=True)
class PowerLawFit:
    """Result of a discrete power-law tail fit.

    ``exponent`` is the maximum-likelihood estimate on the selected tail,
    ``x_min`` the selected cutoff, ``ks_distance`` the sup-distance between
    empirical and fitted tail CDFs, and ``n_tail`` the number of samples
    in the tail.
    """

    exponent: float
    x_min: int
    ks_distance: float
    n_tail: int

    def __post_init__(self) -> None:
        if self.exponent <= 1.0:
            raise ValueError("exponent must exceed 1")
        if self.n_tail < 2:
            raise ValueError("tail must contain at least 2 samples")
        if not 0.0 <= self.ks_distance <= 1.0:
            raise ValueError("KS distance must lie in [0, 1]")


def _hurwitz_zeta(s: float, q):
    """Hurwitz zeta ``sum_k (q + k)**-s`` for ``s > 1``, vectorised over ``q >= 1``.

    The Euler-Maclaurin sum of Cephes: ``(q + k)**-s`` for k = 0..8, plus,
    at ``N = q + 9``, ``N**-s / 2``, ``N**(1-s) / (s-1)`` and the
    corrections ``B_2j / (2j)! * s (s+1) ... (s+2j-2) * N**(1-s-2j)`` for
    j = 1..12. With ``N >= 10`` each correction is at most a fifth of the
    one before for s up to 6, so the sum is good to a few ulp.
    """
    q = np.asarray(q, dtype=np.float64)
    weights = np.concatenate((
        np.ones(9),
        [0.5, 1.0 / (s - 1.0)],
        np.cumprod(s + _ZETA_RISING)[::2] / _BERNOULLI_DIVISORS,
    ))
    powers = (q[..., None] + _ZETA_OFFSETS) ** (_ZETA_SHIFTS - s)
    return (powers * weights).sum(axis=-1)


def _golden_section_max(f, lo: float, hi: float, tol: float) -> float:
    """Locate the maximizer of a unimodal function on [lo, hi]."""
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def _mle_exponent(tail: np.ndarray, x_min: int) -> float:
    """Maximum-likelihood exponent for a fixed cutoff."""
    n = tail.size
    log_sum = float(np.log(tail).sum())

    def log_likelihood(a: float) -> float:
        return -n * np.log(_hurwitz_zeta(a, x_min)) - a * log_sum

    return _golden_section_max(
        log_likelihood, _EXPONENT_LO, _EXPONENT_HI, _GOLDEN_TOL
    )


def _ks_distance(tail: np.ndarray, x_min: int, exponent: float) -> float:
    """Sup distance between empirical and fitted CDFs on the tail support.

    Evaluated at every integer in [x_min, max(tail)]; the fitted CDF is
    F(k) = 1 - zeta(exponent, k + 1) / zeta(exponent, x_min).
    """
    ks = np.arange(x_min, tail.max() + 1, dtype=np.int64)
    z0 = _hurwitz_zeta(exponent, x_min)
    fitted = 1.0 - _hurwitz_zeta(exponent, ks + 1) / z0
    counts = np.bincount(tail - x_min, minlength=ks.size)
    empirical = np.cumsum(counts) / tail.size
    return float(np.abs(empirical - fitted).max())


def tail_log_likelihood(
    samples: Sequence[int], exponent: float, x_min: int
) -> float:
    """Discrete power-law log-likelihood of the tail at or above ``x_min``."""
    tail = np.asarray(samples, dtype=np.int64)
    tail = tail[tail >= x_min]
    if tail.size == 0:
        raise ValueError(f"no samples at or above x_min={x_min}")
    return float(
        -tail.size * np.log(_hurwitz_zeta(exponent, x_min))
        - exponent * np.log(tail).sum()
    )


def fit_discrete(
    samples: Sequence[int], x_min: Optional[int] = None
) -> PowerLawFit:
    """Fit a discrete power law with automatic tail-cutoff selection.

    Candidate cutoffs are the distinct sample values up to the 90th
    percentile (guaranteeing at least two tail observations). For each
    candidate the exponent is fitted by golden-section maximization of the
    discrete log-likelihood over (1.01, 6.0]; the cutoff with the smallest
    Kolmogorov-Smirnov distance wins. Passing ``x_min`` skips the cutoff
    search and fits that tail directly.

    Args:
        samples: positive integers, at least 10 of them, not all equal.
        x_min: optional forced tail cutoff.

    Returns:
        The selected :class:`PowerLawFit`.

    Raises:
        ValueError: on too-few samples or non-positive values.
        DegenerateSequenceError: when all samples are equal or no cutoff
            leaves a fittable tail.
    """
    x = np.asarray(samples, dtype=np.int64)
    if x.size < _MIN_SAMPLES:
        raise ValueError(
            f"need at least {_MIN_SAMPLES} samples, got {x.size}"
        )
    if x.min() < 1:
        raise ValueError("samples must be positive integers")
    values = np.unique(x)
    if values.size < 2:
        raise DegenerateSequenceError(
            "degenerate sequence: all samples equal"
        )

    if x_min is not None:
        candidates = np.asarray([x_min], dtype=np.int64)
    else:
        cap = np.quantile(x, 0.9)
        candidates = values[values <= cap]
        if candidates.size == 0:
            candidates = values[:1]

    best: Optional[PowerLawFit] = None
    for cutoff in candidates:
        tail = x[x >= cutoff]
        if tail.size < 2 or np.unique(tail).size < 2:
            continue
        exponent = _mle_exponent(tail, int(cutoff))
        ks = _ks_distance(tail, int(cutoff), exponent)
        if best is None or ks < best.ks_distance:
            best = PowerLawFit(
                exponent=exponent,
                x_min=int(cutoff),
                ks_distance=ks,
                n_tail=int(tail.size),
            )
    if best is None:
        raise DegenerateSequenceError(
            "degenerate sequence: no cutoff leaves a fittable tail"
        )
    return best
