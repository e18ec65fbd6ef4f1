"""Discrete power-law tail fitting by maximum likelihood.

Fits p(k) proportional to k**(-exponent) for k >= x_min to a sample of
positive integers (typically a degree sequence). For every candidate tail
cutoff x_min the exponent is estimated by maximizing the discrete
log-likelihood (Hurwitz-zeta normalization), and the cutoff minimizing the
Kolmogorov-Smirnov distance between the empirical and fitted tail CDFs is
selected. The golden-section searches of all cutoffs advance in lock-step,
with one zeta call per step. The Hurwitz zeta is a short numpy
Euler-Maclaurin sum, the scheme of the Cephes ``zeta``, so the package
needs no special-function library.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

__all__ = [
    "PowerLawFit",
    "fit_discrete",
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
_ZETA_HEAD = np.append(np.ones(9), 0.5)
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
    within [1.01, 6.0], ``x_min`` the selected cutoff, ``ks_distance`` the
    sup-distance between empirical and fitted tail CDFs, and ``n_tail`` the
    number of samples in the tail, at least 2.
    """

    exponent: float
    x_min: int
    ks_distance: float
    n_tail: int


def _hurwitz_zeta(s, q):
    """Hurwitz zeta ``sum_k (q + k)**-s`` for ``s > 1`` and ``q >= 1``, elementwise.

    The Euler-Maclaurin sum of Cephes: ``(q + k)**-s`` for k = 0..8, plus,
    at ``N = q + 9``, ``N**-s / 2``, ``N**(1-s) / (s-1)`` and the
    corrections ``B_2j / (2j)! * s (s+1) ... (s+2j-2) * N**(1-s-2j)`` for
    j = 1..12. With ``N >= 10`` each correction is at most a fifth of the
    one before for s up to 6, so the sum is good to a few ulp. ``s`` and
    ``q`` broadcast against each other.
    """
    s = np.asarray(s, dtype=np.float64)[..., None]
    q = np.asarray(q, dtype=np.float64)[..., None]
    corrections = np.cumprod(s + _ZETA_RISING, axis=-1)[..., ::2] / _BERNOULLI_DIVISORS
    weights = np.concatenate(
        (np.broadcast_to(_ZETA_HEAD, s.shape[:-1] + (10,)), 1.0 / (s - 1.0), corrections),
        axis=-1,
    )
    powers = (q + _ZETA_OFFSETS) ** (_ZETA_SHIFTS - s)
    return (powers * weights).sum(axis=-1)


def _mle_exponents(n_tail: np.ndarray, x_min: np.ndarray, log_sum: np.ndarray) -> np.ndarray:
    """Maximum-likelihood exponents of several tails, one per cutoff.

    Golden-section maximization of ``-n * log(zeta(a, x_min)) - a * log_sum``
    on [1.01, 6.0], every cutoff's search advanced in lock-step: each step
    evaluates the new point of every live search with one zeta call, and a
    search stops once its own interval is no wider than the tolerance. Each
    search makes the comparisons and takes the points of a search run alone.
    """
    def log_likelihood(a, live):
        zeta = _hurwitz_zeta(a, x_min[live])
        return -n_tail[live] * np.log(zeta) - a * log_sum[live]

    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a = np.full(n_tail.size, _EXPONENT_LO)
    b = np.full(n_tail.size, _EXPONENT_HI)
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    every = np.ones(n_tail.size, dtype=bool)
    fc, fd = log_likelihood(c, every), log_likelihood(d, every)
    live = b - a > _GOLDEN_TOL
    while live.any():
        # Left: keep [a, d] and probe a new c; right: keep [c, b], new d.
        left = live & (fc >= fd)
        right = live & ~left
        b = np.where(left, d, b)
        d = np.where(left, c, d)
        fd = np.where(left, fc, fd)
        a = np.where(right, c, a)
        c = np.where(right, d, c)
        fc = np.where(right, fd, fc)
        c = np.where(left, b - invphi * (b - a), c)
        d = np.where(right, a + invphi * (b - a), d)
        probe = np.where(left, c, d)[live]
        value = log_likelihood(probe, live)
        fc[left] = value[left[live]]
        fd[right] = value[right[live]]
        live = b - a > _GOLDEN_TOL
    return 0.5 * (a + b)


def _ks_distance(tail: np.ndarray, x_min: int, exponent: float) -> float:
    """Sup distance between empirical and fitted CDFs on the tail support.

    The sup over every integer in [x_min, max(tail)] of sorted ``tail``;
    the fitted CDF is F(k) = 1 - zeta(exponent, k + 1) / zeta(exponent,
    x_min). F rises with k and the empirical CDF is flat between tail
    values, so on each flat stretch the distance peaks at one of its ends:
    a tail value, or one below the next tail value. Only those are
    evaluated.
    """
    last = np.flatnonzero(np.append(tail[1:] != tail[:-1], True))
    values = tail[last]
    empirical = (last + 1) / tail.size
    # At value - 1 the empirical CDF is that of the value before; the first
    # value's stretch starts at x_min.
    below, below_cdf = values - 1, np.append(0.0, empirical[:-1])
    if values[0] == x_min:
        below, below_cdf = below[1:], below_cdf[1:]
    z0 = _hurwitz_zeta(exponent, x_min)
    fitted = 1.0 - _hurwitz_zeta(exponent, np.concatenate((values, below)) + 1) / z0
    return float(np.abs(np.concatenate((empirical, below_cdf)) - fitted).max())


def fit_discrete(samples: Sequence[int]) -> PowerLawFit:
    """Fit a discrete power law with automatic tail-cutoff selection.

    Candidate cutoffs are the distinct sample values up to the 90th
    percentile (guaranteeing at least two tail observations). For each
    candidate whose tail holds two distinct values the exponent is fitted
    by golden-section maximization of the discrete log-likelihood over
    (1.01, 6.0], all candidates' searches in lock-step; the cutoff with the
    smallest Kolmogorov-Smirnov distance wins, the first on a tie.

    Args:
        samples: positive integers, at least 10 of them, not all equal.

    Returns:
        The selected :class:`PowerLawFit`.

    Raises:
        ValueError: on too-few samples or non-positive or non-integer
            values.
        DegenerateSequenceError: when all samples are equal.
    """
    raw = np.asarray(samples)
    with np.errstate(invalid="ignore"):
        x = raw.astype(np.int64)
    if x.size < _MIN_SAMPLES:
        raise ValueError(
            f"need at least {_MIN_SAMPLES} samples, got {x.size}"
        )
    # The cast would truncate a fraction (and garble NaN or inf) silently.
    if x.min() < 1 or (x != raw).any():
        raise ValueError("samples must be positive integers")
    # Sort-based distinct values: np.unique's hash path imports numpy.ma.
    xs = np.sort(x)
    values = xs[np.append(True, xs[1:] != xs[:-1])]
    if values.size < 2:
        raise DegenerateSequenceError(
            "degenerate sequence: all samples equal"
        )

    # A tail is fittable when it holds two distinct values, that is, when
    # its cutoff lies below the largest sample; the smallest sample always
    # does, so some candidate is fittable.
    candidates = values[(values <= _upper_decile(xs)) & (values < xs[-1])]
    starts = xs.searchsorted(candidates)
    # Log sums in sample order, as a tail's own sum adds them.
    log_sums = [float(np.log(x[x >= cutoff]).sum()) for cutoff in candidates.tolist()]
    exponents = _mle_exponents(xs.size - starts, candidates, np.array(log_sums))

    best: Optional[PowerLawFit] = None
    for cutoff, start, exponent in zip(candidates.tolist(), starts.tolist(), exponents.tolist()):
        tail = xs[start:]
        ks = _ks_distance(tail, cutoff, exponent)
        if best is None or ks < best.ks_distance:
            best = PowerLawFit(
                exponent=exponent, x_min=cutoff, ks_distance=ks, n_tail=tail.size
            )
    return best


def _upper_decile(xs: np.ndarray) -> float:
    """``np.quantile(xs, 0.9)`` of sorted samples, the same float.

    The default linear method, written out: the virtual index
    ``(size - 1) * 0.9`` and numpy's two-sided interpolation between its
    neighbours. ``np.quantile`` itself imports numpy.ma.
    """
    index = (xs.size - 1) * 0.9
    lo = math.floor(index)
    t = index - lo
    a, b = xs[lo], xs[lo + 1]
    if t >= 0.5:
        return float(b - (b - a) * (1 - t))
    return float(a + (b - a) * t)
