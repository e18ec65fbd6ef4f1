import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import zeta

from contagion.harness import TYPE3_TARGET_MEAN_DEGREE, TYPE_PARAMS
from contagion.netgen import GenParams, augment_random_links, generate
from contagion.powerlaw import (
    DegenerateSequenceError,
    _hurwitz_zeta,
    _upper_decile,
    fit_discrete,
)

from conftest import sample_discrete_power_law, sequential_fit_discrete

PROPERTY_SETTINGS = settings(
    derandomize=True, deadline=None, max_examples=150, database=None
)

# Degree-like samples: mostly small values with a sparse heavy tail, so
# that several cutoffs compete.
degree_sequences = st.lists(
    st.one_of(st.integers(1, 6), st.integers(1, 6), st.integers(1, 400)),
    min_size=10,
    max_size=300,
)


@pytest.fixture(scope="module")
def synthetic_draws():
    rng = np.random.default_rng(2024)
    return sample_discrete_power_law(2.5, 100_000, rng)


class TestFitDiscrete:
    def test_recovers_synthetic_exponent(self, synthetic_draws):
        fit = fit_discrete(synthetic_draws)
        assert fit.exponent == pytest.approx(2.5, abs=0.05)
        assert fit.x_min <= 3

    def test_too_few_samples(self):
        with pytest.raises(ValueError, match="at least 10"):
            fit_discrete([1, 2, 3])

    def test_degenerate_sequence(self):
        with pytest.raises(DegenerateSequenceError, match="degenerate"):
            fit_discrete([7] * 25)

    def test_non_positive_samples_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            fit_discrete([0, 1, 2, 3, 4, 5, 6, 7, 8, 9])
        # A fraction would be truncated into a sample; integral floats pass.
        with pytest.raises(ValueError, match="positive integers"):
            fit_discrete(np.arange(1, 11) + 0.5)
        with pytest.raises(ValueError, match="positive integers"):
            fit_discrete([np.nan] + list(range(1, 10)))
        assert fit_discrete(np.arange(1.0, 21.0)) == fit_discrete(np.arange(1, 21))

    @pytest.mark.parametrize("huge", [10**20, -(10**20), 2**63])
    def test_samples_beyond_64_bits_rejected(self, huge):
        with pytest.raises(ValueError, match="^samples must be positive integers$"):
            fit_discrete(list(range(1, 20)) + [huge])

    def test_fields_are_python_scalars(self, synthetic_draws):
        # `contagion fit` dumps them as JSON; numpy scalars would not serialize.
        fit = fit_discrete(synthetic_draws[:2000])
        assert [type(v) for v in (fit.exponent, fit.x_min, fit.ks_distance, fit.n_tail)] == [
            float, int, float, int
        ]

    def test_tail_scale_free(self, synthetic_draws):
        # Dropping sub-cutoff samples and refitting must reproduce the fit.
        fit = fit_discrete(synthetic_draws)
        tail = synthetic_draws[synthetic_draws >= fit.x_min]
        refit = fit_discrete(tail)
        assert refit.exponent == pytest.approx(fit.exponent, abs=1e-9)
        assert (refit.x_min, refit.n_tail) == (fit.x_min, fit.n_tail)

    def test_local_maximum(self, synthetic_draws):
        fit = fit_discrete(synthetic_draws)
        tail = synthetic_draws[synthetic_draws >= fit.x_min]

        def log_likelihood(exponent):
            # scipy's zeta, independent of the fit's own _hurwitz_zeta.
            return -tail.size * np.log(zeta(exponent, fit.x_min)) - exponent * np.log(tail).sum()

        at = log_likelihood(fit.exponent)
        assert at >= log_likelihood(fit.exponent - 0.01)
        assert at >= log_likelihood(fit.exponent + 0.01)

    def test_ks_matches_bruteforce(self, synthetic_draws):
        fit = fit_discrete(synthetic_draws)
        tail = np.sort(synthetic_draws[synthetic_draws >= fit.x_min])
        z0 = zeta(fit.exponent, fit.x_min)
        worst = 0.0
        for k in range(fit.x_min, tail.max() + 1):
            emp = np.searchsorted(tail, k, side="right") / tail.size
            model = 1.0 - zeta(fit.exponent, k + 1) / z0
            worst = max(worst, abs(emp - model))
        assert fit.ks_distance == pytest.approx(worst, abs=1e-12)

    def test_ks_bounds(self, synthetic_draws):
        fit = fit_discrete(synthetic_draws)
        assert 0.0 <= fit.ks_distance <= 1.0
        assert fit.n_tail >= 2


class TestHurwitzZeta:
    """The numpy Hurwitz zeta, with ``scipy.special.zeta`` as the oracle."""

    @pytest.mark.parametrize("s", [1.01, 1.5, 2.0, 2.5, 3.7, 6.0])
    def test_scalar_q(self, s):
        for q in (1, 2, 3, 9, 10, 57, 1000, 99_999, 100_000):
            value = _hurwitz_zeta(s, q)
            assert np.shape(value) == ()
            assert float(value) == pytest.approx(zeta(s, q), rel=1e-14, abs=0)

    def test_array_q(self):
        rng = np.random.default_rng(3)
        q = np.concatenate((np.arange(1, 3001), rng.integers(1, 100_001, 2000)))
        for s in np.concatenate(([1.01], rng.uniform(1.01, 6.0, 50), [6.0])):
            got = _hurwitz_zeta(s, q)
            assert got.shape == q.shape
            np.testing.assert_allclose(got, zeta(s, q), rtol=1e-14, atol=0)
            assert np.array_equal(_hurwitz_zeta(s, q.reshape(-1, 100)), got.reshape(-1, 100))


def assert_same_fit(samples):
    """``fit_discrete`` equals the one-cutoff-at-a-time oracle, bit for bit."""
    try:
        want = sequential_fit_discrete(samples)
    except DegenerateSequenceError as err:
        with pytest.raises(DegenerateSequenceError, match=str(err)):
            fit_discrete(samples)
        return
    got = fit_discrete(samples)
    assert (got.x_min, got.n_tail) == (want.x_min, want.n_tail)
    assert got.exponent == want.exponent
    assert got.ks_distance == want.ks_distance


class TestAgainstSequentialFit:
    """Cutoff searches advanced in lock-step give the sequential fits."""

    @pytest.mark.parametrize(
        "key", sorted(TYPE_PARAMS), ids=lambda key: f"{key[0]}{key[1]}"
    )
    def test_type_params_rows(self, key):
        graph = generate(GenParams(*TYPE_PARAMS[key], n_target=1000, seed=99))
        if key[1] == 3:
            graph = augment_random_links(graph, TYPE3_TARGET_MEAN_DEGREE, seed=100)
        for degrees in (graph.in_degree, graph.out_degree):
            assert_same_fit(degrees[degrees > 0])

    @PROPERTY_SETTINGS
    @given(degree_sequences)
    def test_random_sequences(self, samples):
        assert_same_fit(samples)

    @PROPERTY_SETTINGS
    @given(degree_sequences)
    def test_upper_decile_is_numpy_quantile(self, samples):
        x = np.asarray(samples, dtype=np.int64)
        assert _upper_decile(np.sort(x)) == np.quantile(x, 0.9)


def test_zeta_broadcasts_over_s_and_q():
    # One call over (s, q) pairs gives the values of one call per s.
    rng = np.random.default_rng(8)
    s = rng.uniform(1.01, 6.0, 40)
    q = rng.integers(1, 5000, 40)
    each = np.array([_hurwitz_zeta(si, qi) for si, qi in zip(s, q)])
    assert np.array_equal(_hurwitz_zeta(s, q), each)
    grid = _hurwitz_zeta(s[:, None], np.arange(1, 30))
    assert grid.shape == (40, 29)
    for row, si in zip(grid, s):
        assert np.array_equal(row, _hurwitz_zeta(si, np.arange(1, 30)))


# One SHA-256 over the exponent, cutoff, KS distance and tail size that
# fit_discrete gives for the positive in- and out-degrees of every
# TYPE_PARAMS row at n=1000, seeds 0-2. A faster fit keeps it: the same
# log sums, zeta calls and distances give the same floats.
PINNED_FITS_SHA256 = "1a7462046062eaf043409add9de8aa339e5a42dbfb081faf80811721eb906a10"


def test_pinned_fits_digest():
    digest = hashlib.sha256()
    for key in sorted(TYPE_PARAMS):
        for seed in (0, 1, 2):
            graph = generate(GenParams(*TYPE_PARAMS[key], n_target=1000, seed=seed))
            for degrees in (graph.in_degree, graph.out_degree):
                fit = fit_discrete(degrees[degrees > 0])
                digest.update(np.array([fit.exponent, fit.ks_distance], "<f8").tobytes())
                digest.update(np.array([fit.x_min, fit.n_tail], "<i8").tobytes())
    assert digest.hexdigest() == PINNED_FITS_SHA256
