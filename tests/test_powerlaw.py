import numpy as np
import pytest
from scipy.special import zeta

from madd.errors import DegenerateSamples, InsufficientData
from madd.powerlaw import PowerLawFit, _norm_constant, fit_truncated_power_law


def sample_truncated_power_law(alpha, lam, x_min, n, seed):
    """Generation oracle: explicit pmf over a wide support, then choice.

    Kept independent of the fitting code on purpose.
    """
    hi = x_min
    while True:
        ks = np.arange(x_min, hi + 1, dtype=np.float64)
        weights = ks**-alpha * np.exp(-lam * ks)
        tail = np.exp(-lam * (hi + 1)) * (hi + 1) ** -alpha / max(lam, 1e-12)
        if tail < 1e-12 * weights.sum() or hi > 10**7:
            break
        hi *= 4
    probs = weights / weights.sum()
    rng = np.random.default_rng(seed)
    return rng.choice(ks.astype(np.int64), size=n, p=probs)


def test_recovers_known_parameters():
    samples = sample_truncated_power_law(1.5, 0.01, 10, 10_000, seed=20240817)
    fit = fit_truncated_power_law(samples)
    assert abs(fit.alpha - 1.5) <= 0.1
    assert fit.x_min == 10
    assert 0.001 <= fit.lam <= 0.1


def test_pure_power_law_gets_negligible_cutoff():
    rng = np.random.default_rng(3)
    samples = rng.zipf(2.5, size=4000)
    fit = fit_truncated_power_law(samples)
    assert abs(fit.alpha - 2.5) <= 0.15
    assert fit.lam < 0.005


def test_deterministic_for_fixed_input():
    samples = sample_truncated_power_law(1.8, 0.02, 5, 2_000, seed=99)
    a = fit_truncated_power_law(samples)
    b = fit_truncated_power_law(samples)
    assert (a.alpha, a.lam, a.x_min) == (b.alpha, b.lam, b.x_min)


def test_degenerate_samples_rejected():
    with pytest.raises(DegenerateSamples):
        fit_truncated_power_law([5] * 200)


def test_too_few_samples_rejected():
    with pytest.raises(InsufficientData):
        fit_truncated_power_law(list(range(1, 30)))


def test_too_few_distinct_values_rejected():
    with pytest.raises(InsufficientData):
        fit_truncated_power_law([1, 2, 3, 4, 5] * 40)


def test_non_positive_samples_rejected():
    with pytest.raises(ValueError):
        fit_truncated_power_law([0, 1, 2] * 40)


class TestCdf:
    def test_zero_below_x_min(self):
        fit = PowerLawFit(alpha=1.5, lam=0.01, x_min=16)
        assert fit.cdf(1) == 0.0
        assert fit.cdf(15) == 0.0
        assert fit.cdf(15.999) == 0.0

    def test_monotone_and_bounded(self):
        fit = PowerLawFit(alpha=1.5, lam=0.01, x_min=10)
        xs = np.arange(1, 5000)
        values = fit.cdf(xs)
        assert np.all(values >= 0.0) and np.all(values <= 1.0)
        assert np.all(np.diff(values) >= -1e-15)

    @pytest.mark.parametrize("lam", [0.0, 0.01, 0.3])
    def test_matches_brute_force_mass_summation(self, lam):
        fit = PowerLawFit(alpha=1.6, lam=lam, x_min=12)
        ks = np.arange(12, 100_001, dtype=np.float64)
        mass = ks**-1.6 * np.exp(-lam * ks)
        brute = np.cumsum(mass) / fit.normalization
        probe = np.array([12, 13, 20, 50, 100, 1_000, 10_000, 100_000])
        got = fit.cdf(probe)
        want = brute[probe - 12]
        assert np.max(np.abs(got - want)) < 1e-3

    def test_approaches_one(self):
        fit = PowerLawFit(alpha=1.5, lam=0.02, x_min=10)
        assert fit.cdf(100_000) > 0.999


def reference_norm_constant(alpha, lam, x_min):
    """The normalizer summed from a fixed first chunk of 65,536 terms, doubling after."""
    total, lo, chunk = 0.0, x_min, 1 << 16
    while True:
        k = np.arange(lo, lo + chunk, dtype=np.float64)
        total += float(np.sum(k**-alpha * np.exp(-lam * k)))
        lo += chunk
        if float(np.exp(-lam * lo) * zeta(alpha, lo)) <= 1e-12 * total:
            return total
        chunk = min(chunk * 2, 1 << 22)


def test_norm_constant_bit_identical_to_fixed_first_chunk():
    rng = np.random.default_rng(2009)
    n = 2_000
    alphas = rng.uniform(1.001, 8.0, n)
    lams = 10.0 ** rng.uniform(-4.9, 0.0, n)
    x_mins = rng.integers(1, 20_001, n)
    mismatches = [
        (a, lam, x)
        for a, lam, x in zip(alphas.tolist(), lams.tolist(), x_mins.tolist())
        if _norm_constant(a, lam, x) != reference_norm_constant(a, lam, x)
    ]
    assert mismatches == []


def test_paper_world_fit_pinned(paper_world):
    fit = paper_world[-1]
    assert repr((fit.alpha, fit.lam, fit.x_min)) == "(1.6370567440619777, 0.010346201110090651, 11)"


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        PowerLawFit(alpha=0.9, lam=0.0, x_min=5)
    with pytest.raises(ValueError):
        PowerLawFit(alpha=1.5, lam=-0.1, x_min=5)
    with pytest.raises(ValueError):
        PowerLawFit(alpha=1.5, lam=0.1, x_min=0)
