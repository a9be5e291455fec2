"""Tests for the candidate discrete distributions."""

import math

import numpy as np
import pytest

from repro.fitting import (
    DiscreteExponential,
    DiscreteLognormal,
    PowerLaw,
    PowerLawWithCutoff,
    truncated_normal_mean_variance,
)


RNG = np.random.default_rng(7)


def test_power_law_pmf_normalises():
    dist = PowerLaw(alpha=2.5, xmin=1)
    ks = np.arange(1, 20000)
    assert float(np.sum(dist.pmf(ks))) == pytest.approx(1.0, abs=1e-2)


def test_power_law_pmf_monotone_decreasing():
    dist = PowerLaw(alpha=2.0, xmin=1)
    pmf = dist.pmf([1, 2, 5, 10, 100])
    assert all(a > b for a, b in zip(pmf, pmf[1:]))


def test_power_law_rejects_below_xmin():
    dist = PowerLaw(alpha=2.5, xmin=5)
    with pytest.raises(ValueError):
        dist.log_pmf([1])


def test_power_law_sampling_respects_xmin_and_tail():
    dist = PowerLaw(alpha=2.5, xmin=2)
    samples = dist.sample(5000, RNG)
    assert samples.min() >= 2
    # Heavy tail: some samples should exceed 20.
    assert samples.max() > 20


def test_lognormal_pmf_normalises():
    dist = DiscreteLognormal(mu=1.0, sigma=0.7, xmin=1)
    ks = np.arange(1, 5000)
    assert float(np.sum(dist.pmf(ks))) == pytest.approx(1.0, abs=1e-3)


def test_lognormal_mode_near_exp_mu():
    dist = DiscreteLognormal(mu=2.0, sigma=0.5, xmin=1)
    ks = np.arange(1, 200)
    pmf = dist.pmf(ks)
    mode = ks[int(np.argmax(pmf))]
    assert 3 <= mode <= 9  # exp(2 - 0.25) ~ 5.8 for the 1/k-weighted form


def test_lognormal_sampling_statistics():
    dist = DiscreteLognormal(mu=1.5, sigma=0.6, xmin=1)
    samples = dist.sample(8000, RNG)
    assert samples.min() >= 1
    log_mean = float(np.mean(np.log(samples)))
    assert log_mean == pytest.approx(1.5, abs=0.15)


def test_power_law_with_cutoff_decays_faster_than_power_law():
    plain = PowerLaw(alpha=2.0, xmin=1)
    cutoff = PowerLawWithCutoff(alpha=2.0, cutoff_rate=0.05, xmin=1)
    ratio_small = cutoff.pmf([2])[0] / plain.pmf([2])[0]
    ratio_large = cutoff.pmf([200])[0] / plain.pmf([200])[0]
    assert ratio_large < ratio_small


def test_power_law_with_cutoff_sampling():
    dist = PowerLawWithCutoff(alpha=1.8, cutoff_rate=0.1, xmin=1)
    samples = dist.sample(2000, RNG)
    assert samples.min() >= 1
    assert samples.mean() < 40


@pytest.mark.parametrize("alpha,rate,xmin", [(0.5, 1e-5, 1), (1.6, 0.08, 3)])
def test_power_law_with_cutoff_samples_follow_the_cdf(alpha, rate, xmin):
    # alpha <= 1 with a slow cutoff puts ~16% of the mass past k = 1e5.
    dist = PowerLawWithCutoff(alpha=alpha, cutoff_rate=rate, xmin=xmin)
    samples = dist.sample(20000, np.random.default_rng(4))
    assert samples.min() >= xmin
    for point in np.quantile(samples, [0.1, 0.5, 0.9]).astype(int):
        exact = float(np.sum(dist.pmf(np.arange(xmin, point + 1))))
        assert float(np.mean(samples <= point)) == pytest.approx(exact, abs=0.02)


def test_exponential_pmf_and_sampling():
    dist = DiscreteExponential(rate=0.5, xmin=1)
    ks = np.arange(1, 200)
    assert float(np.sum(dist.pmf(ks))) == pytest.approx(1.0, abs=1e-6)
    samples = dist.sample(5000, RNG)
    assert samples.min() >= 1
    assert samples.mean() == pytest.approx(1.0 / (1 - math.exp(-0.5)), rel=0.1)


def test_parameters_and_names():
    assert PowerLaw(2.1).name == "power_law"
    assert DiscreteLognormal(1, 1).name == "lognormal"
    assert PowerLawWithCutoff(2, 0.1).name == "power_law_with_cutoff"
    assert DiscreteExponential(0.3).name == "exponential"
    assert PowerLaw(2.1, xmin=3).parameters()["xmin"] == 3


def test_truncated_normal_mean_variance():
    # With mu >> sigma truncation is negligible.
    mean, variance = truncated_normal_mean_variance(10.0, 1.0)
    assert mean == pytest.approx(10.0, abs=0.01)
    assert variance == pytest.approx(1.0, abs=0.01)
    # With mu = 0 the truncated mean is sigma * sqrt(2/pi).
    mean0, variance0 = truncated_normal_mean_variance(0.0, 2.0)
    assert mean0 == pytest.approx(2.0 * math.sqrt(2 / math.pi), rel=1e-3)
    assert variance0 < 4.0
    with pytest.raises(ValueError):
        truncated_normal_mean_variance(1.0, 0.0)


# ----------------------------------------------------------------------
# Normaliser accuracy: head sum + Euler-Maclaurin tail vs a direct sum
# ----------------------------------------------------------------------
DIRECT_SUM_END = 10 ** 7
DIRECT_SUM_CHUNK = 10 ** 6


def _direct_mass(dist):
    """sum of pmf(k) for xmin <= k < 10^7, chunk by chunk."""
    chunks = []
    for start in range(dist.xmin, DIRECT_SUM_END, DIRECT_SUM_CHUNK):
        ks = np.arange(start, min(start + DIRECT_SUM_CHUNK, DIRECT_SUM_END), dtype=float)
        chunks.append(float(np.sum(dist.pmf(ks))))
    return math.fsum(chunks)


def _tail_mass(weight_integral, weight, weight_slope, dist):
    """Mass beyond 10^7: the midpoint Euler-Maclaurin formula, written out here."""
    m = DIRECT_SUM_END - 0.5
    tail_weight = weight_integral(m) + weight(m) * weight_slope(m) / 24
    return tail_weight * math.exp(-dist.log_normaliser())


@pytest.mark.parametrize("xmin", [1, 3, 50])
@pytest.mark.parametrize("mu,sigma", [(0.0, 0.5), (1.0, 4.0), (2.5, 1.5), (5.0, 4.0)])
def test_lognormal_normaliser_matches_direct_sum(mu, sigma, xmin):
    dist = DiscreteLognormal(mu=mu, sigma=sigma, xmin=xmin)
    tail = _tail_mass(
        lambda m: sigma * math.sqrt(math.pi / 2) * math.erfc((math.log(m) - mu) / (sigma * math.sqrt(2))),
        lambda m: math.exp(-math.log(m) - (math.log(m) - mu) ** 2 / (2 * sigma ** 2)),
        lambda m: -(1 + (math.log(m) - mu) / sigma ** 2) / m,
        dist,
    )
    assert _direct_mass(dist) + tail == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("xmin", [1, 3, 50])
@pytest.mark.parametrize("alpha", [1.05, 1.5, 2.5, 6.0])
def test_power_law_normaliser_matches_direct_sum(alpha, xmin):
    dist = PowerLaw(alpha=alpha, xmin=xmin)
    tail = _tail_mass(
        lambda m: m ** (1 - alpha) / (alpha - 1),
        lambda m: m ** -alpha,
        lambda m: -alpha / m,
        dist,
    )
    assert _direct_mass(dist) + tail == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("xmin", [1, 3, 50])
# Rates 5 and 10 fall too steeply per step for Euler-Maclaurin: the
# normaliser must leave out the (negligible) tail correction there.
@pytest.mark.parametrize(
    "alpha,rate", [(0.5, 1e-3), (1.05, 1e-5), (2.0, 0.1), (1.5, 5.0), (1.5, 10.0)]
)
def test_power_law_with_cutoff_normaliser_matches_direct_sum(alpha, rate, xmin):
    # Every rate here puts less than e^-100 of the mass beyond 10^7.
    dist = PowerLawWithCutoff(alpha=alpha, cutoff_rate=rate, xmin=xmin)
    assert _direct_mass(dist) == pytest.approx(1.0, abs=1e-10)


def test_power_law_needs_alpha_above_one():
    with pytest.raises(ValueError):
        PowerLaw(alpha=1.0).log_normaliser()
    with pytest.raises(ValueError):
        PowerLawWithCutoff(alpha=2.0, cutoff_rate=0.0).log_normaliser()
