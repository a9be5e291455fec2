"""Discrete heavy-tailed distributions used to fit degree data.

The paper fits degree distributions against power-law, discrete lognormal and
power-law-with-cutoff candidates (using the Clauset-Shalizi-Newman framework)
and reports that Google+ social degrees are best modeled by a *discrete
lognormal* while the social degree of attribute nodes is best modeled by a
*power law*.  This module provides the candidate families: normalised pmfs on
``{xmin, xmin+1, ...}``, log-pmfs, sampling, and moments.

Normalisers
-----------
The three heavy-tailed families share one normaliser,
:func:`_log_normaliser`: the first :data:`HEAD_SIZE` support points are
summed exactly and the rest of the infinite support is replaced by the
Euler-Maclaurin midpoint formula

    sum_{k >= a} f(k) = int_{a-1/2}^inf f(x) dx + f'(a-1/2) / 24 + R,

where ``|R|`` is of order ``7 |f'''(a-1/2)| / 5760``.  The tail integral is
closed-form for the lognormal (``sigma sqrt(pi/2) erfc``) and the power law
(``m^(1-alpha) / (alpha-1)``); for the cutoff family it is Gauss-Legendre
quadrature in ``t = ln x``.  A tail below ``e^-40`` of the largest head term
is left out, correction and all.  One normaliser therefore costs the same for
every parameter value, and against 30-digit references ``ln Z`` is within
about ``1e-13`` absolute over the ranges the fits explore (see
``docs/architecture.md``, "Fitting degree distributions").
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Dict, Sequence, Tuple

import numpy as np

#: Support points ``xmin .. xmin + HEAD_SIZE - 1`` summed term by term.
HEAD_SIZE = 1024

#: A tail below ``e^-40`` of the largest head term is dropped: ``e^-40`` is
#: under half an ulp of 1, so adding it cannot change the normaliser.
_NEGLIGIBLE_TAIL = 40.0


@functools.lru_cache(maxsize=None)
def _legendre_rule() -> Tuple[np.ndarray, np.ndarray]:
    """128-point Gauss-Legendre nodes and log-weights on [-1, 1].

    Built on first use: it takes ~15 ms, which every import would pay.
    """
    nodes, weights = np.polynomial.legendre.leggauss(128)
    return nodes, np.log(weights)


def _log_normaliser(
    xmin: int,
    log_weight: Callable,
    log_weight_slope: Callable[[float], float],
    log_tail_integral: Callable[[float], float],
) -> float:
    """``ln sum_{k >= xmin} w(k)``: exact head sum plus Euler-Maclaurin tail.

    ``log_weight`` is ``ln w`` (vectorised), ``log_weight_slope(x)`` is
    ``w'(x) / w(x)`` and ``log_tail_integral(m)`` is ``ln int_m^inf w``
    (``-inf`` when it underflows).
    """
    if xmin < 1:
        raise ValueError(f"xmin must be >= 1, got {xmin}")
    head = log_weight(np.arange(xmin, xmin + HEAD_SIZE, dtype=float))
    head_peak = float(np.max(head))
    midpoint = xmin + HEAD_SIZE - 0.5
    log_integral = log_tail_integral(midpoint)
    if log_integral < head_peak - _NEGLIGIBLE_TAIL:
        # This also skips the correction where it is invalid: a weight that
        # falls by a large factor per unit step (a cutoff rate of a few
        # units) is too steep for Euler-Maclaurin, and its tail is negligible.
        log_tail = -math.inf
    else:
        # int + w'(m)/24, factored as int * (1 + w(m) (w'/w)(m) / (24 int)).
        ratio = math.exp(float(log_weight(midpoint)) - log_integral)
        log_tail = log_integral + math.log1p(ratio * log_weight_slope(midpoint) / 24)
    peak = max(head_peak, log_tail)
    return peak + math.log(float(np.sum(np.exp(head - peak))) + math.exp(log_tail - peak))


def _check_values(values: Sequence[int], xmin: int) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    if np.any(values < xmin):
        raise ValueError("all values must be >= xmin")
    return values


@dataclass(frozen=True)
class PowerLaw:
    """Discrete power law ``p(k) ∝ k^(-alpha)`` for ``k >= xmin``."""

    alpha: float
    xmin: int = 1

    def log_normaliser(self) -> float:
        """``ln`` of the Hurwitz zeta ``sum_{k >= xmin} k^(-alpha)`` (needs ``alpha > 1``)."""
        if self.alpha <= 1:
            raise ValueError(f"a power law needs alpha > 1, got {self.alpha}")
        alpha = self.alpha
        return _log_normaliser(
            self.xmin,
            lambda x: -alpha * np.log(x),
            lambda x: -alpha / x,
            lambda m: (1 - alpha) * math.log(m) - math.log(alpha - 1),
        )

    def log_pmf(self, values: Sequence[int]) -> np.ndarray:
        values = _check_values(values, self.xmin)
        return -self.alpha * np.log(values) - self.log_normaliser()

    def pmf(self, values: Sequence[int]) -> np.ndarray:
        return np.exp(self.log_pmf(values))

    def sample(self, size: int, rng: np.random.Generator, table_size: int = 100000) -> np.ndarray:
        """Exact inverse-CDF sampling over a finite table, continuous tail beyond it.

        The head (``k <= table_size``) is sampled from the exact discrete CDF;
        the residual tail mass uses the standard continuous approximation,
        which is accurate there because the discreteness correction vanishes
        for large ``k``.
        """
        ks = np.arange(self.xmin, table_size + 1, dtype=float)
        pmf = ks ** -self.alpha
        pmf /= math.exp(self.log_normaliser())
        cdf = np.cumsum(pmf)
        head_mass = float(cdf[-1])
        uniforms = rng.random(size)
        samples = np.empty(size, dtype=int)
        in_head = uniforms < head_mass
        samples[in_head] = self.xmin + np.searchsorted(cdf, uniforms[in_head])
        num_tail = int(np.sum(~in_head))
        if num_tail:
            tail_uniforms = rng.random(num_tail)
            continuous = (table_size + 0.5) * (1 - tail_uniforms) ** (-1 / (self.alpha - 1))
            samples[~in_head] = np.floor(continuous + 0.5).astype(int)
        return samples

    @property
    def name(self) -> str:
        return "power_law"

    def parameters(self) -> Dict[str, float]:
        return {"alpha": self.alpha, "xmin": self.xmin}


@dataclass(frozen=True)
class DiscreteLognormal:
    """Discrete lognormal ``p(k) ∝ (1/k) exp(-(ln k - mu)^2 / (2 sigma^2))``.

    This is the DGX-style parameterisation the paper cites (Bi, Faloutsos,
    Korn) for ``k >= xmin``.
    """

    mu: float
    sigma: float
    xmin: int = 1

    def _log_weights(self, values: np.ndarray) -> np.ndarray:
        logs = np.log(values)
        return -logs - (logs - self.mu) ** 2 / (2 * self.sigma ** 2)

    def log_normaliser(self) -> float:
        """``ln sum_{k >= xmin} (1/k) exp(-(ln k - mu)^2 / (2 sigma^2))``."""
        mu, sigma = self.mu, self.sigma

        def log_tail_integral(m: float) -> float:
            # Substituting t = ln x turns the tail into a Gaussian integral.
            tail = math.erfc((math.log(m) - mu) / (sigma * math.sqrt(2)))
            if tail == 0.0:
                return -math.inf
            return math.log(sigma * math.sqrt(math.pi / 2) * tail)

        return _log_normaliser(
            self.xmin,
            self._log_weights,
            lambda x: -(1 + (math.log(x) - mu) / sigma ** 2) / x,
            log_tail_integral,
        )

    def log_pmf(self, values: Sequence[int]) -> np.ndarray:
        values = _check_values(values, self.xmin)
        return self._log_weights(values) - self.log_normaliser()

    def pmf(self, values: Sequence[int]) -> np.ndarray:
        return np.exp(self.log_pmf(values))

    def sample(self, size: int, rng: np.random.Generator) -> np.ndarray:
        """Sample by rounding continuous lognormal draws, rejecting below xmin."""
        result = np.empty(size, dtype=int)
        filled = 0
        while filled < size:
            draws = rng.lognormal(self.mu, self.sigma, size=size - filled)
            discrete = np.maximum(1, np.round(draws)).astype(int)
            accepted = discrete[discrete >= self.xmin]
            count = min(len(accepted), size - filled)
            result[filled : filled + count] = accepted[:count]
            filled += count
        return result

    @property
    def name(self) -> str:
        return "lognormal"

    def parameters(self) -> Dict[str, float]:
        return {"mu": self.mu, "sigma": self.sigma, "xmin": self.xmin}


@dataclass(frozen=True)
class PowerLawWithCutoff:
    """Power law with exponential cutoff ``p(k) ∝ k^(-alpha) e^(-lambda k)``."""

    alpha: float
    cutoff_rate: float
    xmin: int = 1

    def _log_weights(self, values: np.ndarray) -> np.ndarray:
        return -self.alpha * np.log(values) - self.cutoff_rate * values

    def log_normaliser(self) -> float:
        """``ln sum_{k >= xmin} k^(-alpha) e^(-lambda k)`` (needs ``lambda > 0``)."""
        if self.cutoff_rate <= 0:
            raise ValueError(f"cutoff_rate must be positive, got {self.cutoff_rate}")
        alpha, rate = self.alpha, self.cutoff_rate

        def log_tail_integral(m: float) -> float:
            # int_m^inf x^-alpha e^(-rate x) dx = int_{ln m}^inf e^((1-alpha) t - rate e^t) dt.
            # Past rate * (e^t - m) = 60 the integrand has fallen by > e^-50
            # from its maximum on the range, for every alpha >= 0.
            nodes, log_weights = _legendre_rule()
            low, high = math.log(m), math.log(m + 60 / rate)
            half = (high - low) / 2
            t = low + half * (nodes + 1)
            terms = (1 - alpha) * t - rate * np.exp(t) + log_weights
            peak = float(np.max(terms))
            return math.log(half) + peak + math.log(float(np.sum(np.exp(terms - peak))))

        return _log_normaliser(
            self.xmin, self._log_weights, lambda x: -alpha / x - rate, log_tail_integral
        )

    def log_pmf(self, values: Sequence[int]) -> np.ndarray:
        values = _check_values(values, self.xmin)
        return self._log_weights(values) - self.log_normaliser()

    def pmf(self, values: Sequence[int]) -> np.ndarray:
        return np.exp(self.log_pmf(values))

    def sample(self, size: int, rng: np.random.Generator) -> np.ndarray:
        """Exact inverse-CDF sampling over a finite table, rejection beyond it.

        The head ``k < K = xmin + 100000`` is drawn from the exact
        discrete CDF.  For ``k >= K`` and ``alpha >= 0``,
        ``k^(-alpha) e^(-lambda k) <= K^(-alpha) e^(-lambda k)``, so a tail
        draw is a geometric proposal shifted to ``K``, accepted with
        probability ``(k / K)^(-alpha)``.  Unlike a pure power-law proposal
        this also holds for ``alpha <= 1``, which the MLE often returns.
        """
        if self.alpha < 0:
            raise ValueError(f"sampling needs alpha >= 0, got {self.alpha}")
        start = self.xmin + 100000
        cdf = np.cumsum(self.pmf(np.arange(self.xmin, start)))
        uniforms = rng.random(size)
        in_head = uniforms < cdf[-1]
        samples = np.empty(size, dtype=int)
        samples[in_head] = self.xmin + np.searchsorted(cdf, uniforms[in_head])
        tail = np.flatnonzero(~in_head)
        success = -math.expm1(-self.cutoff_rate)
        filled = 0
        while filled < tail.size:
            proposals = start - 1 + rng.geometric(success, size=tail.size - filled)
            accept = rng.random(proposals.size) < (proposals / start) ** -self.alpha
            accepted = proposals[accept]
            samples[tail[filled : filled + accepted.size]] = accepted
            filled += accepted.size
        return samples

    @property
    def name(self) -> str:
        return "power_law_with_cutoff"

    def parameters(self) -> Dict[str, float]:
        return {"alpha": self.alpha, "cutoff_rate": self.cutoff_rate, "xmin": self.xmin}


@dataclass(frozen=True)
class DiscreteExponential:
    """Geometric-style exponential ``p(k) ∝ e^(-lambda k)`` for ``k >= xmin``."""

    rate: float
    xmin: int = 1

    def log_normaliser(self) -> float:
        """Geometric series: ``ln sum_{k >= xmin} e^(-rate k)``."""
        return -self.rate * self.xmin - math.log1p(-math.exp(-self.rate))

    def log_pmf(self, values: Sequence[int]) -> np.ndarray:
        values = _check_values(values, self.xmin)
        return -self.rate * values - self.log_normaliser()

    def pmf(self, values: Sequence[int]) -> np.ndarray:
        return np.exp(self.log_pmf(values))

    def sample(self, size: int, rng: np.random.Generator) -> np.ndarray:
        geometric = rng.geometric(p=1 - math.exp(-self.rate), size=size)
        return geometric + self.xmin - 1

    @property
    def name(self) -> str:
        return "exponential"

    def parameters(self) -> Dict[str, float]:
        return {"rate": self.rate, "xmin": self.xmin}


def truncated_normal_mean_variance(mu: float, sigma: float) -> tuple:
    """Mean and variance of a normal truncated to ``[0, inf)``.

    Used by Theorem 1: with ``gamma = -mu/sigma``, ``g(gamma) = phi / (1-Phi)``
    and ``delta = g (g - gamma)``, the truncated mean is ``mu + sigma g`` and
    the variance ``sigma^2 (1 - delta)``.
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    gamma = -mu / sigma
    phi = math.exp(-gamma * gamma / 2) / math.sqrt(2 * math.pi)
    capital_phi = 0.5 * (1 + math.erf(gamma / math.sqrt(2)))
    survival = 1 - capital_phi
    if survival <= 0:
        return mu, sigma ** 2
    g = phi / survival
    delta = g * (g - gamma)
    return mu + sigma * g, sigma ** 2 * (1 - delta)
