"""Small-scale fading and shadowing models.

The paper's game uses a deterministic channel (fixed ``h0``); these models
extend the substrate for the stochastic-channel experiments in
``benchmarks/test_bench_substrates.py`` and for failure-injection tests.
All models produce multiplicative *linear power* gains with unit mean, so a
faded link fluctuates around the deterministic one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.utils.validation import require_non_negative, require_positive

__all__ = ["FadingModel", "NoFading", "RayleighFading", "RicianFading", "LogNormalShadowing"]


class FadingModel:
    """Interface: draw multiplicative linear power gains with unit mean."""

    def sample(self, rng: np.random.Generator, size: int = 1) -> np.ndarray:
        """Draw ``size`` i.i.d. power-gain samples (mean 1)."""
        raise NotImplementedError


@dataclass(frozen=True)
class NoFading(FadingModel):
    """Deterministic channel: always gain 1 (the paper's setting)."""

    def sample(self, rng: np.random.Generator, size: int = 1) -> np.ndarray:
        return np.ones(size)


@dataclass(frozen=True)
class RayleighFading(FadingModel):
    """Rayleigh fading: power gain ~ Exp(1) (unit mean)."""

    def sample(self, rng: np.random.Generator, size: int = 1) -> np.ndarray:
        return rng.exponential(scale=1.0, size=size)


@dataclass(frozen=True)
class RicianFading(FadingModel):
    """Rician fading with K-factor ``k`` (ratio of LOS to scattered power).

    Power gain is |X|^2 with X complex Gaussian around a LOS component,
    normalised to unit mean. ``k = 0`` reduces to Rayleigh.
    """

    k_factor: float

    def __post_init__(self) -> None:
        require_non_negative("k_factor", self.k_factor)

    def sample(self, rng: np.random.Generator, size: int = 1) -> np.ndarray:
        k = self.k_factor
        los = math.sqrt(k / (k + 1.0))
        sigma = math.sqrt(1.0 / (2.0 * (k + 1.0)))
        real = rng.normal(loc=los, scale=sigma, size=size)
        imag = rng.normal(loc=0.0, scale=sigma, size=size)
        return real**2 + imag**2


@dataclass(frozen=True)
class LogNormalShadowing(FadingModel):
    """Log-normal shadowing with standard deviation ``sigma_db`` (dB).

    Normalised so the *linear* mean is 1 (the median is below 1).
    """

    sigma_db: float

    def __post_init__(self) -> None:
        require_positive("sigma_db", self.sigma_db)

    def sample(self, rng: np.random.Generator, size: int = 1) -> np.ndarray:
        sigma_ln = self.sigma_db * math.log(10.0) / 10.0
        # E[exp(N(mu, s^2))] = exp(mu + s^2/2) == 1  =>  mu = -s^2/2.
        mu = -0.5 * sigma_ln**2
        return rng.lognormal(mean=mu, sigma=sigma_ln, size=size)
