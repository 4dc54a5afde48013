"""Statistics helpers for multi-seed experiment reporting.

Published-quality results need uncertainty: these helpers aggregate
metric values across seeds into mean ± confidence interval, and compare
two groups with Welch's t-test.

scipy is imported at the point of use, never at module level, so
importing ``repro`` loads no scipy module: :func:`summarize` imports
``scipy.special`` (~0.3 s) the first time it builds an interval from two
or more samples, and :func:`compare_means` imports ``scipy.stats``.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

__all__ = ["SummaryStats", "summarize", "compare_means"]


@dataclass(frozen=True)
class SummaryStats:
    """Mean, spread, and a confidence interval for one metric."""

    mean: float
    std: float
    count: int
    ci_low: float
    ci_high: float
    confidence: float

    @property
    def half_width(self) -> float:
        """Half the confidence-interval width."""
        return (self.ci_high - self.ci_low) / 2.0

    def __str__(self) -> str:
        return f"{self.mean:.4f} ± {self.half_width:.4f} (n={self.count})"


def summarize(values: Sequence[float], *, confidence: float = 0.95) -> SummaryStats:
    """Mean with a Student-t confidence interval.

    With one sample the interval degenerates to the point estimate.
    """
    if len(values) == 0:
        raise ValueError("cannot summarise an empty sample")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    data = np.asarray(values, dtype=float)
    mean = float(data.mean())
    if data.size == 1:
        return SummaryStats(
            mean=mean, std=0.0, count=1, ci_low=mean, ci_high=mean,
            confidence=confidence,
        )
    std = float(data.std(ddof=1))
    sem = std / math.sqrt(data.size)
    # stdtrit(df, q) is the Student-t quantile, bitwise scipy.stats.t.ppf
    # without the ~1.5 s scipy.stats import; imported here so that only a
    # process that builds an interval pays the ~0.3 s scipy.special import.
    from scipy.special import stdtrit

    t_crit = float(stdtrit(data.size - 1, 0.5 + confidence / 2.0))
    return SummaryStats(
        mean=mean,
        std=std,
        count=int(data.size),
        ci_low=mean - t_crit * sem,
        ci_high=mean + t_crit * sem,
        confidence=confidence,
    )


def compare_means(
    a: Sequence[float], b: Sequence[float]
) -> tuple[float, float]:
    """Welch's t-test: returns (t statistic, p value).

    Used by tests/benches to claim "scheme A beats scheme B" with
    statistical backing rather than a single-seed comparison.

    A constant group (every sample equal, e.g. the seed-invariant
    equilibrium scheme) is handled explicitly, without scipy's
    catastrophic-cancellation warning:

    - one constant group: scipy's Welch value, warning suppressed;
    - both constant with different means: ``(±inf, 0.0)``, the sign of
      ``mean(a) - mean(b)``;
    - both constant and equal: ``(0.0, 1.0)``.
    """
    if len(a) < 2 or len(b) < 2:
        raise ValueError("need at least two samples per group")
    a_constant = min(a) == max(a)
    b_constant = min(b) == max(b)
    if a_constant and b_constant:
        if a[0] == b[0]:
            return 0.0, 1.0
        return math.copysign(math.inf, a[0] - b[0]), 0.0
    from scipy import stats as scipy_stats  # slow import; multiseed only

    with warnings.catch_warnings():
        if a_constant or b_constant:
            # The constant group's variance is zero up to the rounding of
            # its mean, which scipy reports as precision loss.
            warnings.filterwarnings(
                "ignore", "Precision loss", category=RuntimeWarning
            )
        t_stat, p_value = scipy_stats.ttest_ind(a, b, equal_var=False)
    return float(t_stat), float(p_value)
