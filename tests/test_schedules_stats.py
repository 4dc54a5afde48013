"""Statistics-helper tests."""

import math
import warnings

import numpy as np
import pytest
from scipy import stats as scipy_stats

from repro.utils.stats import compare_means, summarize


class TestSummarize:
    def test_known_sample(self):
        stats = summarize([1.0, 2.0, 3.0])
        assert stats.mean == pytest.approx(2.0)
        assert stats.std == pytest.approx(1.0)
        assert stats.count == 3
        assert stats.ci_low < 2.0 < stats.ci_high

    def test_single_sample_degenerates(self):
        stats = summarize([5.0])
        assert stats.ci_low == stats.ci_high == 5.0

    def test_interval_shrinks_with_n(self):
        rng = np.random.default_rng(0)
        small = summarize(rng.normal(size=10))
        large = summarize(rng.normal(size=1000))
        assert large.half_width < small.half_width

    def test_coverage_roughly_nominal(self):
        """~95% of 95% CIs should contain the true mean."""
        rng = np.random.default_rng(1)
        covered = 0
        trials = 400
        for _ in range(trials):
            sample = rng.normal(loc=3.0, size=15)
            stats = summarize(sample, confidence=0.95)
            covered += stats.ci_low <= 3.0 <= stats.ci_high
        assert covered / trials == pytest.approx(0.95, abs=0.04)

    def test_invalid(self):
        with pytest.raises(ValueError):
            summarize([])
        with pytest.raises(ValueError):
            summarize([1.0], confidence=1.5)

    def test_str(self):
        assert "±" in str(summarize([1.0, 2.0]))

    @pytest.mark.parametrize("confidence", [0.5, 0.8, 0.9, 0.95, 0.99])
    def test_interval_bitwise_equals_scipy_stats_t_ppf(self, confidence):
        """summarize's t quantile (scipy.special.stdtrit) gives the same
        bits as scipy.stats.t.ppf, so no confidence-interval field moved
        when the library stopped importing scipy.stats."""
        rng = np.random.default_rng(7)
        for size in (*range(2, 41), 200, 1000, 10000):
            data = rng.normal(loc=2.0, scale=3.0, size=size)
            stats = summarize(data, confidence=confidence)
            t_crit = float(
                scipy_stats.t.ppf(0.5 + confidence / 2.0, df=size - 1)
            )
            sem = float(data.std(ddof=1)) / math.sqrt(size)
            assert stats.ci_low == stats.mean - t_crit * sem
            assert stats.ci_high == stats.mean + t_crit * sem


class TestBootstrapAndTtest:
    def test_ttest_detects_difference(self):
        rng = np.random.default_rng(0)
        a = rng.normal(loc=0.0, size=100)
        b = rng.normal(loc=1.0, size=100)
        _, p = compare_means(a, b)
        assert p < 1e-6

    def test_ttest_same_distribution(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=200)
        b = rng.normal(size=200)
        _, p = compare_means(a, b)
        assert p > 0.01

    def test_ttest_equals_scipy_welch(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a = rng.normal(size=int(rng.integers(2, 30)))
            b = rng.normal(loc=0.3, size=int(rng.integers(2, 30)))
            expected = scipy_stats.ttest_ind(a, b, equal_var=False)
            assert compare_means(a, b) == (
                float(expected.statistic),
                float(expected.pvalue),
            )

    def test_ttest_handles_constant_groups_without_warning(self):
        varied = [1.0, 2.0, 3.5, 2.2, 1.1]
        constant = [6.443559322299207] * 5
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            expected = scipy_stats.ttest_ind(constant, varied, equal_var=False)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert compare_means(constant, varied) == (
                float(expected.statistic),
                float(expected.pvalue),
            )
            assert compare_means([2.0, 2.0, 2.0], [1.0] * 4) == (math.inf, 0.0)
            assert compare_means([1.0] * 4, [2.0, 2.0]) == (-math.inf, 0.0)
            assert compare_means(constant, constant[:3]) == (0.0, 1.0)

    def test_ttest_needs_samples(self):
        with pytest.raises(ValueError):
            compare_means([1.0], [1.0, 2.0])
