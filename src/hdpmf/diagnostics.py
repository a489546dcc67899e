"""Monte-Carlo verification of the distributed noise composition.

Simulates the per-item aggregate of device noise shares coordinate by
coordinate (shared exponential basis times per-rater Gaussian draws) and
compares the empirical distribution against the Laplace target.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .privacy import laplace_scale
from .rng import stream

_CHUNK = 200_000
# Fewest samples a check accepts. The bounds below widen as 1/sqrt(samples),
# and at 1,000 samples they are already 32% of the variance and 0.062 in KS
# distance; with fewer, no sampler could fail.
MIN_SAMPLES = 1_000
# Laplace scales b whose check holds in float64: the draws reach tens of b,
# and the variance sums their squares over up to 10^12 samples, so b^2 must
# stay far from overflow and underflow. `hdpmf check-noise` refuses others.
SCALE_RANGE = (1e-100, 1e100)


@dataclass
class NoiseCheckReport:
    """Empirical vs analytic behaviour of the aggregated noise."""

    K: int
    delta: float
    epsilon: float
    raters: int
    samples: int
    scale: float  # analytic Laplace scale b
    mean: float
    variance: float
    target_variance: float  # 2 b^2
    ks_distance: float
    mean_tolerance: float  # 3 sigma of the sample mean
    variance_rtol: float
    ks_limit: float

    @property
    def mean_ok(self) -> bool:
        return abs(self.mean) <= self.mean_tolerance

    @property
    def variance_ok(self) -> bool:
        return abs(self.variance - self.target_variance) <= self.variance_rtol * self.target_variance

    @property
    def ks_ok(self) -> bool:
        return self.ks_distance < self.ks_limit

    @property
    def passed(self) -> bool:
        return self.mean_ok and self.variance_ok and self.ks_ok

    def lines(self) -> list[str]:
        def mark(ok: bool) -> str:
            return "pass" if ok else "FAIL"

        return [
            f"noise composition: K={self.K} delta={self.delta} eps={self.epsilon} "
            f"raters={self.raters} samples={self.samples}",
            f"  scale b = {self.scale:.6f}",
            f"  mean      {self.mean:+.6f}  (|mean| <= {self.mean_tolerance:.6f})"
            f"  [{mark(self.mean_ok)}]",
            f"  variance  {self.variance:.4f}  (target {self.target_variance:.4f}"
            f" +/- {100 * self.variance_rtol:.0f}%)  [{mark(self.variance_ok)}]",
            f"  KS        {self.ks_distance:.6f}  (< {self.ks_limit})  [{mark(self.ks_ok)}]",
        ]


def sample_aggregate_noise(
    K: int, delta: float, epsilon: float, raters: int, samples: int, master_seed: int
) -> np.ndarray:
    """Draw `samples` independent realizations of one coordinate of the
    per-item aggregated noise, simulating each rater's share explicitly."""
    if raters < 1:
        raise ValueError(f"raters must be >= 1, got {raters}")
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    rng = stream(master_seed, "check-noise")
    coef = 2.0 * delta / epsilon
    sigma = 1.0 / math.sqrt(raters)
    out = np.empty(samples)
    done = 0
    while done < samples:
        chunk = min(_CHUNK, samples - done)
        h = rng.exponential(1.0, size=chunk)
        c_sum = np.zeros(chunk)
        for _ in range(raters):
            c_sum += rng.normal(0.0, sigma, size=chunk)
        out[done : done + chunk] = coef * np.sqrt(2.0 * K * h) * c_sum
        done += chunk
    return out


def check_noise_composition(
    K: int, delta: float, epsilon: float, raters: int, samples: int, master_seed: int = 0
) -> NoiseCheckReport:
    """Estimate mean, variance, and KS distance of the aggregate against
    Laplace(2*sqrt(K)*delta/epsilon).

    Raises ValueError for fewer than MIN_SAMPLES samples.
    """
    if samples < MIN_SAMPLES:
        raise ValueError(f"samples must be >= {MIN_SAMPLES}, got {samples}")
    b = laplace_scale(K, delta, epsilon)
    draws = sample_aggregate_noise(K, delta, epsilon, raters, samples, master_seed)
    # the KS statistic as SciPy's kstest forms it: the Laplace CDF of
    # the sorted draws against the empirical CDF on either side of each step
    x = np.sort(draws) / b
    tail = 0.5 * np.exp(-np.abs(x))
    cdf = np.where(x > 0, 1.0 - tail, tail)
    steps = np.arange(samples + 1.0) / samples
    ks = max(np.max(steps[1:] - cdf), np.max(cdf - steps[:-1]))
    return NoiseCheckReport(
        K=K,
        delta=delta,
        epsilon=epsilon,
        raters=raters,
        samples=samples,
        scale=b,
        mean=float(draws.mean()),
        variance=float(draws.var()),
        target_variance=2.0 * b * b,
        ks_distance=float(ks),
        mean_tolerance=3.0 * (b * math.sqrt(2.0)) / math.sqrt(samples),
        # 1% and 0.002 are sized for 1e6 samples; smaller runs get bounds
        # scaled by the estimators' sampling error (Laplace excess kurtosis 3)
        variance_rtol=max(0.01, 4.5 * math.sqrt(5.0 / samples)),
        ks_limit=max(0.002, 1.95 / math.sqrt(samples)),
    )
