"""Comparison methods built on the shared training machinery.

All runners share the same initialization, schedule, projection, and epoch
structure; they differ only in how ratings enter the residuals (stretched
or raw), which ratings participate, how much noise each item gradient
carries, and whether predictions are rescaled.

* ``mf``      — no noise, no stretching: the non-private reference.
* ``dpmf``    — uniform noise for everyone, calibrated to the strictest
  observed personal budget; no stretching.
* ``pdpmf``   — keeps each rating with a budget-dependent probability, then
  trains like dpmf at the maximum budget on the surviving subset.
* ``hdpmf``   — stretches ratings by their privacy weights and rescales
  predictions (hdpmf_r is the same model scored without rescaling).
"""

from __future__ import annotations

import enum

import numpy as np

from .data import RatingDataset
from .model import FactorModel, TrainConfig
from .privacy import NoisePlan, WeightAssignment, build_noise_plan
from .protocol import MessageChannel, run_hdpmf, train
from .rng import stream


class BaselineKind(enum.Enum):
    """The compared methods plus the no-rescaling ablation."""

    MF = "mf"
    DPMF = "dpmf"
    PDPMF = "pdpmf"
    HDPMF = "hdpmf"
    HDPMF_R = "hdpmf_r"

    @property
    def rescales(self) -> bool:
        """Whether predictions divide by w_ij; only hdpmf does."""
        return self is BaselineKind.HDPMF


def run_mf(
    dataset: RatingDataset,
    cfg: TrainConfig,
    engine_mode: str = "kernel",
    channel: MessageChannel | None = None,
    trace=None,
    loss_log: list[float] | None = None,
) -> FactorModel:
    """Non-private full-batch matrix factorization (unit weights, zero
    noise), sharing the private pipeline end to end."""
    ones = np.ones(len(dataset))
    return train(
        dataset, ones, NoisePlan.zeros(dataset, cfg.K), cfg,
        engine_mode=engine_mode, channel=channel, trace=trace, loss_log=loss_log,
    )


def min_observed_budget(dataset: RatingDataset, weights: WeightAssignment, epsilon: float) -> float:
    """Strictest personal budget among observed ratings; a uniform
    mechanism must honor it to protect everyone."""
    if len(dataset) == 0:
        return epsilon
    w = weights.matrix_entries(dataset.users, dataset.items)
    return float(w.min()) * epsilon


def run_dpmf(
    dataset: RatingDataset,
    weights: WeightAssignment,
    epsilon: float,
    cfg: TrainConfig,
    engine_mode: str = "kernel",
    channel: MessageChannel | None = None,
    trace=None,
    loss_log: list[float] | None = None,
) -> FactorModel:
    """Uniform-noise training: raw ratings in the residuals, every item
    gradient perturbed at the minimum observed budget."""
    eps_min = min_observed_budget(dataset, weights, epsilon)
    plan = build_noise_plan(dataset, cfg.K, dataset.delta, eps_min, cfg.master_seed)
    ones = np.ones(len(dataset))
    return train(dataset, ones, plan, cfg, engine_mode=engine_mode, channel=channel, trace=trace, loss_log=loss_log)


def pdp_sample_ratings(
    dataset: RatingDataset,
    budgets: np.ndarray,
    threshold: float,
    master_seed: int,
) -> RatingDataset:
    """Keep each rating independently with probability
    (e^budget - 1)/(e^threshold - 1), capped at 1 for budgets >= threshold.

    Budgets align with the dataset's canonical entry order.
    """
    if threshold <= 0:
        raise ValueError(f"threshold must be > 0, got {threshold}")
    budgets = np.asarray(budgets, dtype=np.float64)
    if budgets.shape != (len(dataset),):
        raise ValueError("budgets must align with dataset entries")
    pi = np.where(budgets >= threshold, 1.0, np.expm1(budgets) / np.expm1(threshold))
    draws = stream(master_seed, "pdp-sample").uniform(size=len(dataset))
    return dataset.subset(draws < pi)


def run_pdpmf(
    dataset: RatingDataset,
    weights: WeightAssignment,
    epsilon: float,
    cfg: TrainConfig,
    engine_mode: str = "kernel",
    channel: MessageChannel | None = None,
    trace=None,
    loss_log: list[float] | None = None,
) -> FactorModel:
    """Sample-mechanism baseline: sample ratings by personal budget with
    threshold epsilon, then train uniformly at that budget on the subset.

    Users whose ratings all sampled out still take their (regularization
    only) user updates; items with no surviving raters are skipped.
    """
    budgets = epsilon * weights.matrix_entries(dataset.users, dataset.items)
    sampled = pdp_sample_ratings(dataset, budgets, epsilon, cfg.master_seed)
    plan = build_noise_plan(sampled, cfg.K, sampled.delta, epsilon, cfg.master_seed)
    ones = np.ones(len(sampled))
    return train(sampled, ones, plan, cfg, engine_mode=engine_mode, channel=channel, trace=trace, loss_log=loss_log)
