"""The compared methods as inputs to the one shared training protocol.

Every method trains as `protocol.train(*method_inputs(...), cfg, seed)`,
with the same initialization, schedule, projection, and epoch structure;
`method_inputs` gives what each one feeds it: which ratings, which
per-rating weights (stretched targets w_ij * r_ij, or raw ratings), and
which noise plan. The config supplies everything else. Whether predictions
are rescaled is `BaselineKind.rescales`.

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
import math

import numpy as np

from .data import RatingDataset
from .exceptions import ConfigError
from .privacy import NoisePlan, WeightAssignment, build_noise_plan
from .rng import keyed_uniform


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


def min_observed_budget(dataset: RatingDataset, weights: WeightAssignment, epsilon: float) -> float:
    """Strictest personal budget among observed ratings; a uniform
    mechanism must honor it to protect everyone."""
    if len(dataset) == 0:
        return epsilon
    w = weights.matrix_entries(dataset.users, dataset.items)
    return float(w.min()) * epsilon


def pdp_sample_ratings(
    dataset: RatingDataset,
    budgets: np.ndarray,
    threshold: float,
    master_seed: int,
) -> RatingDataset:
    """Keep each rating independently with probability
    pi = (e^budget - 1)/(e^threshold - 1), capped at 1 for budgets >= threshold.

    Rating (i, j) is kept when its keyed `pdp-sample` draw under key (j, i)
    is below its pi, so its fate depends on nothing but its own key and
    budget: the same rating in any subset of the data is kept or dropped
    alike. Budgets align with the dataset's canonical entry order.
    """
    if threshold <= 0:
        raise ValueError(f"threshold must be > 0, got {threshold}")
    budgets = np.asarray(budgets, dtype=np.float64)
    if budgets.shape != (len(dataset),):
        raise ValueError("budgets must align with dataset entries")
    # e^threshold may overflow, and e^budget where np.where keeps 1 instead
    with np.errstate(over="ignore"):
        scale = np.expm1(threshold)
        if np.isfinite(scale):
            pi = np.where(budgets >= threshold, 1.0, np.expm1(budgets) / scale)
        else:  # the same ratio, as e^(b - t) (1 - e^-b) / (1 - e^-t)
            ratio = np.exp(budgets - threshold) * np.expm1(-budgets) / np.expm1(-threshold)
            pi = np.where(budgets >= threshold, 1.0, ratio)
    draws = keyed_uniform(master_seed, "pdp-sample", dataset.items, dataset.users, 1)[:, 0]
    return dataset.subset(draws < pi)


def method_inputs(
    method: BaselineKind,
    dataset: RatingDataset,
    weights: WeightAssignment,
    epsilon: float,
    K: int,
    master_seed: int,
) -> tuple[RatingDataset, np.ndarray, NoisePlan]:
    """What `method` feeds `protocol.train`: (training ratings, per-entry
    weights in their canonical order, noise plan).

    mf trains on raw ratings with zero noise. dpmf draws one plan at the
    minimum observed budget. pdpmf samples ratings by personal budget with
    threshold epsilon and draws its plan at epsilon on the surviving subset;
    users whose ratings all sampled out still take their (regularization
    only) user updates, and items with no surviving raters are skipped.
    hdpmf and hdpmf_r stretch ratings by w_ij and draw the plan at epsilon.

    Raises ConfigError on `epsilon` when the noise scale 2 * delta / budget
    of the budget a plan is calibrated to is not a finite number > 0.
    """
    if method is BaselineKind.MF:
        return dataset, np.ones(len(dataset)), NoisePlan.zeros(dataset, K)
    if method is BaselineKind.DPMF:
        epsilon = min_observed_budget(dataset, weights, epsilon)
    elif method is BaselineKind.PDPMF:
        budgets = epsilon * weights.matrix_entries(dataset.users, dataset.items)
        dataset = pdp_sample_ratings(dataset, budgets, epsilon, master_seed)
    if not (epsilon > 0 and 0 < 2.0 * dataset.delta / epsilon < math.inf):
        raise ConfigError(
            "epsilon", f"{method.value} calibrates its noise to the budget {epsilon!r}, and the "
            f"noise scale 2 * delta / budget with delta = {dataset.delta!r} is not a finite number > 0"
        )
    plan = build_noise_plan(dataset, K, dataset.delta, epsilon, master_seed)
    if method in (BaselineKind.HDPMF, BaselineKind.HDPMF_R):
        return dataset, weights.matrix_entries(dataset.users, dataset.items), plan
    return dataset, np.ones(len(dataset)), plan
