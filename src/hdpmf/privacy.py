"""Privacy machinery: weight allocation, stretching, noise calibration and
distributed noise composition.

Every rating (i, j) carries a privacy weight w_ij = beta_i * gamma_j in
(0, 1], giving it a personal budget w_ij * eps. Training sees the stretched
value w_ij * r_ij, and the item-side gradients are perturbed once per run
by per-item Laplace noise of scale 2*sqrt(K)*delta/eps, assembled from
per-device shares: a shared exponential vector h_j times per-rater Gaussian
draws whose variances sum to one. Predictions divide by w_ij to undo the
stretch (`protocol.predict_all`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .data import RatingDataset
from .rng import keyed_exponential, keyed_normal, stream

if TYPE_CHECKING:  # config imports this module through baselines
    from .config import ExperimentConfig


@dataclass
class WeightAssignment:
    """Per-user and per-item privacy weights; w_ij = beta_i * gamma_j."""

    beta: np.ndarray  # (n_users,), values in (0, 1]
    gamma: np.ndarray  # (n_items,), values in (0, 1]

    def weight(self, i: int, j: int) -> float:
        return float(self.beta[i] * self.gamma[j])

    def matrix_entries(self, users: np.ndarray, items: np.ndarray) -> np.ndarray:
        """Vectorized w for parallel (user, item) index arrays."""
        return self.beta[users] * self.gamma[items]

    @classmethod
    def uniform(cls, n_users: int, n_items: int) -> "WeightAssignment":
        """All weights 1 (no stretching, maximum budget everywhere)."""
        return cls(np.ones(n_users), np.ones(n_items))


def _allocate_group_weights(
    count: int, f_con: float, f_mod: float,
    lo: float, mid: float, hi: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Permute entities, fill the first floor(f_con * count) with draws from
    [lo, mid), the next floor(f_mod * count) from [mid, hi), the rest with
    exactly hi."""
    n_con = int(math.floor(f_con * count))
    n_mod = int(math.floor(f_mod * count))
    perm = rng.permutation(count)
    out = np.full(count, hi, dtype=np.float64)
    out[perm[:n_con]] = rng.uniform(lo, mid, size=n_con)
    out[perm[n_con : n_con + n_mod]] = rng.uniform(mid, hi, size=n_mod)
    return out


def allocate_weights(cfg: ExperimentConfig, n_users: int, n_items: int, master_seed: int) -> WeightAssignment:
    """Randomly assign users and items to the privacy groups of `cfg` and
    draw weights.

    Deterministic in the master seed; user and item draws come from
    independent streams.
    """
    beta = _allocate_group_weights(
        n_users, cfg.f_uc, cfg.f_um, cfg.eps_uc, cfg.eps_um, cfg.eps_ul,
        stream(master_seed, "user-weights"),
    )
    gamma = _allocate_group_weights(
        n_items, cfg.f_ic, cfg.f_im, cfg.eps_ic, cfg.eps_im, cfg.eps_il,
        stream(master_seed, "item-weights"),
    )
    return WeightAssignment(beta, gamma)


def laplace_scale(K: int, delta: float, epsilon: float) -> float:
    """Noise scale 2*sqrt(K)*delta/epsilon that the item factors need for
    the heterogeneous guarantee."""
    if K < 1 or delta <= 0 or epsilon <= 0:
        raise ValueError("K, delta, epsilon must be positive")
    return 2.0 * math.sqrt(K) * delta / epsilon


@dataclass
class NoisePlan:
    """Once-per-run objective-perturbation noise, decomposed into shares.

    For every rated item j the recommender draws h_j ~ Exp(1)^K and each
    rater i contributes x_j^i = (2*delta/eps) * sqrt(2K*h_j) * c_j^i with
    c_j^i ~ N(0, 1/|raters(j)|)^K, so the per-item aggregate is Laplace of
    scale 2*sqrt(K)*delta/eps per coordinate. Shares are stored in
    item-major order aligned with the dataset's by-item layout, so each
    item's slots are sorted by user.
    """

    item_ptr: np.ndarray  # (n_items + 1,)
    item_users: np.ndarray  # (nnz,), user per slot
    shares: np.ndarray  # (nnz, K)
    h: np.ndarray  # (n_items, K); rows of unrated items stay zero
    delta: float
    epsilon: float
    K: int

    @classmethod
    def zeros(cls, dataset: RatingDataset, K: int) -> "NoisePlan":
        """All-zero shares; the noise-free limit used by plain MF and
        reduction tests. The shares are a read-only zero-stride view, so
        the plan costs no nnz x K memory."""
        ptr, order = dataset.by_item
        return cls(
            item_ptr=ptr,
            item_users=dataset.users[order],
            shares=np.broadcast_to(0.0, (len(dataset), K)),
            h=np.zeros((dataset.n_items, K)),
            delta=dataset.delta,
            epsilon=math.inf,
            K=K,
        )

    def share(self, i: int, j: int) -> np.ndarray:
        """The share x_j^i contributed by user i to item j; KeyError if i
        did not rate j."""
        if not 0 <= j < len(self.item_ptr) - 1:
            raise KeyError((i, j))
        s, e = self.item_ptr[j], self.item_ptr[j + 1]
        p = s + np.searchsorted(self.item_users[s:e], i)
        if p == e or self.item_users[p] != i:
            raise KeyError((i, j))
        return self.shares[p]

    @cached_property
    def item_totals(self) -> np.ndarray:
        """(n_items, K) aggregated noise per item; zero rows where unrated."""
        totals = np.zeros((len(self.item_ptr) - 1, self.K))
        rated = np.flatnonzero(np.diff(self.item_ptr))
        if len(rated):
            totals[rated] = np.add.reduceat(self.shares, self.item_ptr[rated], axis=0)
        return totals


# By-item slots whose c shares are drawn per vectorized call. Any value
# gives the same plan, since every draw depends only on its key. Blocks keep
# the Box-Muller temporaries (and, on the NumPy backend, the Philox counter
# and word arrays) under a megabyte for K = 10 instead of growing with nnz.
NOISE_BLOCK_SLOTS = 1024


def build_noise_plan(
    dataset: RatingDataset, K: int, delta: float, epsilon: float, master_seed: int
) -> NoisePlan:
    """Draw the run's noise shares, keyed so that neither item nor rater
    iteration order can change any draw.

    Both parts are keyed Philox draws (`rng.keyed_normal`,
    `rng.keyed_exponential`): h_j under purpose `noise-h` and key (j, 0);
    c_j^i under `noise-c` and key (j, i), so a share that survives a
    subset of the data keeps its draw and only its 1/sqrt(|raters(j)|)
    scale changes. Items with no raters get no entry.
    """
    if epsilon <= 0 or delta <= 0:
        raise ValueError("epsilon and delta must be > 0")
    ptr, order = dataset.by_item
    users_by_item = dataset.users[order]
    items_by_slot = dataset.items[order]
    counts = np.diff(ptr)
    rated = np.flatnonzero(counts)
    h = np.zeros((dataset.n_items, K))
    h[rated] = keyed_exponential(master_seed, "noise-h", rated, np.zeros_like(rated), K)
    basis = (2.0 * delta / epsilon) * np.sqrt(2.0 * K * h)
    sigma = np.zeros(dataset.n_items)
    sigma[rated] = 1.0 / np.sqrt(counts[rated])
    shares = np.empty((len(dataset), K))
    for s in range(0, len(dataset), NOISE_BLOCK_SLOTS):
        j = items_by_slot[s : s + NOISE_BLOCK_SLOTS]
        c = keyed_normal(master_seed, "noise-c", j, users_by_item[s : s + NOISE_BLOCK_SLOTS], K)
        shares[s : s + NOISE_BLOCK_SLOTS] = basis[j] * (sigma[j, None] * c)
    return NoisePlan(
        item_ptr=ptr,
        item_users=users_by_item,
        shares=shares,
        h=h,
        delta=delta,
        epsilon=epsilon,
        K=K,
    )
