"""Privacy machinery: weight allocation, stretching, noise calibration and
distributed noise composition.

Every rating (i, j) carries a privacy weight w_ij = beta_i * gamma_j in
(0, 1], giving it a personal budget w_ij * eps. Training sees the stretched
value w_ij * r_ij, and the item-side gradients are perturbed once per run
by per-item Laplace noise of scale b = 2*sqrt(K)*delta/eps, with delta the
dataset's declared rating range, assembled from per-device shares: rater i
of item j adds a unit normal draw c_j^i times the item's one scale
b * sqrt(2 h_j / |raters(j)|), with h_j a shared exponential vector.
Predictions divide by w_ij to undo the stretch (`protocol.predict_all`).

The recommender draws h_j, and given h_j each coordinate of an item's
noise total is N(0, 2 h_j b^2): the total is Laplace only averaged over
an h_j the adversary does not know. So the pure w_ij * eps bound holds
only against an adversary who does not know h_j, which the recommender
does.

The noise plan holds h and the scales, never the shares, and its K is the
width of those arrays. A unit draw is keyed, so whoever needs a share draws
it from its key. The kernel engine sums each item's unit draws a block at a
time and scales the sums once; each message-engine device draws its own
shares.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from ._fallback import _row_layout
from .data import RatingDataset
from .rng import NORMAL_BOUND, keyed_exponential, keyed_normal, keyed_uniform

if TYPE_CHECKING:  # config imports this module through baselines
    from .config import ExperimentConfig


@dataclass
class WeightAssignment:
    """Per-user and per-item privacy weights; w_ij = beta_i * gamma_j."""

    beta: np.ndarray  # (n_users,), values in (0, 1]
    gamma: np.ndarray  # (n_items,), values in (0, 1]

    def matrix_entries(self, users: np.ndarray, items: np.ndarray) -> np.ndarray:
        """w_ij for parallel (user, item) index arrays."""
        return self.beta[users] * self.gamma[items]


def _allocate_group_weights(
    count: int, f_con: float, f_mod: float,
    lo: float, mid: float, hi: float,
    master_seed: int, purpose: str,
) -> np.ndarray:
    """Order entities by their first keyed draw, fill the first
    floor(f_con * count) with values in [lo, mid) from their second draw,
    the next floor(f_mod * count) in [mid, hi), the rest with exactly hi.

    Entity e's two draws are the keyed uniforms of `purpose` under key
    (e, 0)."""
    n_con = int(math.floor(f_con * count))
    n_mod = int(math.floor(f_mod * count))
    u = keyed_uniform(master_seed, purpose, np.arange(count), np.full(count, 0), 2)
    perm = np.argsort(u[:, 0], kind="stable")
    con, mod = perm[:n_con], perm[n_con : n_con + n_mod]
    out = np.full(count, hi, dtype=np.float64)
    out[con] = lo + (mid - lo) * u[con, 1]
    out[mod] = mid + (hi - mid) * u[mod, 1]
    return out


def allocate_weights(cfg: ExperimentConfig, n_users: int, n_items: int, master_seed: int) -> WeightAssignment:
    """Randomly assign users and items to the privacy groups of `cfg` and
    draw weights.

    Deterministic in the master seed. Users and items draw under their own
    purposes (`user-weights`, `item-weights`), each entity from its own
    key, so a group is a rank of the entities' keyed draws, not a position
    in a sequential stream.
    """
    beta = _allocate_group_weights(
        n_users, cfg.f_uc, cfg.f_um, cfg.eps_uc, cfg.eps_um, cfg.eps_ul,
        master_seed, "user-weights",
    )
    gamma = _allocate_group_weights(
        n_items, cfg.f_ic, cfg.f_im, cfg.eps_ic, cfg.eps_im, cfg.eps_il,
        master_seed, "item-weights",
    )
    return WeightAssignment(beta, gamma)


class NoiseScaleError(ValueError):
    """A delta and budget whose noise scale is zero or would overflow."""


def laplace_scale(K: int, delta: float, epsilon: float) -> float:
    """Noise scale 2*sqrt(K)*delta/epsilon that the item factors need for
    the heterogeneous guarantee."""
    if K < 1:
        raise ValueError(f"K must be >= 1, got {K}")
    if not (delta > 0 and epsilon > 0):
        raise NoiseScaleError("delta and epsilon must be positive")
    return 2.0 * math.sqrt(K) * delta / epsilon


# By-item slots whose c shares are drawn per vectorized call: each block is
# one `rng.keyed_normal` call, one draw of uniforms and one in-place
# transform. Any value gives the same shares and totals, since every draw
# depends only on its key and each item is reduced within one block. Blocks
# keep the draws under a megabyte for K = 10 instead of growing with nnz;
# with them the NumPy backend's Philox and Box-Muller temporaries peak at
# about 3.3 MiB for 4,100 rows of K = 10 (`_fallback.PHILOX_CHUNK_BLOCKS`).
NOISE_BLOCK_SLOTS = 4096


@dataclass
class NoisePlan:
    """Once-per-run objective-perturbation noise, decomposed into shares.

    For every rated item j the recommender draws h_j ~ Exp(1)^K and each
    rater i contributes x_j^i = scale_j * c_j^i with c_j^i ~ N(0, 1)^K and
    scale_j = b * sqrt(2 h_j / |raters(j)|), b = 2*sqrt(K)*delta/eps with
    delta the dataset's declared rating range, so the per-item aggregate
    is Laplace of scale b per coordinate. That holds only over h: given
    h_j, each coordinate of the aggregate is N(0, 2 h_j b^2), so the pure
    w * eps bound holds only against an adversary who does not know h_j,
    and the recommender drew it.

    The plan holds no share, only h, the scales and the by-item layout
    (each item's slots sorted by user), so it costs O(n_items * K + nnz)
    memory, never nnz x K; c_j^i is the keyed normal of `noise-c` under
    key (j, i), drawn whenever a share is needed (`draw_shares`). K is the
    width of `h` and `scale`.
    """

    item_ptr: np.ndarray  # (n_items + 1,)
    item_users: np.ndarray  # (nnz,), user per slot
    h: np.ndarray  # (n_items, K); rows of unrated items stay zero
    scale: np.ndarray  # (n_items, K): b * sqrt(2 h_j / |raters(j)|), zero where unrated
    master_seed: int | None  # None: the noise-free plan, whose shares are zero

    @classmethod
    def zeros(cls, dataset: RatingDataset, K: int) -> "NoisePlan":
        """All-zero shares; the noise-free limit used by plain MF and
        reduction tests."""
        ptr, order = dataset.by_item
        return cls(
            item_ptr=ptr,
            item_users=dataset.users[order],
            h=np.zeros((dataset.n_items, K)),
            scale=np.zeros((dataset.n_items, K)),
            master_seed=None,
        )

    @property
    def K(self) -> int:
        """The width of the plan's arrays."""
        return self.h.shape[1]

    def draw_shares(self, items, users) -> np.ndarray:
        """The shares x_j^i = scale_j * c_j^i, shape (len(items), K), of
        parallel arrays of rated (item, user) pairs, in their order; each
        block of NOISE_BLOCK_SLOTS pairs is drawn and scaled in its rows.
        """
        items = np.asarray(items, dtype=np.int64)
        users = np.asarray(users, dtype=np.int64)
        if self.master_seed is None:
            return np.zeros((len(items), self.K))
        out = np.empty((len(items), self.K))
        for s in range(0, len(items), NOISE_BLOCK_SLOTS):
            block = slice(s, s + NOISE_BLOCK_SLOTS)
            c = keyed_normal(self.master_seed, "noise-c", items[block], users[block], self.K)
            np.multiply(c, self.scale.take(items[block], axis=0), out=out[block])
        return out

    @property
    def shares(self) -> np.ndarray:
        """Every share, (nnz, K), in by-item slot order, drawn anew on each
        access and not kept. The noise-free plan's is a read-only
        zero-stride view, which costs no nnz x K memory."""
        if self.master_seed is None:
            return np.broadcast_to(0.0, (len(self.item_users), self.K))
        items = np.repeat(np.arange(len(self.item_ptr) - 1), np.diff(self.item_ptr))
        return self.draw_shares(items, self.item_users)

    @cached_property
    def item_totals(self) -> np.ndarray:
        """(n_items, K) aggregated noise per item; zero rows where unrated.

        The unit draws c_j^i are drawn and summed a block of whole items at
        a time (about NOISE_BLOCK_SLOTS slots; an item with more raters is a
        block of its own), so no nnz x K array is ever held, and the sums
        are multiplied by `scale` once. Each item's sum is the bits that one
        `np.add.reduceat` over all the unit draws gives: its first draw plus
        NumPy's pairwise sum of the rest, which folds from 0.0 below 8 rows,
        keeps eight accumulators up to 128 and halves the rows above that.
        A fold in slot order differs from 3 raters on.
        """
        totals = np.zeros(self.h.shape)
        if self.master_seed is None:
            return totals
        rows, blocks, _ = _row_layout(np.asarray(self.item_ptr, np.int64).tobytes(), NOISE_BLOCK_SLOTS)
        for r0, r1, s, e, c0, c1, starts, counts in blocks:
            c = keyed_normal(self.master_seed, "noise-c", np.repeat(np.arange(r0, r1), counts),
                             self.item_users[s:e], self.K)
            if c1 > c0:
                totals[rows[c0:c1]] = np.add.reduceat(c, starts, axis=0)
        totals *= self.scale
        return totals


def build_noise_plan(dataset: RatingDataset, K: int, epsilon: float, master_seed: int) -> NoisePlan:
    """The run's noise plan: h_j for every rated item, and its scale
    b * sqrt(2 h_j / |raters(j)|) with b = `laplace_scale(K, dataset.delta,
    epsilon)`, calibrated to the dataset's declared rating range. Both are
    (n_items, K) arrays, whose width is the plan's K; items with no raters
    get zero rows.

    Both random parts are keyed Philox draws, so no iteration order can
    change a draw: h_j under purpose `noise-h` and key (j, 0), drawn here;
    c_j^i under `noise-c` and key (j, i), drawn when a share is needed. A
    share that survives a subset of the data keeps its unit draw; only its
    item's scale changes. Raises NoiseScaleError, before any share is
    drawn, where b is not > 0 or a share or an item total could overflow.
    """
    b = laplace_scale(K, dataset.delta, epsilon)
    ptr, order = dataset.by_item
    counts = np.diff(ptr)
    rated = np.flatnonzero(counts)
    h = np.zeros((dataset.n_items, K))
    h[rated] = keyed_exponential(master_seed, "noise-h", rated, np.zeros_like(rated), K)
    # item j's shares and total stay within b * NORMAL_BOUND * sqrt(2 h_j |raters(j)|)
    reach = NORMAL_BOUND * float(np.sqrt(2.0 * h.max(axis=1) * counts).max(initial=0.0))
    if not (b > 0 and b * reach < math.inf):
        raise NoiseScaleError(f"noise of scale {b!r} is zero or overflows")
    return NoisePlan(
        item_ptr=ptr,
        item_users=dataset.users[order],
        h=h,
        scale=b * np.sqrt(2.0 * h / np.maximum(counts, 1)[:, None]),
        master_seed=master_seed,
    )
