"""Latent-factor model: initialization, gradients, objective, schedule.

The private training objective is

    sum over observed (i, j) of (w_ij * r_ij - u_i . v_j)^2 + v_j . x_j^i
    + lam * (||U||_F^2 + ||V||_F^2)

where x_j^i are fixed noise shares drawn once per run. Item gradients carry
the aggregated noise; user gradients are noise-free because user vectors
never leave the device. User vectors are kept inside the unit L2 ball,
which the calibration of the noise scale relies on.

`item_gradient` and `user_gradient` are the one row-vectorized definition
of the gradients: the message engine's devices take their user step with
`user_gradient`, and the finite-difference tests check both against the
objective. The epoch kernels compute the same updates over CSR arrays.

The hyperparameters of a run (`k`, `epochs`, `eta0`, `lam`) are fields of
`config.ExperimentConfig`; the functions here take them as plain values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import RatingDataset
from .rng import keyed_uniform


@dataclass
class FactorModel:
    """User and item latent matrices (one row per entity)."""

    U: np.ndarray  # (n_users, K)
    V: np.ndarray  # (n_items, K)
    lam: float = 0.0


def init_model(n_users: int, n_items: int, K: int, master_seed: int, lam: float = 0.0) -> FactorModel:
    """Fresh model with i.i.d. uniform (0, 1/sqrt(K)) entries.

    Row i of U is the keyed `model-init` draw under key (i, 0) and row j of
    V the draw under key (j, 1), so each row depends only on its entity:
    V does not change with the number of users, nor U with the items. The
    bound makes every initial prediction at most 1 and every initial user
    vector lie inside the unit ball.
    """
    U = keyed_uniform(master_seed, "model-init", np.arange(n_users), np.full(n_users, 0), K)
    V = keyed_uniform(master_seed, "model-init", np.arange(n_items), np.full(n_items, 1), K)
    hi = 1.0 / np.sqrt(K)
    return FactorModel(hi * U, hi * V, lam)


def item_gradient(
    v_j: np.ndarray,
    raters_U: np.ndarray,
    wr: np.ndarray,
    noise: np.ndarray,
    lam: float,
) -> np.ndarray:
    """Gradient of the private objective w.r.t. v_j.

    `raters_U` holds the rows u_i of j's raters, `wr` their targets
    w_ij * r_ij in the same order, and `noise` the item's aggregated noise.
    """
    return 2.0 * ((raters_U @ v_j - wr) @ raters_U) + noise + 2.0 * lam * v_j


def user_gradient(u_i: np.ndarray, rated_V: np.ndarray, wr: np.ndarray, lam: float) -> np.ndarray:
    """Gradient of the private objective w.r.t. u_i (noise-free).

    `rated_V` holds the rows v_j of the items i rated and `wr` the targets
    w_ij * r_ij in the same order.
    """
    return 2.0 * ((rated_V @ u_i - wr) @ rated_V) + 2.0 * lam * u_i


def learning_rate(t: int, epochs: int, eta0: float) -> float:
    """Step size at 0-based epoch t: eta0 for the first quarter of the
    epochs, eta0/5 until three quarters, eta0/25 after."""
    if not 0 <= t < epochs:
        raise ValueError(f"epoch {t} outside [0, {epochs})")
    first = (epochs + 3) // 4  # ceil(epochs / 4)
    second = (3 * epochs + 3) // 4  # ceil(3 * epochs / 4)
    if t < first:
        return eta0
    if t < second:
        return eta0 / 5.0
    return eta0 / 25.0


def project_unit_ball(u: np.ndarray) -> np.ndarray:
    """Project onto the unit L2 ball; identity inside, rescale outside."""
    u = np.asarray(u, dtype=np.float64)
    norm = float(np.sqrt(u @ u))
    if norm <= 1.0:
        return u
    return u / norm


def objective_value(
    model: FactorModel,
    dataset: RatingDataset,
    train_vals: np.ndarray,
    noise_totals: np.ndarray,
) -> float:
    """The training objective of the module docstring for one model.

    `train_vals` are the regression targets in the dataset's entry order
    (w_ij * r_ij, or raw ratings for the unstretched methods);
    `noise_totals` holds each item's summed shares, since the share terms
    of the objective add up to v_j . sum_i x_j^i per item. Used by the
    loss trace and the gradient-check oracles; training never needs it.
    """
    preds = np.einsum("ik,ik->i", model.U[dataset.users], model.V[dataset.items])
    resid = train_vals - preds
    noise_term = float(np.einsum("jk,jk->", model.V, noise_totals))
    reg = model.lam * (float(np.sum(model.U * model.U)) + float(np.sum(model.V * model.V)))
    return float(resid @ resid) + noise_term + reg
