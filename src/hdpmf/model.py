"""Latent-factor model: initialization, objective, schedule.

The private training objective is

    J = sum over observed (i, j) of (w_ij * r_ij - u_i . v_j)^2 + v_j . x_j^i
        + lam * (||U||_F^2 + ||V||_F^2)

where x_j^i are fixed noise shares drawn once per run; their sum x_j is
item j's Laplace-distributed noise. The update rule is one gradient step
on J per phase, with step size eta: the item phase, then the user phase,
each a Jacobi sweep,

    v_j <- v_j - eta (2 sum_i (u_i . v_j - w_ij r_ij) u_i + x_j + 2 lam v_j)
    u_i <- P(u_i - eta (2 sum_j (u_i . v_j - w_ij r_ij) v_j + 2 lam u_i))

for each item j with a rater (an item with none is not stepped) and every
user i, each sum over the rated pairs, the user step against the stepped
V. P projects onto the unit L2 ball, which the calibration of the noise
scale relies on. User gradients are noise-free because user vectors never
leave the device. Both kernels and the message engine compute this rule.
Its one reference is the scalar oracle in tests/oracles.py: the tests
check both kernels against it (the compiled one bit for bit), the message
engine's devices and recommender, and its gradients against finite
differences of J (`objective_value`).

What the noise covers, as reasoning rather than proof: with U fixed, T
item phases from a data-independent V_0 give

    v_j,T = M_T v_j,0 + L_T (2 b_j - x_j),    b_j = sum_i w_ij r_ij u_i,

where M_T and L_T depend only on U, j's raters, eta and lam
(tests/test_kernels.py checks this form on both kernels). So the released
V is post-processing of one Laplace-perturbed sum per item and keeps each
rating's budget w_ij * eps for any T. The channel through U is not
covered: u_i depends on r_ij and feeds every other item that i rated. The
objective-perturbation argument (Chaudhuri, Monteleoni and Sarwate, JMLR
2011) is about J's minimizer, which training at the default schedule
does not get near.

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
    loss trace and the tests' finite-difference check; training never
    needs it. Every sum is a NumPy reduction, not a BLAS product, whose
    summation order would follow the CPU kernel that OpenBLAS picks at
    load; so the loss trace does not depend on that pick.
    """
    preds = np.einsum("ik,ik->i", model.U[dataset.users], model.V[dataset.items])
    resid = train_vals - preds
    noise_term = float(np.einsum("jk,jk->", model.V, noise_totals))
    reg = model.lam * (float(np.sum(model.U * model.U)) + float(np.sum(model.V * model.V)))
    return float(np.einsum("i,i->", resid, resid)) + noise_term + reg
