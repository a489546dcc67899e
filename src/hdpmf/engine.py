"""Batch training engine: the fast, reference-mode path through the epoch
kernel. The message-level protocol simulation in hdpmf.protocol computes
the same updates entity by entity; this engine is what experiments run.
"""

from __future__ import annotations

import numpy as np

from . import kernels
from .config import ExperimentConfig
from .data import RatingDataset
from .exceptions import DivergedRunError
from .model import FactorModel, init_model, learning_rate, objective_value


def fit(
    dataset: RatingDataset,
    train_vals: np.ndarray,
    noise_totals: np.ndarray,
    cfg: ExperimentConfig,
    seed: int,
    loss_log: list[float] | None = None,
) -> FactorModel:
    """Train a factor model on (possibly stretched) target values, with
    the `k`, `epochs`, `effective_eta0` and `lam` of `cfg` and the model
    initialization drawn from `seed`.

    `train_vals` are the per-entry regression targets in the dataset's
    canonical entry order (raw ratings for plain MF, w_ij * r_ij when
    stretching). `noise_totals` holds the fixed per-item noise vectors
    (zero rows for the noise-free limit). Each epoch is an item phase, then
    a user phase, each a Jacobi sweep: every step of a phase reads only the
    factors as they were when the phase began, so the result is a pure
    function of the inputs. User vectors are projected onto the unit ball
    after every user step.

    Raises DivergedRunError naming the first epoch that produced a
    non-finite factor.
    """
    train_vals = np.ascontiguousarray(train_vals, dtype=np.float64)
    if train_vals.shape != (len(dataset),):
        raise ValueError("train_vals must align with dataset entries")
    noise_totals = np.ascontiguousarray(noise_totals, dtype=np.float64)
    if noise_totals.shape != (dataset.n_items, cfg.k):
        raise ValueError(f"noise_totals must have shape ({dataset.n_items}, {cfg.k})")

    model = init_model(dataset.n_users, dataset.n_items, cfg.k, seed, cfg.lam)
    user_ptr, _ = dataset.by_user
    item_ptr, item_order = dataset.by_item
    item_users = np.ascontiguousarray(dataset.users[item_order])
    item_vals = np.ascontiguousarray(train_vals[item_order])

    for t in range(cfg.epochs):
        eta = learning_rate(t, cfg.epochs, cfg.effective_eta0)
        kernels.run_epoch(
            model.U, model.V,
            item_ptr, item_users, item_vals, noise_totals,
            user_ptr, dataset.items, train_vals,
            cfg.lam, eta, True,
        )
        if not (np.isfinite(model.U).all() and np.isfinite(model.V).all()):
            raise DivergedRunError(t)
        if loss_log is not None:
            loss_log.append(objective_value(model, dataset, train_vals, noise_totals))
    return model
