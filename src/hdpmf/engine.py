"""The training loop of both engines, and the batch engine.

`run_epochs` holds the learning-rate schedule, the divergence check and the
loss trace. `fit`, the batch engine that experiments run, calls
`kernels.run_epoch` in it; the message engine in hdpmf.protocol runs its
item and user phases in it.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from . import kernels
from .config import ExperimentConfig
from .data import RatingDataset
from .exceptions import DivergedRunError
from .model import FactorModel, init_model, learning_rate, objective_value


def run_epochs(
    model: FactorModel,
    epoch: Callable[[int, float], None],
    dataset: RatingDataset,
    targets: np.ndarray,
    noise_totals: np.ndarray | None,
    cfg: ExperimentConfig,
    loss_log: list[float] | None = None,
) -> FactorModel:
    """Call `epoch(t, eta)` for each of the `cfg.epochs` epochs, with eta
    from the schedule of `cfg.effective_eta0`; the epoch updates `model.U`
    and `model.V` in place.

    Overflow stays silent: the first epoch that leaves a non-finite factor
    raises DivergedRunError naming it. With a `loss_log`, the objective of
    the model on `targets` and `noise_totals` is appended after each epoch;
    only then are `noise_totals` read.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(cfg.epochs):
            epoch(t, learning_rate(t, cfg.epochs, cfg.effective_eta0))
            if not (np.isfinite(model.U).all() and np.isfinite(model.V).all()):
                raise DivergedRunError(t)
            if loss_log is not None:
                loss_log.append(objective_value(model, dataset, targets, noise_totals))
    return model


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
    after every user step. The loop is `run_epochs`, so the first epoch that
    leaves a non-finite factor raises DivergedRunError.
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

    def epoch(t: int, eta: float) -> None:
        kernels.run_epoch(
            model.U, model.V,
            item_ptr, item_users, item_vals, noise_totals,
            user_ptr, dataset.items, train_vals,
            cfg.lam, eta, True,
        )

    return run_epochs(model, epoch, dataset, train_vals, noise_totals, cfg, loss_log)
