"""The training loop of both engines, and the batch engine's epoch.

`run_epochs` holds the learning-rate schedule and the divergence check.
`fit`, the batch engine that experiments run, calls `kernels.run_epoch` in
it; the message engine in hdpmf.protocol runs its item and user phases in
it. `protocol.train` draws the model and builds the loss hook for both.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from . import kernels
from .config import ExperimentConfig
from .data import RatingDataset
from .exceptions import DivergedRunError
from .model import FactorModel, learning_rate
from .privacy import NoisePlan


def run_epochs(
    model: FactorModel,
    epoch: Callable[[int, float], None],
    cfg: ExperimentConfig,
    after_epoch: Callable[[], None] | None = None,
) -> FactorModel:
    """Call `epoch(t, eta)` for each of the `cfg.epochs` epochs, with eta
    from the schedule of `cfg.eta0`; the epoch updates `model.U`
    and `model.V` in place.

    Overflow stays silent: the first epoch that leaves a non-finite factor
    raises DivergedRunError naming it. `after_epoch`, if given, is called
    after each epoch that stays finite (the loss trace).
    """
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(cfg.epochs):
            epoch(t, learning_rate(t, cfg.epochs, cfg.eta0))
            if not (np.isfinite(model.U).all() and np.isfinite(model.V).all()):
                raise DivergedRunError(t)
            if after_epoch is not None:
                after_epoch()
    return model


def fit(
    model: FactorModel,
    dataset: RatingDataset,
    train_vals: np.ndarray,
    plan: NoisePlan,
    cfg: ExperimentConfig,
    after_epoch: Callable[[], None] | None = None,
) -> FactorModel:
    """Train `model` in place on (possibly stretched) target values, with
    the `epochs`, `eta0` and `lam` of `cfg`.

    `train_vals` are the per-entry regression targets in the dataset's
    canonical entry order (raw ratings for plain MF, w_ij * r_ij when
    stretching). `plan` is the run's noise plan, which `protocol.train`
    has checked against the dataset: the item phase reads its by-item
    layout, and its `item_totals` as the fixed per-item noise vectors (zero
    rows for the noise-free plan). Each epoch is an item phase, then a user
    phase, each a Jacobi sweep: every step of a phase reads only the
    factors as they were when the phase began, so the result is a pure
    function of the inputs. User vectors are projected onto the unit ball
    after every user step. The loop is `run_epochs`, so the first epoch that
    leaves a non-finite factor raises DivergedRunError.
    """
    user_ptr, _ = dataset.by_user
    _, item_order = dataset.by_item
    item_vals = train_vals[item_order]
    noise_totals = plan.item_totals

    def epoch(t: int, eta: float) -> None:
        kernels.run_epoch(
            model.U, model.V,
            plan.item_ptr, plan.item_users, item_vals, noise_totals,
            user_ptr, dataset.items, train_vals,
            cfg.lam, eta, True,
        )

    return run_epochs(model, epoch, cfg, after_epoch)
