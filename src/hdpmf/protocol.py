"""In-process simulation of the decentralized training protocol.

An untrusted recommender holds only the item factors and a per-item rater
registry. Ratings, privacy weights, user vectors, and raw noise shares live
on user devices and never cross the boundary: the only device-to-recommender
traffic is rater registration and, once per device per item phase, a
gradient upload whose rows are one K-vector per rated item (residual term
plus the device's noise share).

`train` draws the model and builds the loss-log hook once for either
engine; the config's `engine` key picks how an epoch is computed, and both
run it in the one training loop, `engine.run_epochs`:

* ``kernel`` — the batch engine (hdpmf.engine) computing the same
  per-entity updates over CSR arrays. This is the reference mode used by
  experiments.
* ``messages`` — explicit device/recommender objects exchanging
  GradientUpload values through a MessageChannel, which counts and audits
  them row by row, used for protocol audits, traces, and tests. Only this
  path takes a channel or a trace. Set-up traffic (a registration per
  rating, an h_j distribution per rated item) is counted from the plan.

A device holds arrays: its rated items in ascending order, their targets
w_ij * r_ij, its noise share for each, and its user vector `u`, which is
its row of the model's U and which it alone writes. Its upload's row for
item j is the one rater's summand of `model.item_gradient`, the residuals
of all its rows coming from one matrix-vector product, and its user step
calls `model.user_gradient`, a vectorized sum over its rated items. The
recommender checks that the rows it receives are its registry exactly and
folds the uploads in ascending sender order, whatever the delivery order.

Both paths take the same per-entity steps from the same inputs. They sum
differently: the message path adds each rater's residual term plus noise
share in ascending rater order, while the kernels add the item's summed
noise after the residual sum, and each path reduces a residual and a
user's sum in its own order. So they agree to floating-point reduction
order, not bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import IO, Callable, Iterable

import numpy as np

from . import engine
from .config import ExperimentConfig
from .data import RatingDataset, _stable_order
from .exceptions import ProtocolError
from .model import FactorModel, init_model, objective_value, project_unit_ball, user_gradient
from .privacy import NoisePlan, WeightAssignment


@dataclass
class GradientUpload:
    """One device's item-phase upload: a payload row for each rated item."""

    sender: int
    items: np.ndarray  # (n,) ascending
    payload: np.ndarray  # (n, K)


class MessageChannel:
    """Instrumented transport between devices and the recommender.

    Counts every gradient row and, when capture is on, keeps a copy of each
    upload so a test can audit exactly what crossed the boundary.
    """

    def __init__(self, capture: bool = False):
        self.capture = capture
        self.n_registrations = 0
        self.n_gradient_messages = 0
        self.n_broadcasts = 0  # recommender -> devices (V or h distribution)
        self.gradient_log: list[GradientUpload] = []

    def broadcast(self) -> None:
        self.n_broadcasts += 1

    def deliver_gradient(self, upload: GradientUpload) -> GradientUpload:
        self.n_gradient_messages += len(upload.items)
        if self.capture:
            self.gradient_log.append(
                GradientUpload(upload.sender, upload.items.copy(), upload.payload.copy())
            )
        return upload


@dataclass
class UserDevice:
    """Private per-user state: the rated items (ascending), their targets
    w_ij * r_ij, the device's noise share for each, and the user vector,
    which the user step overwrites in place."""

    user_index: int
    items: np.ndarray  # (n,)
    wr: np.ndarray  # (n,)
    shares: np.ndarray  # (n, K)
    u: np.ndarray

    def emit_gradient(self, V: np.ndarray) -> GradientUpload:
        """Local item-gradient contributions plus this device's noise
        shares: row r is the one rater's summand of `model.item_gradient`
        for item items[r]."""
        residual = V[self.items] @ self.u - self.wr
        payload = (2.0 * residual)[:, None] * self.u + self.shares
        return GradientUpload(self.user_index, self.items, payload)

    def update_user(self, V: np.ndarray, lam: float, eta: float) -> float:
        """Local gradient step against the shared item factors, then
        projection onto the unit ball. Returns the gradient norm."""
        grad = user_gradient(self.u, V[self.items], self.wr, lam)
        self.u[:] = project_unit_ball(self.u - eta * grad)
        return float(np.sqrt(grad @ grad))


@dataclass
class RecommenderState:
    """What the untrusted recommender is allowed to hold: the item factors
    and the rater registry, item j's registered raters being
    item_users[item_ptr[j]:item_ptr[j + 1]] in ascending order (membership
    only). `rated` lists the items with at least one rater, ascending."""

    V: np.ndarray
    item_ptr: np.ndarray  # (n_items + 1,)
    item_users: np.ndarray
    rated: np.ndarray = field(init=False, repr=False)
    # the registry by sender: each registered rater's items, ascending
    _registered: dict[int, np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        counts = np.diff(self.item_ptr)
        self.rated = np.flatnonzero(counts)
        by_user = _stable_order(self.item_users, int(self.item_users.max(initial=-1)) + 1)
        senders, starts = np.unique(self.item_users[by_user], return_index=True)
        slot_items = np.repeat(np.arange(len(counts)), counts)
        self._registered = dict(zip(senders.tolist(), np.split(slot_items[by_user], starts[1:])))

    def update_item(self, uploads: Iterable[GradientUpload], lam: float, eta: float) -> np.ndarray:
        """The item phase: take one upload from each registered rater, in
        any order, then step every rated item. Returns the rated items'
        aggregated gradients, in ascending item order (for traces).

        An upload must hold a row for exactly the items its sender
        registered, so the rows received are the registry exactly; a
        missing, duplicated, extra or wrong-item row raises ProtocolError
        and leaves V untouched. Uploads are folded in as they arrive, in
        ascending sender order, so each item sums its rows in ascending
        rater order; one that arrives early waits for the senders before it.
        """
        registered = self._registered
        senders = list(registered)  # ascending
        grad = np.zeros_like(self.V)
        pending: dict[int, GradientUpload] = {}
        folded = 0
        for upload in uploads:
            s = upload.sender
            if s not in registered:
                raise ProtocolError(f"upload from sender {s}, who registered no rating")
            if s in pending or folded == len(senders) or s < senders[folded]:
                raise ProtocolError(f"second upload from sender {s}")
            pending[s] = upload
            while folded < len(senders) and senders[folded] in pending:
                sender = senders[folded]
                ready, items = pending.pop(sender), registered[sender]
                if not (np.array_equal(ready.items, items)
                        and ready.payload.shape == (len(items), grad.shape[1])):
                    raise ProtocolError(
                        f"upload from sender {sender} does not hold one K-vector "
                        f"for each of the {len(items)} items it registered"
                    )
                # one addition per element, as a running `grad[j] += row` makes
                np.add.at(grad, items, ready.payload)
                folded += 1
        if folded < len(senders):
            raise ProtocolError(f"no upload from {len(senders) - folded} registered raters")
        g = grad[self.rated]
        g += 2.0 * lam * self.V[self.rated]
        self.V[self.rated] = self.V[self.rated] - eta * g
        return g


def _build_devices(
    dataset: RatingDataset, targets: np.ndarray, plan: NoisePlan, U: np.ndarray
) -> list[UserDevice]:
    """One device per user, holding views of its by-user CSR row of the
    entries, of `targets` (w_ij * r_ij) and of `U`: device i's `u` is row i
    of U. Each device's noise shares are drawn from their own (j, i) keys,
    as a device draws them in the protocol, given h_j: in entry order, a
    block at a time into one array whose rows the devices view
    (`NoisePlan.draw_shares`)."""
    user_ptr, _ = dataset.by_user
    shares = plan.draw_shares(dataset.items, dataset.users)
    return [
        UserDevice(i, dataset.items[s:e], targets[s:e], shares[s:e], U[i])
        for i, (s, e) in enumerate(zip(user_ptr[:-1].tolist(), user_ptr[1:].tolist()))
    ]


def _train_messages(
    model: FactorModel,
    dataset: RatingDataset,
    targets: np.ndarray,
    plan: NoisePlan,
    cfg: ExperimentConfig,
    channel: MessageChannel,
    trace: IO[str] | None,
    after_epoch: Callable[[], None] | None,
) -> FactorModel:
    devices = _build_devices(dataset, targets, plan, model.U)
    # the plan's by-item slots, which train matched to the dataset
    recommender = RecommenderState(model.V, plan.item_ptr, plan.item_users)
    rated = recommender.rated.tolist()
    counts = np.diff(plan.item_ptr)[recommender.rated].tolist()
    channel.n_registrations += len(plan.item_users)
    channel.n_broadcasts += len(rated)
    raters = [device for device in devices if len(device.items)]
    # devices read V through this; it changes only between the phases
    V_ro = recommender.V.view()
    V_ro.flags.writeable = False

    def epoch(t: int, eta: float) -> None:
        grad = recommender.update_item(
            (channel.deliver_gradient(device.emit_gradient(V_ro)) for device in raters),
            cfg.lam, eta,
        )
        if trace is not None:
            norms = np.sqrt(np.einsum("ij,ij->i", grad, grad)).tolist()
            trace.write("".join(
                f"{t},item,{j},{n},{norm!r}\n" for j, n, norm in zip(rated, counts, norms)
            ))
        channel.broadcast()  # end-of-item-phase V distribution
        for i, device in enumerate(devices):
            norm = device.update_user(V_ro, cfg.lam, eta)
            if trace is not None:
                trace.write(f"{t},user,{i},0,{norm!r}\n")

    return engine.run_epochs(model, epoch, cfg, after_epoch)


def train(
    dataset: RatingDataset,
    entry_weights: np.ndarray,
    plan: NoisePlan,
    cfg: ExperimentConfig,
    seed: int,
    channel: MessageChannel | None = None,
    trace: IO[str] | None = None,
    loss_log: list[float] | None = None,
) -> FactorModel:
    """Train with per-entry privacy weights and a fixed noise plan on the
    engine `cfg.engine` names, with the `k`, `epochs`, `effective_eta0`
    and `lam` of `cfg` and the model initialization drawn from `seed`.

    `entry_weights` aligns with the dataset's canonical entry order; pass
    ones to disable stretching. Every method trains here, from the inputs
    `baselines.method_inputs` gives it, so all share initialization,
    schedule, and the unit-ball projection of user vectors. The plan must
    be drawn for this dataset's ratings and `cfg.k`, else ValueError. A
    `channel` or `trace` needs the messages engine, else ValueError. A
    `loss_log` gets the training objective after each epoch.
    """
    entry_weights = np.ascontiguousarray(entry_weights, dtype=np.float64)
    if entry_weights.shape != (len(dataset),):
        raise ValueError("entry_weights must align with dataset entries")
    item_ptr, item_order = dataset.by_item
    if plan.K != cfg.k:
        raise ValueError(f"noise plan has K = {plan.K}, training uses K = {cfg.k}")
    if not (np.array_equal(plan.item_ptr, item_ptr)
            and np.array_equal(plan.item_users, dataset.users[item_order])):
        raise ValueError("noise plan was drawn for other ratings than the dataset's")
    if cfg.engine != "messages" and (channel is not None or trace is not None):
        raise ValueError("a message channel or trace needs engine = messages")
    targets = entry_weights * dataset.ratings
    model = init_model(dataset.n_users, dataset.n_items, cfg.k, seed, cfg.lam)

    def log_loss() -> None:  # the message engine sums the plan's noise only here
        loss_log.append(objective_value(model, dataset, targets, plan.item_totals))

    after_epoch = log_loss if loss_log is not None else None
    if cfg.engine == "messages":
        return _train_messages(
            model, dataset, targets, plan, cfg,
            channel if channel is not None else MessageChannel(),
            trace, after_epoch,
        )
    return engine.fit(model, dataset, targets, plan.item_totals, cfg, after_epoch)


def predict_all(
    model: FactorModel,
    weights: WeightAssignment,
    users: np.ndarray,
    items: np.ndarray,
    scale_min: float,
    scale_max: float,
    rescale: bool = True,
) -> np.ndarray:
    """Device-side predictions for (user, item) pairs, clamped to the
    rating scale.

    With `rescale`, raw inner products are divided by w_ij to undo
    stretching (a quotient past the float range is clamped like any other);
    `rescale=False` gives the ablation variant.
    """
    users = np.asarray(users, dtype=np.int64)
    items = np.asarray(items, dtype=np.int64)
    raw = np.einsum("ik,ik->i", model.U[users], model.V[items])
    if rescale:
        w = weights.matrix_entries(users, items)
        if np.any(w <= 0):
            raise ValueError("privacy weights must be > 0")
        with np.errstate(over="ignore"):
            raw = raw / w
    return np.clip(raw, scale_min, scale_max)
