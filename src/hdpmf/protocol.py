"""In-process simulation of the decentralized training protocol.

An untrusted recommender holds only the item factors and a per-item rater
registry. Ratings, privacy weights, user vectors, and raw noise shares live
on user devices and never cross the boundary: the only device-to-recommender
traffic is rater registration and per-item gradient messages whose payload
is a single K-vector (residual term plus the device's noise share).

The config's `engine` key picks how an epoch is computed; both engines run
it in the one training loop, `engine.run_epochs`:

* ``kernel`` — the batch engine (hdpmf.engine) computing the same
  per-entity updates over CSR arrays. This is the reference mode used by
  experiments.
* ``messages`` — explicit device/recommender objects exchanging
  GradientMessage values through a MessageChannel, used for protocol
  audits, traces, and tests. Only this path takes a channel or a trace.

A device holds arrays: its rated items in ascending order, their targets
w_ij * r_ij, its noise share for each, and its user vector `u`, which is
its row of the model's U and which it alone writes. Its message for item j
is the one rater's summand of `model.item_gradient`, and its user step
calls `model.user_gradient`, a vectorized sum over its rated items.

Both paths take the same per-entity steps from the same inputs. They sum
differently: the message path adds each rater's residual term plus noise
share in ascending rater order, while the kernels add the item's summed
noise after the residual sum, and each path reduces a user's sum in its
own order. So they agree to floating-point reduction order, not bit for
bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import IO

import numpy as np

from . import engine
from .config import ExperimentConfig
from .data import RatingDataset
from .exceptions import ProtocolError
from .model import FactorModel, init_model, project_unit_ball, user_gradient
from .privacy import NoisePlan, WeightAssignment


@dataclass
class GradientMessage:
    """One device's contribution to one item update."""

    item_index: int
    sender: int
    payload: np.ndarray  # (K,)


class MessageChannel:
    """Instrumented transport between devices and the recommender.

    Counts every message and, when capture is on, keeps the payloads so a
    test can audit exactly what crossed the boundary.
    """

    def __init__(self, capture: bool = False):
        self.capture = capture
        self.n_registrations = 0
        self.n_gradient_messages = 0
        self.n_broadcasts = 0  # recommender -> devices (V or h distribution)
        self.gradient_log: list[GradientMessage] = []

    def register_rater(self, user: int, item: int) -> None:
        self.n_registrations += 1

    def broadcast(self) -> None:
        self.n_broadcasts += 1

    def deliver_gradient(self, message: GradientMessage) -> GradientMessage:
        self.n_gradient_messages += 1
        if self.capture:
            self.gradient_log.append(
                GradientMessage(message.item_index, message.sender, message.payload.copy())
            )
        return message


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
    _row: dict[int, int] = field(init=False, repr=False)

    def __post_init__(self):
        self._row = {j: r for r, j in enumerate(self.items.tolist())}

    def emit_gradient(self, j: int, v_j: np.ndarray) -> GradientMessage:
        """Local item-gradient contribution plus this device's noise share:
        the one rater's summand of `model.item_gradient`."""
        r = self._row.get(j)
        if r is None:
            raise ProtocolError(f"device {self.user_index} asked to report on unrated item {j}")
        payload = 2.0 * (float(self.u @ v_j) - self.wr[r]) * self.u + self.shares[r]
        return GradientMessage(j, self.user_index, payload)

    def update_user(self, V: np.ndarray, lam: float, eta: float) -> float:
        """Local gradient step against the shared item factors, then
        projection onto the unit ball. Returns the gradient norm."""
        grad = user_gradient(self.u, V[self.items], self.wr, lam)
        self.u[:] = project_unit_ball(self.u - eta * grad)
        return float(np.sqrt(grad @ grad))


@dataclass
class RecommenderState:
    """What the untrusted recommender is allowed to hold."""

    V: np.ndarray
    raters: dict[int, np.ndarray]  # item -> ascending user indices (membership only)

    def update_item(self, j: int, messages: list[GradientMessage], lam: float, eta: float) -> np.ndarray:
        """Aggregate one message per registered rater and take the step.
        Returns the aggregated gradient (for traces)."""
        expected = self.raters.get(j)
        if expected is None or len(expected) == 0:
            raise ProtocolError(f"item {j} has no registered raters")
        senders = [m.sender for m in messages]
        if sorted(senders) != list(expected):
            raise ProtocolError(
                f"item {j}: expected one message from each of {len(expected)} raters, "
                f"got senders {sorted(senders)}"
            )
        grad = np.zeros(self.V.shape[1])
        for m in messages:
            if m.item_index != j:
                raise ProtocolError(f"message for item {m.item_index} delivered to item {j}")
            grad += m.payload
        grad += 2.0 * lam * self.V[j]
        self.V[j] = self.V[j] - eta * grad
        return grad


def _build_devices(
    dataset: RatingDataset, targets: np.ndarray, plan: NoisePlan, U: np.ndarray
) -> list[UserDevice]:
    """One device per user, holding views of its by-user CSR row of the
    entries, of `targets` (w_ij * r_ij) and of `U`: device i's `u` is row i
    of U. The plan's shares are in by-item slot order, so they are gathered
    into entry order through the inverse of the by-item permutation."""
    user_ptr, _ = dataset.by_user
    _, item_order = dataset.by_item
    slot = np.empty_like(item_order)
    slot[item_order] = np.arange(len(item_order))
    shares = plan.shares[slot]
    return [
        UserDevice(i, dataset.items[s:e], targets[s:e], shares[s:e], U[i])
        for i, (s, e) in enumerate(zip(user_ptr[:-1].tolist(), user_ptr[1:].tolist()))
    ]


def _train_messages(
    dataset: RatingDataset,
    targets: np.ndarray,
    plan: NoisePlan,
    cfg: ExperimentConfig,
    seed: int,
    channel: MessageChannel,
    trace: IO[str] | None,
    loss_log: list[float] | None,
) -> FactorModel:
    model = init_model(dataset.n_users, dataset.n_items, cfg.k, seed, cfg.lam)
    devices = _build_devices(dataset, targets, plan, model.U)
    # each rated item's slots of the plan, which train matched to the dataset
    rated = np.flatnonzero(np.diff(plan.item_ptr))
    raters = dict(zip(rated.tolist(), np.split(plan.item_users, plan.item_ptr[rated[1:]])))
    recommender = RecommenderState(V=model.V, raters=raters)
    for j, members in raters.items():
        channel.broadcast()  # h_j distribution to the rater set
        for i in members:
            channel.register_rater(int(i), j)

    def epoch(t: int, eta: float) -> None:
        for j, members in raters.items():
            v_ro = recommender.V[j].copy()
            v_ro.flags.writeable = False
            messages = [
                channel.deliver_gradient(devices[int(i)].emit_gradient(j, v_ro))
                for i in members
            ]
            grad = recommender.update_item(j, messages, cfg.lam, eta)
            if trace is not None:
                norm = float(np.sqrt(grad @ grad))
                trace.write(f"{t},item,{j},{len(messages)},{norm!r}\n")
        channel.broadcast()  # end-of-item-phase V distribution
        V_ro = recommender.V.copy()
        V_ro.flags.writeable = False
        for i, device in enumerate(devices):
            norm = device.update_user(V_ro, cfg.lam, eta)
            if trace is not None:
                trace.write(f"{t},user,{i},0,{norm!r}\n")

    return engine.run_epochs(model, epoch, dataset, targets, plan.item_totals, cfg, loss_log)


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
    `channel` or `trace` needs the messages engine, else ValueError.
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
    targets = entry_weights * dataset.ratings
    if cfg.engine == "messages":
        return _train_messages(
            dataset, targets, plan, cfg, seed,
            channel if channel is not None else MessageChannel(),
            trace, loss_log,
        )
    if channel is not None or trace is not None:
        raise ValueError("a message channel or trace needs engine = messages")
    return engine.fit(dataset, targets, plan.item_totals, cfg, seed, loss_log=loss_log)


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
    stretching; `rescale=False` gives the ablation variant.
    """
    users = np.asarray(users, dtype=np.int64)
    items = np.asarray(items, dtype=np.int64)
    raw = np.einsum("ik,ik->i", model.U[users], model.V[items])
    if rescale:
        w = weights.matrix_entries(users, items)
        if np.any(w <= 0):
            raise ValueError("privacy weights must be > 0")
        raw = raw / w
    return np.clip(raw, scale_min, scale_max)
