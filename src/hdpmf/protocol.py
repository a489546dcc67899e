"""In-process simulation of the decentralized training protocol.

An untrusted recommender holds only the item factors and a per-item rater
registry. Ratings, privacy weights, user vectors, and raw noise shares live
on user devices and are never sent: the only device-to-recommender traffic
is rater registration and, once per device per item phase, a gradient
upload whose rows are one K-vector per rated item (residual term plus the
device's noise share). Never being sent them is not the same as never
learning them: a device adds the same noise share to its row for an item
in every epoch, so the recommender, which computes V, can solve a few
epochs' uploads for the stretched ratings w_ij * r_ij. Objective
perturbation protects the trained factors, not the per-epoch uploads.

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
  rating, an h_j distribution per rated item) is counted from the
  devices' registrations, which are the recommender's registry.

`UserDevices` simulates every device at once, as one array pass per phase.
It holds each device's private state in the by-user CSR order: its rated
items in ascending order, their targets w_ij * r_ij, its noise share for
each, and its user vector, its row of the model's U. Each device's results
read only its own rows and the broadcast V. An item phase computes every
payload row, the one rater's summand of the item gradient, in one
pass and hands out one upload per device, which holds that device's rows
only; a user phase steps every user's vector and projects it onto the unit
ball. Each device has one upload for the whole run, built with the
devices: its items and payload are read-only views of the device's items
and of its rows of the payload buffer that every item phase refills, so a
payload holds the current item phase's rows until the next item phase.
The user phase gathers into its own buffer, so no upload ever reads U.
The channel counts, and with capture on copies, every row of every
upload. Apart from the registrations, which it holds as
read-only views, the recommender reads only the uploads it is given, in
three passes: it receives them, rejecting an unregistered sender or a
second upload in arrival order; it checks that every registered rater
sent one, then, in one pass in ascending sender order, that each is an
integer item array and a real floating payload of its registered size,
then that the rows are its registry exactly; then it receives the rows
row-major in that order, whatever the delivery order, and folds them in
one `np.bincount` over each value's (item, coordinate) cell, so each item
adds its raters' rows one at a time in ascending rater order.

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
from .data import RatingDataset
from .exceptions import ProtocolError
from .model import FactorModel, init_model, objective_value
from .privacy import NoisePlan, WeightAssignment


@dataclass(frozen=True, slots=True)
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

    def deliver_gradient(self, upload: GradientUpload) -> GradientUpload:
        self.n_gradient_messages += len(upload.items)
        if self.capture:
            self.gradient_log.append(
                GradientUpload(upload.sender, upload.items.copy(), upload.payload.copy())
            )
        return upload


@dataclass
class UserDevices:
    """Every device's private state: device i holds entries
    ptr[i]:ptr[i + 1] of `items` (its rated items, ascending), of `wr`
    (their targets w_ij * r_ij) and of `shares` (its noise share for each),
    and row i of `U`, its user vector, which only its own user step
    writes."""

    ptr: np.ndarray  # (n_users + 1,)
    items: np.ndarray  # (nnz,)
    wr: np.ndarray  # (nnz,)
    shares: np.ndarray  # (nnz, K)
    U: np.ndarray  # (n_users, K)
    _owner: np.ndarray = field(init=False, repr=False)  # each entry's user
    _rated: np.ndarray = field(init=False, repr=False)  # users with a rating
    # (nnz, K) buffers that every phase reuses, since a fresh array of this
    # size is mapped and faulted in anew each time: the entries' rows of V;
    # the payload, which the item phase gathers their rows of U into; and
    # the user phase's own gather of those rows, so that no upload reads U
    _rows: np.ndarray = field(init=False, repr=False)
    _payload: np.ndarray = field(init=False, repr=False)
    _own: np.ndarray = field(init=False, repr=False)
    # each rated device's one upload of the run, in ascending sender order:
    # read-only views of its items and of its rows of the payload buffer
    _uploads: list[GradientUpload] = field(init=False, repr=False)

    def __post_init__(self):
        if not (len(self.ptr) == len(self.U) + 1 and self.ptr[-1] == len(self.items) == len(self.wr)
                and self.shares.shape == (len(self.items), self.U.shape[1])):
            raise ValueError("device arrays do not align with ptr and U")
        if len(self.items) and self.items.min() < 0:
            raise ValueError("item indices must be >= 0")
        counts = np.diff(self.ptr)
        self._owner = np.repeat(np.arange(len(counts)), counts)
        self._rated = np.flatnonzero(counts)
        self._rows, self._payload, self._own = (np.empty(self.shares.shape) for _ in range(3))
        items, payload = self.items.view(), self._payload.view()
        items.flags.writeable = payload.flags.writeable = False
        self._uploads = [
            GradientUpload(i, items[s:e], payload[s:e])
            for i, s, e in zip(self._rated.tolist(), self.ptr[self._rated].tolist(),
                               self.ptr[self._rated + 1].tolist())
        ]

    @classmethod
    def from_dataset(
        cls, dataset: RatingDataset, targets: np.ndarray, plan: NoisePlan, U: np.ndarray
    ) -> "UserDevices":
        """The devices of `dataset`'s users, holding `targets` (w_ij * r_ij,
        in entry order) and writing `U`. Each device's noise share for
        item j is its unit draw c_j^i, from its own (j, i) key, times the
        item's scale, as a device draws it in the protocol given h_j
        (`NoisePlan.draw_shares`)."""
        user_ptr, _ = dataset.by_user
        return cls(user_ptr, dataset.items, targets, plan.draw_shares(dataset.items, dataset.users), U)

    def _residuals(self, V: np.ndarray, own: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The entries' rows of V and of U, gathered into `_rows` and `own`,
        and u_i . v_j - w_ij * r_ij for every entry."""
        if len(self.items) and self.items.max() >= len(V):
            raise IndexError(f"an item index exceeds V's {len(V)} rows")
        # "clip" gathers straight into the buffer, where "raise" would copy
        # through a temporary; the indices are in range
        rows = V.take(self.items, axis=0, out=self._rows, mode="clip")
        own = self.U.take(self._owner, axis=0, out=own, mode="clip")
        residual = np.einsum("pk,pk->p", rows, own)
        residual -= self.wr
        return rows, own, residual

    def emit_gradient(self, V: np.ndarray) -> list[GradientUpload]:
        """Every device's upload, in ascending sender order, from each
        device with a rating: row r of device i's payload is its summand
        2(u_i . v_j - w_ij r_ij) u_i + x_j^i of the gradient of item
        j = items[r] (the rule is stated in `hdpmf.model`).

        Each device has one upload for the whole run, and every call
        refills it and returns the same objects in a new list. An upload's
        items and payload are read-only views of the device's rows; the
        payloads stay valid until the next item phase refills them."""
        _, payload, residual = self._residuals(V, self._payload)
        residual *= 2.0
        payload *= residual[:, None]
        payload += self.shares
        return self._uploads.copy()

    def update_user(self, V: np.ndarray, lam: float, eta: float) -> np.ndarray:
        """Every device's local gradient step against the shared item
        factors, then projection onto the unit ball; a user with no rating
        takes the regularization step alone. Returns each user's gradient
        norm."""
        rows, _, residual = self._residuals(V, self._own)
        rows *= residual[:, None]
        grad = 2.0 * lam * self.U
        if len(self._rated):
            # only the rated users' segments: reduceat gives an empty one
            # the next row instead of zero
            grad[self._rated] += 2.0 * np.add.reduceat(rows, self.ptr[self._rated], axis=0)
        U = self.U
        U -= eta * grad
        sq = np.einsum("ik,ik->i", U, U)
        out = sq > 1.0
        U[out] /= np.sqrt(sq[out])[:, None]
        return np.sqrt(np.einsum("ik,ik->i", grad, grad))


# `perfbench` binds the device methods through this name
UserDevice = UserDevices


@dataclass
class RecommenderState:
    """What the untrusted recommender is allowed to hold: the item factors
    and the rater registry as the devices registered it, sender i's items
    being sender_items[sender_ptr[i]:sender_ptr[i + 1]] in ascending order
    (membership only). `rated` lists the items with at least one rater,
    ascending, and `n_raters` how many each has."""

    V: np.ndarray
    sender_ptr: np.ndarray  # (n_senders + 1,)
    sender_items: np.ndarray  # (n_registrations,)
    rated: np.ndarray = field(init=False, repr=False)
    n_raters: np.ndarray = field(init=False, repr=False)
    # the registered raters, ascending, each with the shapes of the item
    # array and payload of its n items, (n,) and (n, K)
    _forms: list[tuple[int, tuple[int], tuple[int, int]]] = field(init=False, repr=False)
    _registered: frozenset[int] = field(init=False, repr=False)
    # (n_registrations, K): the received payloads, row-major as they
    # arrive, reused by every item phase; then each value's cell of the
    # flat (len(rated), K) gradient, K times its item's index in `rated`
    # plus its coordinate
    _payload: np.ndarray = field(init=False, repr=False)
    _cells: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.rated, slots, self.n_raters = np.unique(self.sender_items, return_inverse=True, return_counts=True)
        counts = np.diff(self.sender_ptr)
        senders = np.flatnonzero(counts)
        self._registered = frozenset(senders.tolist())
        K = self.V.shape[1]
        self._forms = [(s, (n,), (n, K)) for s, n in zip(senders.tolist(), counts[senders].tolist())]
        self._payload = np.empty((len(self.sender_items), K))
        self._cells = (slots[:, None] * K + np.arange(K)).ravel()

    def _misfit(self, s: int) -> ProtocolError:
        n = int(self.sender_ptr[s + 1] - self.sender_ptr[s])
        return ProtocolError(
            f"upload from sender {s} does not hold one K-vector "
            f"for each of the {n} items it registered"
        )

    def update_item(self, uploads: Iterable[GradientUpload], lam: float, eta: float) -> np.ndarray:
        """The item phase: take one upload from each registered rater, in
        any order, then step every rated item. Returns the rated items'
        aggregated gradients, in ascending item order (for traces).

        An upload must hold an integer item array and a real floating
        payload with a row for exactly the items its sender registered, so
        the rows received are the registry exactly. Any other upload raises
        ProtocolError and leaves V untouched. The checks run in this order:
        an unregistered sender or a second upload from one sender, in
        arrival order; then registered raters that sent nothing; then an
        upload of the wrong shape or type, in ascending sender order; then a
        row for an item its sender did not register, naming the first such
        sender.

        The rows are folded in ascending sender order, whatever the
        delivery order, in one `np.bincount` over every value's (item,
        coordinate) cell. It adds each cell's values one at a time in
        input order, starting from zero, so each item sums its raters'
        rows in ascending rater order. `np.add.reduceat` would change the
        bits from 3 rows on: it adds a segment's first row to NumPy's
        pairwise sum of the rest, which folds from 0.0 below 8 rows, keeps
        eight accumulators up to 128 and halves the rows above that.
        `np.sum` over a coordinate's rows is that pairwise sum, so it can
        differ from 8 rows on.
        """
        registered = self._registered
        received: dict[int, GradientUpload] = {}
        for upload in uploads:
            s = upload.sender
            if s not in registered:
                raise ProtocolError(f"upload from sender {s}, who registered no rating")
            if s in received:
                raise ProtocolError(f"second upload from sender {s}")
            received[s] = upload
        if len(received) < len(registered):
            raise ProtocolError(f"no upload from {len(registered) - len(received)} registered raters")
        items, payloads = [], []
        ndarray = np.ndarray
        for s, row, block in self._forms:
            upload = received[s]
            a, p = upload.items, upload.payload
            if not (isinstance(a, ndarray) and a.dtype.kind in "iu" and a.shape == row
                    and isinstance(p, ndarray) and p.dtype.kind == "f" and p.shape == block):
                raise self._misfit(s)
            items.append(a)
            payloads.append(p)
        if items:
            wrong = np.flatnonzero(np.concatenate(items) != self.sender_items)
            if len(wrong):
                raise self._misfit(int(np.searchsorted(self.sender_ptr, wrong[0], side="right")) - 1)
            np.concatenate(payloads, out=self._payload)
        rows = self.V[self.rated]
        # 2 lam V first: with no registration, bincount returns int64
        g = 2.0 * lam * rows
        g += np.bincount(self._cells, weights=self._payload.ravel(), minlength=g.size).reshape(g.shape)
        self.V[self.rated] = rows - eta * g
        return g


# the first line of a message trace; `_train_messages` writes the rest
TRACE_HEADER = "# epoch,kind,index,message_count,gradient_norm\n"


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
    devices = UserDevices.from_dataset(dataset, targets, plan, model.U)
    # each side reads the other's arrays through read-only views: the
    # recommender the devices' registrations, the devices V, which changes
    # only between the phases
    sender_ptr, sender_items, V_ro = devices.ptr.view(), devices.items.view(), model.V.view()
    sender_ptr.flags.writeable = sender_items.flags.writeable = V_ro.flags.writeable = False
    recommender = RecommenderState(model.V, sender_ptr, sender_items)
    # every trace line of an epoch but its epoch number, the item phase's
    # then the user phase's: ",item,{j},{raters}," or ",user,{i},0,"
    rated = zip(recommender.rated.tolist(), recommender.n_raters.tolist())
    lines = [f",item,{j},{n}," for j, n in rated] + [f",user,{i},0," for i in range(dataset.n_users)]
    channel.n_registrations += len(sender_items)
    channel.n_broadcasts += len(recommender.rated)

    def epoch(t: int, eta: float) -> None:
        grad = recommender.update_item(
            map(channel.deliver_gradient, devices.emit_gradient(V_ro)), cfg.lam, eta
        )
        channel.n_broadcasts += 1  # end-of-item-phase V distribution
        user_norms = devices.update_user(V_ro, cfg.lam, eta)
        if trace is not None:
            norms = np.concatenate((np.sqrt(np.einsum("ij,ij->i", grad, grad)), user_norms)).tolist()
            ts = str(t)
            trace.write("".join([f"{ts}{line}{norm!r}\n" for line, norm in zip(lines, norms)]))

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
    engine `cfg.engine` names, with the `k`, `epochs`, `eta0` and `lam`
    of `cfg` and the model initialization drawn from `seed`.

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
    return engine.fit(model, dataset, targets, plan, cfg, after_epoch)


def predict_all(
    model: FactorModel,
    weights: WeightAssignment | None,
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
    `rescale=False` gives the ablation variant, and reads no weights (they
    may be None).
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
