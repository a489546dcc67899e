"""Protocol simulation: message correctness, aggregation equivalence with
the centralized gradients, engine agreement, and the information-flow
contract."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hdpmf.baselines import BaselineKind, method_inputs
from hdpmf.config import ExperimentConfig
from hdpmf.data import RatingDataset
from hdpmf.exceptions import ProtocolError
from hdpmf.model import FactorModel, init_model, item_gradient, user_gradient
from hdpmf.privacy import NoisePlan, WeightAssignment, allocate_weights, build_noise_plan
from hdpmf.protocol import (
    GradientUpload,
    MessageChannel,
    RecommenderState,
    UserDevice,
    _build_devices,
    predict_all,
    train,
)


def make_device(u, ratings, weights, shares=None):
    """Device 0 from {item: rating}, {item: weight} and {item: share};
    unlisted shares are zero."""
    u = np.asarray(u, dtype=float)
    items = sorted(ratings)
    shares = shares or {}
    return UserDevice(
        0,
        np.array(items, dtype=np.int64),
        np.array([weights[j] * ratings[j] for j in items]),
        np.array([shares.get(j, np.zeros_like(u)) for j in items]).reshape(len(items), len(u)),
        u,
    )


def make_state(V, raters):
    """A recommender holding V, with {item: ascending raters} as its
    registry."""
    V = np.asarray(V, dtype=float)
    counts = [len(raters.get(j, ())) for j in range(len(V))]
    ptr = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
    users = np.array([i for j in range(len(V)) for i in raters.get(j, ())], dtype=np.int64)
    return RecommenderState(V, ptr, users)


def upload(sender, rows):
    """An upload from {item: payload row}."""
    items = sorted(rows)
    return GradientUpload(
        sender, np.array(items, dtype=np.int64), np.array([rows[j] for j in items], dtype=float)
    )


class TestDeviceEmit:
    def test_hand_payload(self):
        dev = make_device([1.0, 0.0], {3: 4.0}, {3: 0.5})
        V = np.zeros((4, 2))
        V[3] = [0.5, 0.0]
        up = dev.emit_gradient(V)
        assert up.sender == 0 and up.items.tolist() == [3]
        assert up.payload.tolist() == [[-3.0, 0.0]]

    def test_noise_cancellation(self):
        u = np.array([1.0, 0.0])
        V = np.array([[0.0, 0.0], [0.5, 0.0]])
        residual_term = 2.0 * (u @ V[1] - 2.0) * u
        dev = make_device(u, {1: 4.0}, {1: 0.5}, shares={1: -residual_term})
        up = dev.emit_gradient(V)
        assert np.allclose(up.payload, 0.0)


class TestRecommenderUpdate:
    def test_zero_payloads_no_reg(self):
        state = make_state([[0.4, 0.2]], {0: [0, 1]})
        state.update_item([upload(0, {0: [0.0, 0.0]}), upload(1, {0: [0.0, 0.0]})], lam=0.0, eta=0.1)
        assert state.V[0].tolist() == [0.4, 0.2]

    def test_single_payload_step(self):
        state = make_state([[1.0, 1.0]], {0: [0]})
        state.update_item([upload(0, {0: [2.0, -4.0]})], lam=0.0, eta=0.5)
        assert state.V[0].tolist() == [0.0, 3.0]

    @staticmethod
    def _rejected(state, uploads):
        before = state.V.copy()
        with pytest.raises(ProtocolError):
            state.update_item(uploads, 0.0, 0.1)
        assert state.V.tobytes() == before.tobytes()

    def test_missing_rater_rejected(self):
        state = make_state([[0.1, 0.2]], {0: [0, 1]})
        self._rejected(state, [upload(0, {0: [1.0, 1.0]})])

    def test_duplicate_rater_rejected(self):
        state = make_state([[0.1, 0.2]], {0: [0, 1]})
        self._rejected(state, [upload(0, {0: [1.0, 1.0]}), upload(0, {0: [1.0, 1.0]})])

    def test_wrong_item_rejected(self):
        state = make_state([[0.1, 0.2], [0.3, 0.4]], {1: [0]})
        self._rejected(state, [upload(0, {0: [1.0, 1.0]})])

    def test_unregistered_item_rejected(self):
        # sender 0 rated item 0 only; a row for item 1 is an extra row even
        # though item 1 is rated by someone else
        state = make_state([[0.1, 0.2], [0.3, 0.4]], {0: [0], 1: [1]})
        self._rejected(
            state, [upload(0, {0: [1.0, 1.0], 1: [1.0, 1.0]}), upload(1, {1: [1.0, 1.0]})]
        )


class TestDeviceUpdateUser:
    def test_zero_residual_no_reg_unchanged(self):
        dev = make_device([0.5, 0.0], {0: 0.5}, {0: 1.0})
        V = np.array([[1.0, 0.0]])
        dev.update_user(V, lam=0.0, eta=0.1)
        assert dev.u.tolist() == [0.5, 0.0]

    def test_projection_applied(self):
        dev = make_device([1.0, 0.0], {0: 5.0}, {0: 1.0})
        V = np.array([[-10.0, 0.0]])
        dev.update_user(V, lam=0.0, eta=1.0)
        assert np.linalg.norm(dev.u) <= 1.0 + 1e-12

    def test_step_matches_centralized_user_gradient(self):
        from hdpmf.model import project_unit_ball

        rng = np.random.default_rng(3)
        K, m = 3, 6
        V = rng.normal(0, 0.5, (m, K))
        u = rng.normal(0, 0.3, K)
        ratings = {j: float(rng.uniform(1, 5)) for j in (0, 2, 5)}
        weights = {j: float(rng.uniform(0.1, 1)) for j in ratings}
        dev = make_device(u.copy(), ratings, weights)
        eta, lam = 0.05, 0.02
        dev.update_user(V, lam, eta)

        items = sorted(ratings)
        grad = user_gradient(u, V[items], np.array([weights[j] * ratings[j] for j in items]), lam)
        expected = project_unit_ball(u - eta * grad)
        assert np.allclose(dev.u, expected, rtol=1e-12, atol=1e-15)


class TestAggregationEquivalence:
    def test_payload_sum_matches_centralized_gradient(self, synth_factory):
        ds = synth_factory(n_users=12, n_items=10, mean_per_user=5, master_seed=21)
        weights = allocate_weights(ExperimentConfig(), ds.n_users, ds.n_items, master_seed=1)
        plan = build_noise_plan(ds, 3, ds.delta, 1.0, master_seed=1)
        model = init_model(ds.n_users, ds.n_items, 3, master_seed=1, lam=0.02)
        targets = weights.matrix_entries(ds.users, ds.items) * ds.ratings
        totals = np.zeros((ds.n_items, 3))
        for i in range(ds.n_users):
            rated = ds.users == i
            items = ds.items[rated]
            dev = UserDevice(
                i,
                items,
                targets[rated],
                np.array([plan.share(i, int(j)) for j in items]).reshape(len(items), 3),
                model.U[i].copy(),
            )
            up = dev.emit_gradient(model.V)
            assert up.items.tolist() == items.tolist()
            for j, row in zip(up.items, up.payload):
                totals[j] += row
        for j in range(ds.n_items):
            raters = ds.items == j
            if not raters.any():
                continue
            total = totals[j] + 2.0 * model.lam * model.V[j]
            central = item_gradient(
                model.V[j], model.U[ds.users[raters]], targets[raters], plan.item_totals[j], model.lam
            )
            assert np.allclose(total, central, rtol=1e-10, atol=1e-12)


@st.composite
def engine_cases(draw):
    """Small random rating matrices with any sparsity pattern (so items
    without raters and users without ratings occur), K from 1 to 4, one of
    the five methods and a master seed."""
    n_users = draw(st.integers(1, 6))
    n_items = draw(st.integers(1, 6))
    mask = np.array(draw(st.lists(st.booleans(), min_size=n_users * n_items,
                                  max_size=n_users * n_items))).reshape(n_users, n_items)
    seed = draw(st.integers(0, 2**32 - 1))
    users, items = np.nonzero(mask)
    ratings = np.random.default_rng(seed).integers(1, 6, size=len(users)).astype(np.float64)
    ds = RatingDataset(users, items, ratings, n_users, n_items, 1.0, 5.0)
    return ds, draw(st.integers(1, 4)), draw(st.sampled_from(list(BaselineKind))), seed


class TestDeviceConstruction:
    @settings(max_examples=40, deadline=None)
    @given(case=engine_cases())
    def test_devices_hold_their_ratings_and_shares(self, case):
        # engine agreement cannot see shares permuted among one item's
        # raters, since the item's sum is unchanged; this can
        ds, K, method, seed = case
        weights = allocate_weights(ExperimentConfig(), ds.n_users, ds.n_items, seed)
        train_set, entry_weights, plan = method_inputs(method, ds, weights, 1.0, K, seed)
        U0 = init_model(train_set.n_users, train_set.n_items, K, seed).U
        devices = _build_devices(train_set, entry_weights * train_set.ratings, plan, U0)
        assert len(devices) == train_set.n_users
        for i, dev in enumerate(devices):
            rated = train_set.users == i
            assert dev.user_index == i
            assert np.all(np.diff(dev.items) > 0)
            assert np.array_equal(dev.items, train_set.items[rated])
            assert np.array_equal(dev.wr, entry_weights[rated] * train_set.ratings[rated])
            assert dev.shares.shape == (len(dev.items), K)
            for row, j in zip(dev.shares, dev.items.tolist()):
                assert row.tobytes() == plan.share(i, j).tobytes()
            assert np.array_equal(dev.u, U0[i])


def item_phase(case):
    """The registry and one epoch's uploads for an engine case, from the
    model's initial V; None when nobody rated anything."""
    ds, K, method, seed = case
    weights = allocate_weights(ExperimentConfig(), ds.n_users, ds.n_items, seed)
    train_set, entry_weights, plan = method_inputs(method, ds, weights, 1.0, K, seed)
    if len(train_set) == 0:
        return None
    model = init_model(train_set.n_users, train_set.n_items, K, seed)
    devices = _build_devices(train_set, entry_weights * train_set.ratings, plan, model.U)
    uploads = [dev.emit_gradient(model.V) for dev in devices if len(dev.items)]
    return model.V, plan, uploads


class TestItemPhaseProperties:
    LAM, ETA = 0.01, 0.05

    @settings(max_examples=40, deadline=None)
    @given(case=engine_cases(), data=st.data())
    def test_any_delivery_order_gives_the_same_bits(self, case, data):
        phase = item_phase(case)
        if phase is None:
            return
        V0, plan, uploads = phase
        order = data.draw(st.permutations(range(len(uploads))))
        ends = []
        for batch in (uploads, [uploads[k] for k in order]):
            state = RecommenderState(V0.copy(), plan.item_ptr, plan.item_users)
            state.update_item(iter(batch), self.LAM, self.ETA)
            ends.append(state.V)
        # the reference: each item adds its rows one at a time in ascending
        # rater order, then takes its step
        expected = V0.copy()
        for j in np.flatnonzero(np.diff(plan.item_ptr)).tolist():
            grad = np.zeros(V0.shape[1])
            for up in uploads:  # ascending sender
                hit = np.flatnonzero(up.items == j)
                if len(hit):
                    grad += up.payload[hit[0]]
            grad += 2.0 * self.LAM * V0[j]
            expected[j] = V0[j] - self.ETA * grad
        assert ends[0].tobytes() == ends[1].tobytes() == expected.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(case=engine_cases(), data=st.data())
    def test_one_bad_row_is_rejected_and_v_kept(self, case, data):
        phase = item_phase(case)
        if phase is None:
            return
        V0, plan, uploads = phase
        k = data.draw(st.integers(0, len(uploads) - 1))
        up = uploads[k]
        r = data.draw(st.integers(0, len(up.items) - 1))
        kind = data.draw(st.sampled_from(["drop", "duplicate", "retarget"]))
        items, payload = up.items.copy(), up.payload.copy()
        if kind == "drop":
            items, payload = np.delete(items, r), np.delete(payload, r, axis=0)
        elif kind == "duplicate":
            items, payload = np.insert(items, r, items[r]), np.insert(payload, r, payload[r], axis=0)
        else:
            n_items = len(plan.item_ptr) - 1
            items[r] = data.draw(st.integers(-1, n_items).filter(lambda j: j != up.items[r]))
        uploads[k] = GradientUpload(up.sender, items, payload)
        state = RecommenderState(V0.copy(), plan.item_ptr, plan.item_users)
        with pytest.raises(ProtocolError):
            state.update_item(uploads, self.LAM, self.ETA)
        assert state.V.tobytes() == V0.tobytes()

    @settings(max_examples=30, deadline=None)
    @given(case=engine_cases(), epochs=st.integers(1, 3))
    def test_trace_item_lines_sum_to_nnz_times_epochs(self, case, epochs):
        import io

        ds, K, method, seed = case
        weights = allocate_weights(ExperimentConfig(), ds.n_users, ds.n_items, seed)
        inputs = method_inputs(method, ds, weights, 1.0, K, seed)
        cfg = ExperimentConfig(epochs=epochs, eta0=0.01, lam=0.01, k=K, engine="messages")
        buf, channel = io.StringIO(), MessageChannel()
        train(*inputs, cfg, seed, channel=channel, trace=buf)
        counts = [int(line.split(",")[3]) for line in buf.getvalue().splitlines()
                  if line.split(",")[1] == "item"]
        assert sum(counts) == len(inputs[0]) * epochs == channel.n_gradient_messages


class TestPlanAlignment:
    @pytest.mark.parametrize("engine", ["kernel", "messages"])
    @pytest.mark.parametrize("case", ["other-K", "subset"])
    def test_plan_for_other_ratings_rejected(self, synth_factory, engine, case):
        ds = synth_factory(n_users=10, n_items=8, mean_per_user=4, master_seed=53)
        cfg = ExperimentConfig(epochs=1, k=3, engine=engine)
        if case == "other-K":
            plan = build_noise_plan(ds, 1, ds.delta, 1.0, 0)
        else:
            plan = build_noise_plan(ds.subset(np.arange(len(ds)) % 2 == 0), 3, ds.delta, 1.0, 0)
        with pytest.raises(ValueError, match="noise plan"):
            train(ds, np.ones(len(ds)), plan, cfg, 0)


class TestKernelEngineTakesNoMessageArguments:
    """The kernel engine exchanges no messages, so a channel or trace
    handle given to it would stay empty; `train` refuses them."""

    @pytest.mark.parametrize("argument", ["channel", "trace"])
    def test_rejected_on_kernel_engine(self, tiny_dataset, argument):
        import io

        handle = MessageChannel() if argument == "channel" else io.StringIO()
        inputs = method_inputs(BaselineKind.HDPMF, tiny_dataset, WeightAssignment.uniform(5, 4), 1.0, 2, 0)
        with pytest.raises(ValueError, match="engine = messages"):
            train(*inputs, ExperimentConfig(epochs=1, k=2), 0, **{argument: handle})


class TestEngineAgreement:
    def test_message_and_kernel_engines_agree(self, synth_factory):
        ds = synth_factory(n_users=15, n_items=12, mean_per_user=6, master_seed=23)
        weights = allocate_weights(ExperimentConfig(), ds.n_users, ds.n_items, master_seed=2)
        cfg = ExperimentConfig(epochs=5, eta0=0.01, lam=0.01, k=4)
        inputs = method_inputs(BaselineKind.HDPMF, ds, weights, 1.0, cfg.k, 2)
        m_kernel = train(*inputs, cfg, 2)
        m_msg = train(*inputs, replace(cfg, engine="messages"), 2)
        assert np.allclose(m_kernel.V, m_msg.V, rtol=1e-9, atol=1e-12)
        assert np.allclose(m_kernel.U, m_msg.U, rtol=1e-9, atol=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(case=engine_cases())
    def test_engines_agree_for_every_method(self, case):
        ds, K, method, seed = case
        weights = allocate_weights(ExperimentConfig(), ds.n_users, ds.n_items, seed)
        cfg = ExperimentConfig(epochs=3, eta0=0.01, lam=0.01, k=K)
        inputs = method_inputs(method, ds, weights, 1.0, K, seed)
        m_kernel = train(*inputs, cfg, seed)
        m_msg = train(*inputs, replace(cfg, engine="messages"), seed)
        np.testing.assert_allclose(m_msg.V, m_kernel.V, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(m_msg.U, m_kernel.U, rtol=1e-9, atol=1e-12)
        for model in (m_kernel, m_msg):
            assert np.linalg.norm(model.U, axis=1).max() <= 1.0 + 1e-12


class TestReduction:
    def test_uniform_weights_zero_noise_reduces_to_mf(self, synth_factory):
        ds = synth_factory(n_users=25, n_items=20, mean_per_user=8, master_seed=29)
        cfg = ExperimentConfig(epochs=12, eta0=0.01, lam=0.01, k=3)
        uniform = WeightAssignment.uniform(ds.n_users, ds.n_items)
        mf_model = train(*method_inputs(BaselineKind.MF, ds, uniform, 1.0, cfg.k, 4), cfg, 4)
        hd_ds, hd_weights, _ = method_inputs(BaselineKind.HDPMF, ds, uniform, 1.0, cfg.k, 4)
        hd_model = train(hd_ds, hd_weights, NoisePlan.zeros(ds, cfg.k), cfg, 4)
        assert np.array_equal(mf_model.V, hd_model.V)
        assert np.array_equal(mf_model.U, hd_model.U)


class TestDeterminism:
    def test_same_seed_bitwise_identical(self, synth_factory):
        ds = synth_factory(n_users=20, n_items=18, mean_per_user=6, master_seed=31)
        weights = allocate_weights(ExperimentConfig(), ds.n_users, ds.n_items, master_seed=3)
        cfg = ExperimentConfig(epochs=8, eta0=0.005, lam=0.01, k=3)
        a = train(*method_inputs(BaselineKind.HDPMF, ds, weights, 1.0, cfg.k, 3), cfg, 3)
        b = train(*method_inputs(BaselineKind.HDPMF, ds, weights, 1.0, cfg.k, 3), cfg, 3)
        assert np.array_equal(a.V, b.V) and np.array_equal(a.U, b.U)


class TestProjectionInvariant:
    def test_user_norms_bounded_every_epoch(self, synth_factory, monkeypatch):
        ds = synth_factory(n_users=30, n_items=25, mean_per_user=8, master_seed=37)
        weights = allocate_weights(ExperimentConfig(), ds.n_users, ds.n_items, master_seed=5)
        from hdpmf import engine, kernels

        seen = []
        run_epoch = kernels.run_epoch

        def recording_epoch(U, *args, **kwargs):
            result = run_epoch(U, *args, **kwargs)
            seen.append(np.linalg.norm(U, axis=1).max())
            return result

        monkeypatch.setattr(kernels, "run_epoch", recording_epoch)
        cfg = ExperimentConfig(epochs=10, eta0=0.05, lam=0.01, k=4)
        entry_w = weights.matrix_entries(ds.users, ds.items)
        engine.fit(
            init_model(ds.n_users, ds.n_items, cfg.k, 5, cfg.lam), ds, entry_w * ds.ratings,
            build_noise_plan(ds, 4, ds.delta, 1.0, 5).item_totals, cfg,
        )
        assert len(seen) == 10
        assert max(seen) <= 1.0 + 1e-12


class TestInformationFlow:
    def test_only_k_vectors_cross_the_boundary(self, synth_factory):
        ds = synth_factory(n_users=20, n_items=20, mean_per_user=6, master_seed=41)
        weights = allocate_weights(ExperimentConfig(), ds.n_users, ds.n_items, master_seed=6)
        cfg = ExperimentConfig(epochs=3, eta0=0.005, lam=0.01, k=4, engine="messages")
        channel = MessageChannel(capture=True)
        inputs = method_inputs(BaselineKind.HDPMF, ds, weights, 1.0, cfg.k, 6)
        train(*inputs, cfg, 6, channel=channel)

        ptr, _ = ds.by_item
        rated_items = int(np.sum(np.diff(ptr) > 0))
        assert channel.n_registrations == len(ds)
        assert channel.n_gradient_messages == cfg.epochs * len(ds)
        assert channel.n_broadcasts == rated_items + cfg.epochs
        rows = [row for upload in channel.gradient_log for row in upload.payload]
        assert len(rows) == channel.n_gradient_messages
        assert all(len(upload.items) == len(upload.payload) for upload in channel.gradient_log)
        for row in rows:
            assert isinstance(row, np.ndarray)
            assert row.shape == (cfg.k,)
            assert row.dtype == np.float64

    def test_raw_ratings_never_appear_in_payloads(self):
        # ratings on a [100, 105] scale cannot coincide with gradient-scale
        # payload coordinates
        rng = np.random.default_rng(0)
        n, m = 12, 10
        users, items = np.meshgrid(np.arange(n), np.arange(m), indexing="ij")
        ratings = rng.integers(100, 106, size=n * m).astype(float)
        ds = RatingDataset(users.ravel(), items.ravel(), ratings, n, m, 100.0, 105.0)
        weights = allocate_weights(ExperimentConfig(), n, m, master_seed=7)
        cfg = ExperimentConfig(epochs=2, eta0=0.0001, lam=0.01, k=3, engine="messages")
        channel = MessageChannel(capture=True)
        inputs = method_inputs(BaselineKind.HDPMF, ds, weights, 1.0, cfg.k, 7)
        train(*inputs, cfg, 7, channel=channel)
        rating_values = set(ds.ratings.tolist())
        weight_values = {
            weights.weight(i, j) for i, j in zip(ds.users.tolist(), ds.items.tolist())
        }
        forbidden = rating_values | weight_values
        for upload in channel.gradient_log:
            for row in upload.payload:
                assert not (set(row.tolist()) & forbidden)


class TestPredictAll:
    def test_rescale_division(self):
        model = FactorModel(np.array([[0.6, 0.0]]), np.array([[1.0, 0.0]]))
        w = WeightAssignment(np.array([0.5]), np.array([1.0]))
        out = predict_all(model, w, [0], [0], 1.0, 5.0, rescale=True)
        assert out[0] == pytest.approx(1.2)

    def test_rescale_flag_irrelevant_for_unit_weights(self, synth_factory):
        ds = synth_factory(n_users=10, n_items=8, mean_per_user=4, master_seed=43)
        model = init_model(ds.n_users, ds.n_items, 3, master_seed=0)
        w = WeightAssignment.uniform(ds.n_users, ds.n_items)
        on = predict_all(model, w, ds.users, ds.items, 1.0, 5.0, rescale=True)
        off = predict_all(model, w, ds.users, ds.items, 1.0, 5.0, rescale=False)
        assert np.array_equal(on, off)

    def test_matches_scalar_rescale(self, synth_factory):
        ds = synth_factory(n_users=10, n_items=8, mean_per_user=4, master_seed=47)
        model = init_model(ds.n_users, ds.n_items, 3, master_seed=1)
        model.V *= 9.0  # force some predictions past the clamp bounds
        w = allocate_weights(ExperimentConfig(), ds.n_users, ds.n_items, master_seed=8)
        out = predict_all(model, w, ds.users, ds.items, 1.0, 5.0)
        for idx in range(len(ds)):
            i, j = int(ds.users[idx]), int(ds.items[idx])
            expected = np.clip(model.U[i] @ model.V[j] / w.weight(i, j), 1.0, 5.0)
            assert out[idx] == pytest.approx(expected, rel=1e-12)


class TestTrace:
    def test_trace_lines_schema(self, tiny_dataset, tmp_path):
        import io

        weights = WeightAssignment.uniform(5, 4)
        cfg = ExperimentConfig(epochs=2, eta0=0.01, lam=0.0, k=2, engine="messages")
        buf = io.StringIO()
        inputs = method_inputs(BaselineKind.HDPMF, tiny_dataset, weights, 1.0, cfg.k, 0)
        train(*inputs, cfg, 0, trace=buf)
        lines = buf.getvalue().strip().splitlines()
        # per epoch: one line per rated item plus one per user
        assert len(lines) == 2 * (4 + 5)
        epoch, kind, index, count, norm = lines[0].split(",")
        assert kind == "item" and int(epoch) == 0
        float(norm)  # parses
