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
    GradientMessage,
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


class TestDeviceEmit:
    def test_hand_payload(self):
        dev = make_device([1.0, 0.0], {3: 4.0}, {3: 0.5})
        msg = dev.emit_gradient(3, np.array([0.5, 0.0]))
        assert msg.item_index == 3 and msg.sender == 0
        assert msg.payload.tolist() == [-3.0, 0.0]

    def test_noise_cancellation(self):
        u = np.array([1.0, 0.0])
        v = np.array([0.5, 0.0])
        residual_term = 2.0 * (u @ v - 2.0) * u
        dev = make_device(u, {1: 4.0}, {1: 0.5}, shares={1: -residual_term})
        msg = dev.emit_gradient(1, v)
        assert np.allclose(msg.payload, 0.0)

    def test_unrated_item_is_protocol_error(self):
        dev = make_device([1.0, 0.0], {0: 3.0}, {0: 1.0})
        with pytest.raises(ProtocolError):
            dev.emit_gradient(5, np.zeros(2))


class TestRecommenderUpdate:
    def test_zero_payloads_no_reg(self):
        state = RecommenderState(V=np.array([[0.4, 0.2]]), raters={0: np.array([0, 1])})
        msgs = [GradientMessage(0, 0, np.zeros(2)), GradientMessage(0, 1, np.zeros(2))]
        state.update_item(0, msgs, lam=0.0, eta=0.1)
        assert state.V[0].tolist() == [0.4, 0.2]

    def test_single_payload_step(self):
        state = RecommenderState(V=np.array([[1.0, 1.0]]), raters={0: np.array([0])})
        g = np.array([2.0, -4.0])
        state.update_item(0, [GradientMessage(0, 0, g)], lam=0.0, eta=0.5)
        assert state.V[0].tolist() == [0.0, 3.0]

    def test_missing_rater_rejected(self):
        state = RecommenderState(V=np.zeros((1, 2)), raters={0: np.array([0, 1])})
        with pytest.raises(ProtocolError):
            state.update_item(0, [GradientMessage(0, 0, np.zeros(2))], 0.0, 0.1)

    def test_duplicate_rater_rejected(self):
        state = RecommenderState(V=np.zeros((1, 2)), raters={0: np.array([0, 1])})
        msgs = [GradientMessage(0, 0, np.zeros(2)), GradientMessage(0, 0, np.zeros(2))]
        with pytest.raises(ProtocolError):
            state.update_item(0, msgs, 0.0, 0.1)

    def test_wrong_item_rejected(self):
        state = RecommenderState(V=np.zeros((2, 2)), raters={1: np.array([0])})
        with pytest.raises(ProtocolError):
            state.update_item(1, [GradientMessage(0, 0, np.zeros(2))], 0.0, 0.1)


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
        devices = {}
        for i in range(ds.n_users):
            rated = ds.users == i
            items = ds.items[rated]
            devices[i] = UserDevice(
                i,
                items,
                targets[rated],
                np.array([plan.share(i, int(j)) for j in items]).reshape(len(items), 3),
                model.U[i].copy(),
            )
        for j in range(ds.n_items):
            raters = ds.items == j
            if not raters.any():
                continue
            total = np.zeros(3)
            for i in ds.users[raters]:
                total += devices[int(i)].emit_gradient(j, model.V[j]).payload
            total += 2.0 * model.lam * model.V[j]
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
            ds, entry_w * ds.ratings,
            build_noise_plan(ds, 4, ds.delta, 1.0, 5).item_totals, cfg, 5,
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
        assert len(channel.gradient_log) == channel.n_gradient_messages
        for msg in channel.gradient_log:
            assert isinstance(msg.payload, np.ndarray)
            assert msg.payload.shape == (cfg.k,)
            assert msg.payload.dtype == np.float64

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
        for msg in channel.gradient_log:
            assert not (set(msg.payload.tolist()) & forbidden)


class TestPredictAll:
    def test_rescale_division(self):
        model = FactorModel(np.array([[0.6, 0.0]]), np.array([[1.0, 0.0]]), 2)
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
