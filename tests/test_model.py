"""Model operations: init, predictions, objective and schedule; the
oracle's gradients and projection (oracles.py) by hand, and its gradients
against finite differences of the objective."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hdpmf.model import FactorModel, init_model, learning_rate, objective_value
from hdpmf.privacy import NoisePlan, WeightAssignment, build_noise_plan
from hdpmf.protocol import predict_all
from oracles import fd_gradient_error, item_gradients, random_instance, user_gradients, user_step


class TestInit:
    def test_entries_in_range(self):
        m = init_model(1, 1, 1, master_seed=3)
        assert m.U.shape == (1, 1) and m.V.shape == (1, 1)
        assert 0.0 <= m.U[0, 0] <= 1.0 and 0.0 <= m.V[0, 0] <= 1.0

    def test_deterministic(self):
        a = init_model(20, 30, 5, master_seed=9)
        b = init_model(20, 30, 5, master_seed=9)
        assert np.array_equal(a.U, b.U) and np.array_equal(a.V, b.V)

    def test_user_norms_inside_unit_ball_at_ml_scale(self):
        m = init_model(943, 1682, 10, master_seed=0)
        norms = np.linalg.norm(m.U, axis=1)
        assert norms.max() <= 1.0

    def test_different_seeds_differ(self):
        a = init_model(4, 4, 2, master_seed=0)
        b = init_model(4, 4, 2, master_seed=1)
        assert not np.array_equal(a.U, b.U)


def _raw(m):
    """The unrescaled prediction u_0 . v_0, clamped only far outside it."""
    return predict_all(m, WeightAssignment(np.ones(1), np.ones(1)), [0], [0], -10.0, 10.0, rescale=False)[0]


class TestPredictRaw:
    def test_hand_inner_product(self):
        m = FactorModel(np.array([[1.0, 0.0]]), np.array([[0.5, 0.0]]))
        assert _raw(m) == 0.5

    def test_zero_vector(self):
        m = FactorModel(np.zeros((1, 2)), np.array([[0.7, -0.3]]))
        assert _raw(m) == 0.0

    def test_unit_pair(self):
        m = FactorModel(np.array([[0.6, 0.8]]), np.array([[0.6, 0.8]]))
        assert _raw(m) == pytest.approx(1.0)


class TestGradients:
    # for one rating of target 2 with u = (1, 0) and v = (0.5, 0), both
    # gradients are 2 (0.5 - 2) (1, 0)
    def test_item_gradient_single_rater(self):
        g = item_gradients(np.array([[1.0, 0.0]]), np.array([[0.5, 0.0]]), np.array([0, 1]), np.array([0]),
                           np.array([2.0]), np.zeros((1, 2)), 0.0)
        assert g == {0: [-3.0, 0.0]}

    def test_item_gradient_no_raters(self):
        # item 0 has no rater, so no gradient: it is never stepped
        g = item_gradients(np.zeros((1, 2)), np.array([[0.5, 0.0], [0.5, 0.0]]), np.array([0, 0, 1]),
                           np.array([0]), np.array([2.0]), np.ones((2, 2)), 0.1)
        assert list(g) == [1]

    def test_user_gradient_single_item(self):
        g = user_gradients(np.array([[0.5, 0.0]]), np.array([[1.0, 0.0]]), np.array([0, 1]), np.array([0]),
                           np.array([2.0]), 0.0)
        assert g == [[-3.0, 0.0]]

    def test_user_gradient_regularization_only(self):
        u = np.array([0.3, -0.4])
        # zero residual: wr equals the current prediction
        g = user_gradients(u[None], np.array([[1.0, 0.0]]), np.array([0, 1]), np.array([0]), np.array([0.3]), 1.0)
        assert g[0] == pytest.approx(2.0 * u)


def _random_instance(seed, K):
    ds, model, weights = random_instance(np.random.default_rng(seed), K)
    return ds, model, weights, build_noise_plan(ds, K, 1.0, int(seed))


@pytest.mark.parametrize("seed,K", [(s, k) for s in range(4) for k in (1, 2, 5)])
def test_gradients_match_finite_differences(seed, K):
    ds, model, weights, plan = _random_instance(seed, K)
    targets = weights.matrix_entries(ds.users, ds.items) * ds.ratings
    assert fd_gradient_error(model, ds, targets, plan.item_totals) <= 1e-5


def _objective(model, ds, weights, plan):
    targets = weights.matrix_entries(ds.users, ds.items) * ds.ratings
    return objective_value(model, ds, targets, plan.item_totals)


class TestObjective:
    def test_zero_model_zero_noise(self, tiny_dataset):
        model = FactorModel(np.zeros((5, 2)), np.zeros((4, 2)), lam=0.0)
        w = WeightAssignment(np.full(5, 0.5), np.full(4, 0.8))
        plan = NoisePlan.zeros(tiny_dataset, 2)
        expected = sum(
            (0.4 * r) ** 2 for r in tiny_dataset.ratings
        )
        assert _objective(model, tiny_dataset, w, plan) == pytest.approx(expected)

    def test_reduces_to_nonprivate_loss(self, tiny_dataset):
        model = init_model(5, 4, 3, master_seed=2, lam=0.01)
        w = WeightAssignment(np.ones(5), np.ones(4))
        plan = NoisePlan.zeros(tiny_dataset, 3)
        got = _objective(model, tiny_dataset, w, plan)
        resid = [
            (r - model.U[i] @ model.V[j]) ** 2
            for i, j, r in zip(tiny_dataset.users, tiny_dataset.items, tiny_dataset.ratings)
        ]
        expected = sum(resid) + 0.01 * (np.sum(model.U**2) + np.sum(model.V**2))
        assert got == pytest.approx(expected)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_per_share_sum(self, seed):
        # the objective as the module docstring writes it: one residual and
        # one v_j . x_j^i term per observed rating
        ds, model, weights, plan = _random_instance(seed, K=3)
        expected = model.lam * (np.sum(model.U**2) + np.sum(model.V**2))
        w = weights.matrix_entries(ds.users, ds.items)
        for i, j, r, w_ij in zip(ds.users.tolist(), ds.items.tolist(), ds.ratings.tolist(), w.tolist()):
            resid = w_ij * r - model.U[i] @ model.V[j]
            expected += resid**2 + model.V[j] @ plan.draw_shares([j], [i])[0]
        assert _objective(model, ds, weights, plan) == pytest.approx(expected, rel=1e-10)


class TestLearningRate:
    def test_paper_schedule_values(self):
        assert learning_rate(0, 100, 0.05) == 0.05
        assert learning_rate(50, 100, 0.05) == pytest.approx(0.01)
        assert learning_rate(80, 100, 0.05) == pytest.approx(0.002)

    def test_boundaries(self):
        assert learning_rate(24, 100, 0.05) == 0.05
        assert learning_rate(25, 100, 0.05) == pytest.approx(0.01)
        assert learning_rate(74, 100, 0.05) == pytest.approx(0.01)
        assert learning_rate(75, 100, 0.05) == pytest.approx(0.002)

    @given(st.integers(min_value=4, max_value=500), st.floats(0.001, 1.0))
    @settings(max_examples=50, deadline=None)
    def test_three_plateaus_non_increasing(self, T, eta0):
        rates = [learning_rate(t, T, eta0) for t in range(T)]
        assert all(a >= b for a, b in zip(rates, rates[1:]))
        assert set(rates) == {eta0, eta0 / 5.0, eta0 / 25.0}

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            learning_rate(100, 100, 0.05)


class TestProjection:
    # the oracle's user step with a zero gradient is the projection alone
    def test_rescales_outside(self):
        U = np.array([[3.0, 4.0]])
        user_step(U, [[0.0, 0.0]], 0.5, project=True)
        assert U.tolist() == [[0.6, 0.8]]

    def test_identity_inside(self):
        U = np.array([[0.1, 0.2]])
        user_step(U, [[0.2, -0.4]], 0.5, project=True)
        assert U.tolist() == [[0.1 - 0.5 * 0.2, 0.2 - 0.5 * -0.4]]

    @given(st.lists(st.floats(-100, 100), min_size=1, max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_idempotent_and_bounded(self, coords):
        U = np.array([coords])
        zero = [[0.0] * len(coords)]
        user_step(U, zero, 1.0, project=True)
        once = U.copy()
        assert np.sqrt(once[0] @ once[0]) <= 1.0 + 1e-12
        user_step(U, zero, 1.0, project=True)
        assert np.allclose(U, once)
