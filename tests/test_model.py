"""Model operations: init, predictions, gradients, schedule, projection."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hdpmf.data import RatingDataset
from hdpmf.model import (
    FactorModel,
    init_model,
    item_gradient,
    learning_rate,
    objective_value,
    project_unit_ball,
    user_gradient,
)
from hdpmf.privacy import NoisePlan, WeightAssignment, build_noise_plan
from hdpmf.protocol import predict_all
from hdpmf.rng import stream


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
    return predict_all(m, WeightAssignment.uniform(1, 1), [0], [0], -10.0, 10.0, rescale=False)[0]


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
    def test_item_gradient_single_rater(self):
        g = item_gradient(np.array([0.5, 0.0]), np.array([[1.0, 0.0]]), np.array([2.0]),
                          np.zeros(2), 0.0)
        assert g.tolist() == [-3.0, 0.0]

    def test_item_gradient_no_raters(self):
        g = item_gradient(np.array([0.5, 0.0]), np.zeros((0, 2)), np.zeros(0), np.zeros(2), 0.0)
        assert g.tolist() == [0.0, 0.0]

    def test_item_gradient_dimension_mismatch(self):
        with pytest.raises(ValueError):
            item_gradient(np.zeros(2), np.zeros((0, 2)), np.zeros(0), np.zeros(3), 0.0)

    def test_user_gradient_single_item(self):
        g = user_gradient(np.array([0.5, 0.0]), np.array([[1.0, 0.0]]), np.array([2.0]), 0.0)
        assert g.tolist() == [-3.0, 0.0]

    def test_user_gradient_regularization_only(self):
        u = np.array([0.3, -0.4])
        # zero residual: wr equals the current prediction
        g = user_gradient(u, np.array([[1.0, 0.0]]), np.array([0.3]), 1.0)
        assert g == pytest.approx(2.0 * u)


def _random_instance(seed, K):
    rng = np.random.default_rng(seed)
    n, m = rng.integers(2, 6), rng.integers(2, 6)
    n_entries = int(rng.integers(3, n * m + 1))
    flat = rng.choice(n * m, size=n_entries, replace=False)
    users, items = np.unravel_index(flat, (n, m))
    ratings = rng.uniform(1, 5, size=n_entries)
    ds = RatingDataset(users, items, ratings, int(n), int(m), 1.0, 5.0)
    model = FactorModel(
        rng.normal(0, 0.5, (n, K)), rng.normal(0, 0.5, (m, K)), lam=float(rng.uniform(0, 0.1))
    )
    weights = WeightAssignment(rng.uniform(0.1, 1.0, n), rng.uniform(0.1, 1.0, m))
    plan = build_noise_plan(ds, K, ds.delta, 1.0, int(seed))
    return ds, model, weights, plan


def _fd_gradient(fun, x, h=1e-6):
    g = np.zeros_like(x)
    for k in range(len(x)):
        x[k] += h
        up = fun()
        x[k] -= 2 * h
        down = fun()
        x[k] += h
        g[k] = (up - down) / (2 * h)
    return g


def _check_gradients_fd(seed, K):
    """Analytic gradients vs central finite differences of the objective."""
    ds, model, weights, plan = _random_instance(seed, K)
    targets = weights.matrix_entries(ds.users, ds.items) * ds.ratings
    obj = lambda: objective_value(model, ds, targets, plan.item_totals)

    for j in range(ds.n_items):
        raters = ds.items == j
        analytic = item_gradient(
            model.V[j], model.U[ds.users[raters]], targets[raters], plan.item_totals[j], model.lam
        )
        fd = _fd_gradient(obj, model.V[j])
        assert np.linalg.norm(analytic - fd) <= 1e-5 * max(1.0, np.linalg.norm(analytic))

    for i in range(ds.n_users):
        rated = ds.users == i
        analytic = user_gradient(model.U[i], model.V[ds.items[rated]], targets[rated], model.lam)
        fd = _fd_gradient(obj, model.U[i])
        assert np.linalg.norm(analytic - fd) <= 1e-5 * max(1.0, np.linalg.norm(analytic))


@pytest.mark.parametrize("seed,K", [(s, k) for s in range(4) for k in (1, 2, 5)])
def test_gradients_match_finite_differences(seed, K):
    _check_gradients_fd(seed, K)


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
        w = WeightAssignment.uniform(5, 4)
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
        for i, j, r in zip(ds.users.tolist(), ds.items.tolist(), ds.ratings.tolist()):
            resid = weights.weight(i, j) * r - model.U[i] @ model.V[j]
            expected += resid**2 + model.V[j] @ plan.share(i, j)
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
    def test_rescales_outside(self):
        assert project_unit_ball(np.array([3.0, 4.0])).tolist() == [0.6, 0.8]

    def test_identity_inside(self):
        u = np.array([0.1, 0.2])
        assert project_unit_ball(u) is u

    @given(st.lists(st.floats(-100, 100), min_size=1, max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_idempotent_and_bounded(self, coords):
        u = np.array(coords)
        once = project_unit_ball(u)
        assert np.sqrt(once @ once) <= 1.0 + 1e-12
        assert np.allclose(project_unit_ball(once.copy()), once)
