"""The scalar reference of the training update rule, and the
finite-difference check of its gradients against the training objective
(`hdpmf.model`) with the random instances it runs on.

Every engine and kernel is checked against these functions. One epoch is
an item phase, then a user phase, and each phase is a Jacobi sweep:

* `item_gradients`: for each item j with a rater, the gradient of the
  objective w.r.t. v_j, 2 sum_i (u_i . v_j - w_ij r_ij) u_i + x_j
  + 2 lam v_j, where x_j is the item's summed noise. An item with no rater
  has no gradient and is never stepped. Then v_j -= eta g_j.
* `user_gradients`: for every user, against the stepped V, the noise-free
  2 sum_j (u_i . v_j - w_ij r_ij) v_j + 2 lam u_i; a user with no rating
  has the regularization term alone.
* `user_step`: u_i -= eta g_i, then, when `project` is on and the step
  leaves the unit ball, the projection back onto it.

`oracle_epoch` runs them in that order. `_native.c` runs the same
operations in the same order, with the dots of two or, on its AVX2 path,
four ratings in the lanes of one vector and up to 16 ratings' dots side by
side, so it matches bit for bit on either path. `hdpmf._fallback` runs the
same sweeps in NumPy blocks, and the message engine's devices and
recommender split them between the two sides; both match to reduction
order.
"""

import numpy as np

from hdpmf.data import RatingDataset
from hdpmf.model import FactorModel, objective_value
from hdpmf.privacy import WeightAssignment


def kernel_args(ds, vals=None):
    """The rating arguments of `run_epoch` for a dataset, with `vals` (its
    ratings by default) in entry order, which is by user."""
    vals = ds.ratings if vals is None else vals
    user_ptr, _ = ds.by_user
    item_ptr, order = ds.by_item
    return dict(
        item_ptr=item_ptr,
        item_users=np.ascontiguousarray(ds.users[order]),
        item_vals=np.ascontiguousarray(vals[order]),
        user_ptr=user_ptr,
        user_items=ds.items,
        user_vals=vals,
    )


def _data_term(a, B, cols, vals):
    """The sum over p of 2 (a . B[cols[p]] - vals[p]) B[cols[p]], as a
    list: each dot summed in ascending k, the terms added in ascending p."""
    K = len(a)
    acc = [0.0] * K
    for c, val in zip(cols, vals):
        dot = 0.0
        for k in range(K):
            dot += a[k] * B[c, k]
        resid = 2.0 * (dot - val)
        for k in range(K):
            acc[k] += resid * B[c, k]
    return acc


def item_gradients(U, V, item_ptr, item_users, item_vals, item_noise, lam):
    """{j: the gradient w.r.t. v_j, a list of K floats} for each item j
    with a rater, in ascending j."""
    grads = {}
    for j in range(len(item_ptr) - 1):
        s, e = item_ptr[j], item_ptr[j + 1]
        if s < e:
            acc = _data_term(V[j], U, item_users[s:e], item_vals[s:e])
            grads[j] = [acc[k] + item_noise[j, k] + 2.0 * lam * V[j, k] for k in range(len(acc))]
    return grads


def user_gradients(U, V, user_ptr, user_items, user_vals, lam):
    """The gradient w.r.t. u_i, a list of K floats, of every user i."""
    grads = []
    for i in range(len(user_ptr) - 1):
        s, e = user_ptr[i], user_ptr[i + 1]
        acc = _data_term(U[i], V, user_items[s:e], user_vals[s:e])
        grads.append([acc[k] + 2.0 * lam * U[i, k] for k in range(len(acc))])
    return grads


def user_step(U, grads, eta, project):
    """Step row i of U by u_i - eta grads[i] in place; with `project` on, a
    result outside the unit ball is divided by its norm."""
    for i, g in enumerate(grads):
        new = [U[i, k] - eta * g[k] for k in range(len(g))]
        norm = 0.0
        for x in new:
            norm += x * x
        if project and norm > 1.0:
            norm = np.sqrt(norm)
            new = [x / norm for x in new]
        U[i] = new


def oracle_epoch(U, V, item_ptr, item_users, item_vals, item_noise,
                 user_ptr, user_items, user_vals, lam, eta, project):
    """One epoch in place, with the arguments of `run_epoch`."""
    for j, g in item_gradients(U, V, item_ptr, item_users, item_vals, item_noise, lam).items():
        for k in range(len(g)):
            V[j, k] = V[j, k] - eta * g[k]
    user_step(U, user_gradients(U, V, user_ptr, user_items, user_vals, lam), eta, project)


def _central_difference(fun, x, h):
    g = np.zeros_like(x)
    for k in range(len(x)):
        x[k] += h
        up = fun()
        x[k] -= 2 * h
        down = fun()
        x[k] += h
        g[k] = (up - down) / (2 * h)
    return g


def random_instance(rng, K):
    """(ds, model, weights): a random dataset of 2-5 users and 2-5 items,
    random factors of dimension K and weights, all drawn from `rng`."""
    n, m = int(rng.integers(2, 6)), int(rng.integers(2, 6))
    n_entries = int(rng.integers(3, n * m + 1))
    flat = rng.choice(n * m, size=n_entries, replace=False)
    users, items = np.unravel_index(flat, (n, m))
    ds = RatingDataset(users, items, rng.uniform(1, 5, n_entries), n, m, 1.0, 5.0)
    model = FactorModel(rng.normal(0, 0.5, (n, K)), rng.normal(0, 0.5, (m, K)), lam=float(rng.uniform(0, 0.1)))
    weights = WeightAssignment(rng.uniform(0.1, 1, n), rng.uniform(0.1, 1, m))
    return ds, model, weights


def fd_gradient_error(model, ds, targets, noise_totals, h=1e-6):
    """The largest relative error, |g - fd| / max(1, |g|), of the oracle's
    gradients g of every item with a rater and every user against central
    differences fd of `objective_value`. `targets` are w_ij * r_ij in the
    dataset's entry order, `noise_totals` each item's summed noise."""
    args = kernel_args(ds, targets)
    items = item_gradients(model.U, model.V, args["item_ptr"], args["item_users"], args["item_vals"],
                           noise_totals, model.lam)
    users = user_gradients(model.U, model.V, args["user_ptr"], args["user_items"], args["user_vals"],
                           model.lam)
    objective = lambda: objective_value(model, ds, targets, noise_totals)
    worst = 0.0
    for rows, grads in ((model.V, items.items()), (model.U, enumerate(users))):
        for r, g in grads:
            g = np.array(g)
            fd = _central_difference(objective, rows[r], h)
            worst = max(worst, float(np.linalg.norm(g - fd)) / max(1.0, float(np.linalg.norm(g))))
    return worst
