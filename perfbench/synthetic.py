"""Seeded synthetic rating data with low-rank structure.

This is the third copy of the generator: `tests/conftest.py::_make_synthetic`
and `benchmarks/bench_kernels.py::synthetic` hold the other two. It should be
merged into a `hdpmf.synthetic` module by a later change to the package. This
copy differs on purpose in three ways that make runs on different seeds
comparable:

* the rating count is exact (`n_ratings`), not a random total, so every
  workload seed trains on the same number of entries;
* the population (item popularity, latent factors and biases) is fixed for a
  given shape; the seed draws which ratings are observed, and their noise.
  Seeds are then samples of one population, and the test MSE varies far less
  between them than with a fresh population per seed;
* it uses NumPy directly, so `run.py` generates the inputs without
  importing the package under test.

Marginals follow MovieLens: lognormal item popularity, lognormal user activity
with a floor of `min_per_user`, and ratings from a rank-`latent_dim` model plus
user and item biases and Gaussian noise, rounded and clipped to [1, 5].
"""

from __future__ import annotations

import numpy as np


def _exact_counts(
    rng: np.random.Generator, n_users: int, n_items: int, n_ratings: int, lo: int
) -> np.ndarray:
    """Per-user rating counts in [lo, n_items] that sum to exactly n_ratings."""
    if not (lo * n_users <= n_ratings <= n_items * n_users):
        raise ValueError("n_ratings is outside what the user bounds allow")
    raw = rng.lognormal(0.0, 0.7, size=n_users)
    counts = np.clip(np.floor(raw * n_ratings / raw.sum()), lo, n_items).astype(np.int64)
    while (gap := n_ratings - int(counts.sum())) != 0:
        step = 1 if gap > 0 else -1
        room = counts < n_items if step > 0 else counts > lo
        pick = rng.permutation(np.flatnonzero(room))[: abs(gap)]
        counts[pick] += step
    return counts


def make_ratings(
    seed: int,
    n_users: int,
    n_items: int,
    n_ratings: int,
    min_per_user: int = 20,
    latent_dim: int = 4,
    noise_sd: float = 0.8,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(users, items, ratings) with 0-based ids; the same seed gives the same
    arrays."""
    population = np.random.Generator(np.random.PCG64(np.random.SeedSequence((0x5EED, n_users, n_items))))
    pop = population.lognormal(0.0, 1.2, size=n_items)
    pop /= pop.sum()
    U_true = population.normal(0.0, 1.0 / np.sqrt(latent_dim), size=(n_users, latent_dim))
    V_true = population.normal(0.0, 1.0, size=(n_items, latent_dim))
    b_u = population.normal(0.0, 0.35, size=n_users)
    b_i = population.normal(0.0, 0.45, size=n_items)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, 0x5EED))))
    counts = _exact_counts(rng, n_users, n_items, n_ratings, min_per_user)
    users = np.repeat(np.arange(n_users, dtype=np.int64), counts)
    items = np.empty(n_ratings, dtype=np.int64)
    ratings = np.empty(n_ratings, dtype=np.float64)
    start = 0
    for u, c in enumerate(counts):
        js = rng.choice(n_items, size=int(c), replace=False, p=pop)
        score = 3.55 + b_u[u] + b_i[js] + V_true[js] @ U_true[u] + rng.normal(0.0, noise_sd, size=c)
        items[start : start + c] = js
        ratings[start : start + c] = np.clip(np.rint(score), 1, 5)
        start += c
    return users, items, ratings


def write_csv(path, users: np.ndarray, items: np.ndarray, ratings: np.ndarray) -> None:
    """Write the `user,item,rating` CSV that `hdpmf.load_csv` reads, with
    1-based ids as in MovieLens."""
    lines = ["user,item,rating"]
    lines.extend(f"{u + 1},{j + 1},{int(r)}" for u, j, r in zip(users.tolist(), items.tolist(), ratings.tolist()))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
