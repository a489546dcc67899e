"""Rating data: ingestion, splits, cross-validation folds, subsampling.

A :class:`RatingDataset` stores sparse (user, item, rating) triples with a
declared rating scale. Entries are kept in canonical (user, item) order so
that everything downstream (noise draws, sampling, training) is
deterministic regardless of file order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import TextIO

import numpy as np

from .exceptions import ParseError
from .rng import keyed_uniform


@dataclass
class RatingDataset:
    """Sparse user-item ratings with a declared scale.

    Arrays are parallel and sorted by (user, item). Treat instances as
    immutable; derived views are cached.
    """

    users: np.ndarray
    items: np.ndarray
    ratings: np.ndarray
    n_users: int
    n_items: int
    scale_min: float
    scale_max: float

    def __post_init__(self):
        self.users = np.ascontiguousarray(self.users, dtype=np.int64)
        self.items = np.ascontiguousarray(self.items, dtype=np.int64)
        self.ratings = np.ascontiguousarray(self.ratings, dtype=np.float64)
        if not (len(self.users) == len(self.items) == len(self.ratings)):
            raise ValueError("users, items, ratings must have equal length")
        if self.scale_max <= self.scale_min:
            raise ValueError("rating scale must have positive range")
        if len(self.users):
            if self.users.min() < 0 or self.users.max() >= self.n_users:
                raise ValueError("user index out of range")
            if self.items.min() < 0 or self.items.max() >= self.n_items:
                raise ValueError("item index out of range")
            if self.ratings.min() < self.scale_min or self.ratings.max() > self.scale_max:
                raise ValueError("rating outside declared scale")
        du, di = np.diff(self.users), np.diff(self.items)
        if ((du > 0) | ((du == 0) & (di > 0))).all():
            return  # already canonical and distinct, as every subset is
        order = np.lexsort((self.items, self.users))
        self.users = self.users[order]
        self.items = self.items[order]
        self.ratings = self.ratings[order]
        same = (np.diff(self.users) == 0) & (np.diff(self.items) == 0)
        if same.any():
            k = int(np.flatnonzero(same)[0])
            raise ValueError(
                f"duplicate rating for user {self.users[k]}, item {self.items[k]}"
            )

    def __len__(self) -> int:
        return len(self.ratings)

    @property
    def delta(self) -> float:
        """Sensitivity driver: the declared rating range."""
        return self.scale_max - self.scale_min

    @cached_property
    def by_user(self) -> tuple[np.ndarray, np.ndarray]:
        """CSR layout over users: (ptr, entry order). Entries are already
        user-sorted, so the order is the identity."""
        counts = np.bincount(self.users, minlength=self.n_users)
        ptr = np.zeros(self.n_users + 1, dtype=np.int64)
        np.cumsum(counts, out=ptr[1:])
        return ptr, np.arange(len(self.users), dtype=np.int64)

    @cached_property
    def by_item(self) -> tuple[np.ndarray, np.ndarray]:
        """CSR layout over items: (ptr, entry order). Within an item, the
        stable sort keeps users ascending."""
        order = np.argsort(self.items, kind="stable")
        counts = np.bincount(self.items, minlength=self.n_items)
        ptr = np.zeros(self.n_items + 1, dtype=np.int64)
        np.cumsum(counts, out=ptr[1:])
        return ptr, order

    def subset(self, mask: np.ndarray) -> "RatingDataset":
        """New dataset keeping entries where mask is True; dimensions and
        scale are preserved."""
        return RatingDataset(
            self.users[mask],
            self.items[mask],
            self.ratings[mask],
            self.n_users,
            self.n_items,
            self.scale_min,
            self.scale_max,
        )


@dataclass
class SplitPlan:
    """A train/test partition of one dataset."""

    train: RatingDataset
    test: RatingDataset
    description: str = field(default="")


def _dense_remap(raw: np.ndarray) -> tuple[np.ndarray, int]:
    """Map raw ids to 0..count-1 by ascending raw id."""
    uniq, dense = np.unique(raw, return_inverse=True)
    return dense.astype(np.int64), len(uniq)


def _read_ratings(
    fh: TextIO,
    path: Path,
    first_line_no: int,
    sep: str,
    n_fields: int,
    scale_min: float,
    scale_max: float,
) -> RatingDataset:
    """Parse the lines of an open ratings file: exactly `n_fields` fields
    separated by `sep`, user id, item id and rating first. Blank lines are
    skipped."""
    raw_users, raw_items, ratings = [], [], []
    for line_no, line in enumerate(fh, start=first_line_no):
        line = line.rstrip("\n")
        if not line:
            continue
        parts = line.split(sep)
        if len(parts) != n_fields:
            raise ParseError(str(path), line_no, f"expected {n_fields} fields, got {len(parts)}")
        try:
            u = int(parts[0])
            i = int(parts[1])
            r = float(parts[2])
        except ValueError as exc:
            raise ParseError(str(path), line_no, str(exc)) from None
        if not (scale_min <= r <= scale_max):
            raise ParseError(
                str(path), line_no, f"rating {r} outside scale [{scale_min}, {scale_max}]"
            )
        raw_users.append(u)
        raw_items.append(i)
        ratings.append(r)
    users, n_users = _dense_remap(np.asarray(raw_users, dtype=np.int64))
    items, n_items = _dense_remap(np.asarray(raw_items, dtype=np.int64))
    try:
        return RatingDataset(users, items, np.asarray(ratings), n_users, n_items, scale_min, scale_max)
    except ValueError as exc:
        raise ParseError(str(path), 0, str(exc)) from None


def load_movielens_100k(path: str | Path) -> RatingDataset:
    """Parse the tab-separated `user \\t item \\t rating \\t timestamp` format.

    Raw ids are remapped to dense 0-based indices (ascending raw id); the
    scale is fixed to [1, 5].
    """
    path = Path(path)
    with open(path, encoding="utf-8") as fh:
        return _read_ratings(fh, path, 1, "\t", 4, 1.0, 5.0)


def load_movielens_1m(path: str | Path) -> RatingDataset:
    """Parse the `user::item::rating::timestamp` format, scale [1, 5]."""
    path = Path(path)
    with open(path, encoding="utf-8") as fh:
        return _read_ratings(fh, path, 1, "::", 4, 1.0, 5.0)


def load_csv(path: str | Path, scale_min: float, scale_max: float) -> RatingDataset:
    """Parse a `user,item,rating` CSV with header and a declared scale.

    A completely empty file yields a valid empty dataset.
    """
    path = Path(path)
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        if header and header.replace(" ", "") != "user,item,rating":
            raise ParseError(str(path), 1, f"expected header 'user,item,rating', got {header!r}")
        return _read_ratings(fh, path, 2, ",", 3, scale_min, scale_max)


def _smallest_keys_per_user(
    dataset: RatingDataset, quota: np.ndarray, master_seed: int, purpose: str
) -> np.ndarray:
    """Mask of the quota[u] ratings of each user u with the smallest keyed
    uniforms under `purpose`, each rating keyed (item, user).

    One stable argsort of a packed (user, draw) word ranks every rating
    within its user: the user index fills the high bits and the top bits of
    the draw's 52-bit mantissa the rest. Whether a rating is picked depends
    only on its own draw and those of its user's other ratings, not on the
    arrays' order or on other users.
    """
    draws = keyed_uniform(master_seed, purpose, dataset.items, dataset.users, 1)[:, 0]
    user_bits = max(dataset.n_users - 1, 1).bit_length()
    draw_bits = min(52, 64 - user_bits)
    # draws are (m + 0.5) * 2**-52 for a 52-bit m, so this recovers m exactly
    mantissa = (draws * 2.0**52).astype(np.uint64) >> np.uint64(52 - draw_bits)
    packed = (dataset.users.astype(np.uint64) << np.uint64(draw_bits)) | mantissa
    order = np.argsort(packed, kind="stable")
    # entries are user-sorted, so sorting keeps each user's slots in place
    ptr, _ = dataset.by_user
    rank = np.empty(len(dataset), dtype=np.int64)
    rank[order] = np.arange(len(dataset)) - ptr[dataset.users]
    return rank < quota[dataset.users]


def split_leave_n_out(dataset: RatingDataset, n_test: int, master_seed: int) -> SplitPlan:
    """Hold out n_test ratings per user: those with the smallest keyed
    `split` draws (one per rating, keyed (item, user)).

    Users with at most n_test ratings contribute everything to train, so
    every test user stays trainable. Raises ValueError for n_test < 1.
    """
    if n_test < 1:
        raise ValueError(f"n_test must be >= 1, got {n_test}")
    counts = np.diff(dataset.by_user[0])
    quota = np.where(counts > n_test, n_test, 0)
    test_mask = _smallest_keys_per_user(dataset, quota, master_seed, "split")
    return SplitPlan(
        train=dataset.subset(~test_mask),
        test=dataset.subset(test_mask),
        description=f"leave-{n_test}-out",
    )


def kfold_splits(dataset: RatingDataset, k: int, master_seed: int) -> list[SplitPlan]:
    """Seeded partition of entries into k near-equal folds (sizes differ by
    at most 1); fold i serves as validation against the rest.

    Entries are ordered by their keyed `kfold` draws (one per rating, keyed
    (item, user)) and the order is cut into k consecutive folds. Raises
    ValueError unless 2 <= k <= len(dataset), so no fold is empty.
    """
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if k > len(dataset):
        raise ValueError(f"k must be at most the {len(dataset)} ratings, got {k}")
    draws = keyed_uniform(master_seed, "kfold", dataset.items, dataset.users, 1)[:, 0]
    perm = np.argsort(draws, kind="stable")
    plans = []
    for fold, chunk in enumerate(np.array_split(perm, k)):
        mask = np.zeros(len(dataset), dtype=bool)
        mask[chunk] = True
        plans.append(
            SplitPlan(
                train=dataset.subset(~mask),
                test=dataset.subset(mask),
                description=f"fold {fold + 1}/{k}",
            )
        )
    return plans


def subsample_per_user(dataset: RatingDataset, fraction: float, master_seed: int) -> RatingDataset:
    """Keep ceil(fraction * count) ratings per user: those with the smallest
    keyed `subsample` draws (one per rating, keyed (item, user))."""
    if not (0.0 < fraction <= 1.0):
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    if fraction == 1.0:
        return dataset
    quota = np.ceil(fraction * np.diff(dataset.by_user[0])).astype(np.int64)
    return dataset.subset(_smallest_keys_per_user(dataset, quota, master_seed, "subsample"))
