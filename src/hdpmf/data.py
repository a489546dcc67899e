"""Rating data: ingestion, splits, subsampling.

A :class:`RatingDataset` stores sparse (user, item, rating) triples with a
declared rating scale. Entries are kept in canonical (user, item) order so
that everything downstream (noise draws, sampling, training) is
deterministic regardless of file order.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .exceptions import ParseError
from .rng import keyed_uniform

# The rating scale of both MovieLens formats, which their files do not state.
MOVIELENS_SCALE = (1.0, 5.0)


def _stable_order(ids: np.ndarray, n: int) -> np.ndarray:
    """`np.argsort(ids, kind="stable")` for ids in [0, n), sorted as the
    narrowest unsigned type that holds n - 1: the permutation is the same,
    and NumPy radix-sorts keys of 16 bits or fewer instead of merging."""
    return np.argsort(ids.astype(np.min_scalar_type(max(n - 1, 0))), kind="stable")


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
        # written so that a NaN bound or rating fails: every comparison with
        # NaN is false
        if not (self.scale_max > self.scale_min):
            raise ValueError("rating scale must have positive range")
        if len(self.users):
            if self.users.min() < 0 or self.users.max() >= self.n_users:
                raise ValueError("user index out of range")
            if self.items.min() < 0 or self.items.max() >= self.n_items:
                raise ValueError("item index out of range")
            if not (self.ratings.min() >= self.scale_min and self.ratings.max() <= self.scale_max):
                raise ValueError("rating outside declared scale")
        du, di = np.diff(self.users), np.diff(self.items)
        if ((du > 0) | ((du == 0) & (di > 0))).all():
            return  # already canonical and distinct, as every subset is
        del du, di  # as large as the arrays; free them before sorting
        if int(self.n_users) * int(self.n_items) < 2**62:
            # after the range checks, distinct pairs pack into distinct keys,
            # so any sort of the keys gives lexsort's permutation
            keys = self.users * self.n_items
            keys += self.items
            order = np.argsort(keys)
            del keys
        else:
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
        order = _stable_order(self.items, self.n_items)
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


def _dense_remap(raw: np.ndarray) -> tuple[np.ndarray, int]:
    """Map raw ids to 0..count-1 by ascending raw id.

    When the ids span less than about four times their number, each id's
    rank comes from a presence mask over the span and its running count,
    with no sort. Wider spans (sparse or huge ids) take `np.unique`. Both
    give the same mapping.
    """
    if len(raw):
        lo = int(raw.min())
        span = int(raw.max()) - lo + 1
        if span < 4 * len(raw) + 1024:
            offset = raw - lo
            present = np.zeros(span, dtype=bool)
            present[offset] = True
            rank = np.cumsum(present, dtype=np.int64)
            rank -= 1
            return rank[offset], int(rank[-1]) + 1
    uniq, dense = np.unique(raw, return_inverse=True)
    return dense.astype(np.int64), len(uniq)


_CSV_HEADER = "user,item,rating"
# Bytes the bulk parse accepts besides the format's separator. Within them
# np.loadtxt and int()/float() accept the same fields and read the same
# values. np.loadtxt also reads bytes such as \x1f as whitespace, which
# int() and float() reject, so any other byte sends the file to the loop.
_BULK_BYTES = b"0123456789+-.eE \n"
_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1


def _header_ok(line: str) -> bool:
    """An empty first line, or the CSV header up to spaces."""
    line = line.rstrip("\r\n")
    return not line or line.replace(" ", "") == _CSV_HEADER


def _to_dataset(
    path: Path,
    raw_users: np.ndarray,
    raw_items: np.ndarray,
    ratings: np.ndarray,
    scale_min: float,
    scale_max: float,
) -> RatingDataset:
    """Dense ids and canonical order; a duplicate pair is a ParseError."""
    users, n_users = _dense_remap(raw_users)
    items, n_items = _dense_remap(raw_items)
    try:
        return RatingDataset(users, items, ratings, n_users, n_items, scale_min, scale_max)
    except ValueError as exc:
        raise ParseError(str(path), 0, str(exc)) from None


def _read_lines(
    path: Path,
    sep: str,
    n_fields: int,
    scale_min: float,
    scale_max: float,
    header: bool,
) -> RatingDataset:
    """Parse a ratings file line by line: exactly `n_fields` fields
    separated by `sep`, user id, item id and rating first, after the CSV
    header when `header` is set. Blank lines are skipped. The first bad
    line raises a ParseError that names it.

    This is the reference that the bulk parse must agree with.
    """
    with open(path, encoding="utf-8") as fh:
        first_line_no = 1
        if header:
            line = fh.readline().rstrip("\n")
            if not _header_ok(line):
                raise ParseError(str(path), 1, f"expected header '{_CSV_HEADER}', got {line!r}")
            first_line_no = 2
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
            for raw_id in (u, i):
                if not _INT64_MIN <= raw_id <= _INT64_MAX:
                    raise ParseError(str(path), line_no, f"id {raw_id} does not fit in 64 bits")
            if not (scale_min <= r <= scale_max):
                raise ParseError(
                    str(path), line_no, f"rating {r} outside scale [{scale_min}, {scale_max}]"
                )
            raw_users.append(u)
            raw_items.append(i)
            ratings.append(r)
    return _to_dataset(
        path,
        np.asarray(raw_users, dtype=np.int64),
        np.asarray(raw_items, dtype=np.int64),
        np.asarray(ratings, dtype=np.float64),
        scale_min,
        scale_max,
    )


def _line_blocks(body: bytes):
    """The lines of an ASCII body as lists of str, decoded and split about
    64 KiB of whole lines at a time: np.loadtxt reads str lines faster than
    bytes lines, and no str copy of the whole body is made."""
    start = 0
    while start < len(body):
        end = body.find(b"\n", start + (1 << 16)) + 1 or len(body)
        yield body[start:end].decode("ascii").split("\n")
        start = end


def _read_bulk(
    path: Path,
    sep: str,
    n_fields: int,
    scale_min: float,
    scale_max: float,
    header: bool,
) -> RatingDataset | None:
    """Parse the whole file with one `np.loadtxt` call, or return None
    when that parse cannot be sure to match `_read_lines`.

    The decision is made on the raw bytes: once each CRLF line end is
    made LF, as the loop's universal newlines read it, every byte after the
    header must be in `_BULK_BYTES` or the separator; a lone CR, which the
    loop reads as a line end, declines. A multi-character separator
    becomes one comma, and a separator character left over declines. The
    parse, the field count and the scale are then checked in bulk (NaN
    fails the scale check); an error or any warning declines, as does an
    empty body.
    """
    with open(path, "rb") as fh:
        # latin-1 decodes any bytes, and a header that is not ASCII fails
        if header and not _header_ok(fh.readline().decode("latin-1")):
            return None
        body = fh.read()
    body = body.replace(b"\r\n", b"\n")  # the same object when there is none
    if body.translate(None, _BULK_BYTES + sep.encode()):
        return None
    if len(sep) > 1:
        # the comma is not in the whitelist, so it cannot be in the raw bytes
        body = body.replace(sep.encode(), b",")
        if sep[0].encode() in body:
            return None
        sep = ","
    # the loop only counts the fields after the rating; int64 is the
    # cheapest type to parse them as
    fields = [("user", np.int64), ("item", np.int64), ("rating", np.float64)]
    fields += [(f"extra{k}", np.int64) for k in range(n_fields - 3)]
    with warnings.catch_warnings():
        # older NumPy releases only warn on an int field such as 1.0, and
        # an empty body warns "input contained no data"
        warnings.simplefilter("error")
        try:
            table = np.loadtxt(
                itertools.chain.from_iterable(_line_blocks(body)), dtype=fields,
                delimiter=sep, comments=None, quotechar=None, ndmin=1,
            )
        except (ValueError, OverflowError, Warning):
            return None
    del body  # before the remap and the sort
    ratings = np.ascontiguousarray(table["rating"])
    if not ((ratings >= scale_min) & (ratings <= scale_max)).all():
        return None
    return _to_dataset(path, table["user"], table["item"], ratings, scale_min, scale_max)


def _read_ratings(
    path: str | Path,
    sep: str,
    n_fields: int,
    scale_min: float,
    scale_max: float,
    header: bool = False,
) -> RatingDataset:
    """Load a ratings file: the bulk parse when every byte after the header
    is a digit, sign, point, exponent, space, newline (LF or CRLF) or
    separator and the parse succeeds; otherwise the line loop on the same
    file.

    Either way the arrays, and every ParseError message, are the line
    loop's.
    """
    path = Path(path)
    dataset = _read_bulk(path, sep, n_fields, scale_min, scale_max, header)
    if dataset is None:
        dataset = _read_lines(path, sep, n_fields, scale_min, scale_max, header)
    return dataset


def load_movielens_100k(path: str | Path) -> RatingDataset:
    """Parse the tab-separated `user \\t item \\t rating \\t timestamp` format.

    Raw ids are remapped to dense 0-based indices (ascending raw id); the
    scale is fixed to MOVIELENS_SCALE, [1, 5].
    """
    return _read_ratings(path, "\t", 4, *MOVIELENS_SCALE)


def load_movielens_1m(path: str | Path) -> RatingDataset:
    """Parse the `user::item::rating::timestamp` format, scale [1, 5]."""
    return _read_ratings(path, "::", 4, *MOVIELENS_SCALE)


def load_csv(path: str | Path, scale_min: float, scale_max: float) -> RatingDataset:
    """Parse a `user,item,rating` CSV with header and a declared scale.

    A completely empty file yields a valid empty dataset.
    """
    return _read_ratings(path, ",", 3, scale_min, scale_max, header=True)


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
    return SplitPlan(train=dataset.subset(~test_mask), test=dataset.subset(test_mask))


def subsample_per_user(dataset: RatingDataset, fraction: float, master_seed: int) -> RatingDataset:
    """Keep ceil(fraction * count) ratings per user: those with the smallest
    keyed `subsample` draws (one per rating, keyed (item, user))."""
    if not (0.0 < fraction <= 1.0):
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    if fraction == 1.0:
        return dataset
    quota = np.ceil(fraction * np.diff(dataset.by_user[0])).astype(np.int64)
    return dataset.subset(_smallest_keys_per_user(dataset, quota, master_seed, "subsample"))
