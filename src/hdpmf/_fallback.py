"""Pure-NumPy kernels; same semantics as the compiled extension.

`keyed_uniform` draws the keyed uniforms behind every seeded draw from
Philox4x64-10 (`philox4x64`), evaluated in uint64 arithmetic 32 bits at a
time; the extension computes the same words and maps them the same exact
way, so the two backends draw the same bits.

One epoch of `run_epoch` is one full-batch sweep: every rated item gets one
aggregated gradient step (raters' contributions plus the item's fixed noise
vector plus regularization), then every user takes its local step and is
projected back onto the unit ball. Both phases are Jacobi sweeps: item j's
step reads only U and V[j], and user i's step reads only V and U[i]. No
update within a phase reads another update of the same phase, so each phase
can be computed for many rows at once without changing the result.

Each phase therefore runs over blocks of whole CSR rows holding about
`BLOCK_ENTRIES` ratings: gather both factors of every entry in (K, entries)
layout, form all residuals at once, and sum each row's scaled gathers with a
segment sum along the contiguous axis. Scratch memory is bounded by the block
size, not by the rating count. Per-row sums run in a different order than the
compiled kernel's sequential loop, so the backends agree to the last few bits.
"""

from __future__ import annotations

import numpy as np

NAME = "python"

# Ratings per block: K x BLOCK_ENTRIES doubles per temporary (320 KiB at K=10)
# stay in cache, and the per-block NumPy call overhead is amortized.
BLOCK_ENTRIES = 4096


def run_epoch(
    U: np.ndarray,
    V: np.ndarray,
    item_ptr: np.ndarray,
    item_users: np.ndarray,
    item_vals: np.ndarray,
    item_noise: np.ndarray,
    user_ptr: np.ndarray,
    user_items: np.ndarray,
    user_vals: np.ndarray,
    lam: float,
    eta: float,
    project: bool,
) -> None:
    """Run one epoch in place: item phase, then user phase."""
    # diverging runs overflow here; the engine's finiteness check reports
    # them, matching the silent compiled kernel
    with np.errstate(over="ignore", invalid="ignore"):
        for r0, r1 in _blocks(item_ptr):
            rows, acc = _row_gradients(V, U, item_ptr, item_users, item_vals, r0, r1)
            # rows holds rated items only: no raters, no update and no noise
            v = V[rows]
            V[rows] = v - eta * (acc + item_noise[rows] + 2.0 * lam * v)

        for r0, r1 in _blocks(user_ptr):
            rows, acc = _row_gradients(U, V, user_ptr, user_items, user_vals, r0, r1)
            u = U[r0:r1]
            grad = 2.0 * lam * u
            grad[rows - r0] += acc
            u_new = u - eta * grad
            if project:
                sq = np.einsum("rk,rk->r", u_new, u_new)
                out = sq > 1.0
                u_new[out] /= np.sqrt(sq[out])[:, None]
            U[r0:r1] = u_new


def _blocks(ptr: np.ndarray) -> list[tuple[int, int]]:
    """Split the rows of a CSR pointer array into consecutive ranges
    [r0, r1) of whole rows; a block starts at the row holding each multiple
    of BLOCK_ENTRIES, so a block exceeds it only by one row's length."""
    n_rows = len(ptr) - 1
    starts = np.searchsorted(ptr, np.arange(0, ptr[-1], BLOCK_ENTRIES), side="right") - 1
    bounds = np.unique(np.concatenate(([0], starts, [n_rows]))).tolist()
    return list(zip(bounds[:-1], bounds[1:]))


def _row_gradients(A, B, ptr, cols, vals, r0, r1):
    """Data-term gradients of rows r0..r1-1 of A against their CSR entries:
    for each row r with entries, sum over (c, val) of 2*(a_r . b_c - val)*b_c.

    Returns (rows, acc): the absolute indices of the rows that have entries,
    and their gradients as a (len(rows), K) array.
    """
    s, e = int(ptr[r0]), int(ptr[r1])
    counts = np.diff(ptr[r0 : r1 + 1])
    a = A.T[:, r0:r1].repeat(counts, axis=1)  # (K, p): the row's own factor
    b = B.T.take(cols[s:e], axis=1)  # (K, p): the other side's factor
    resid = np.einsum("kp,kp->p", a, b)
    resid -= vals[s:e]
    resid *= 2.0
    b *= resid
    # segments of rows with entries only: reduceat gives an empty segment
    # the next row's first element instead of zero
    local = np.flatnonzero(counts)
    acc = np.add.reduceat(b, ptr[r0:r1][local] - s, axis=1)
    return local + r0, acc.T


# Philox4x64 round multipliers, split into 32-bit halves, and key
# increments (Random123).
_PHILOX_M = np.array([[0xD2E7470EE14C6C93], [0xCA5A826395121157]], dtype=np.uint64)
_LO32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)
_PHILOX_M_LO = _PHILOX_M & _LO32
_PHILOX_M_HI = _PHILOX_M >> _SHIFT32
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10
_MASK64 = (1 << 64) - 1
# Philox blocks per vectorized evaluation in `keyed_uniform`: the counter,
# word and product temporaries are each a few times 4 x 8 x this many bytes
# (under a megabyte), however many rows a call draws.
PHILOX_CHUNK_BLOCKS = 4096


def _mulhilo(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low 64-bit words of the 128-bit products _PHILOX_M * x.

    NumPy has no 128-bit integers, so the high word is assembled from
    32-bit halves (no partial sum below can overflow 64 bits); the low word
    is the wrapping uint64 product.
    """
    x_lo, x_hi = x & _LO32, x >> _SHIFT32
    mid = _PHILOX_M_HI * x_lo
    mid += (_PHILOX_M_LO * x_lo) >> _SHIFT32
    cross = _PHILOX_M_LO * x_hi
    cross += mid & _LO32
    hi = _PHILOX_M_HI * x_hi
    hi += mid >> _SHIFT32
    hi += cross >> _SHIFT32
    return hi, _PHILOX_M * x


def philox4x64(counter: np.ndarray, key: tuple[int, int]) -> np.ndarray:
    """Philox4x64-10 of each column of a (4, n) uint64 counter array under
    one 128-bit key; returns the (4, n) output words.

    The block for counter c equals the first four `random_raw` words of
    `numpy.random.Philox(counter=c - 1, key=key)`, which increments its
    counter before emitting.
    """
    counter = np.asarray(counter, dtype=np.uint64)
    # x holds counter words (0, 2), which are multiplied; y words (1, 3).
    x, y = counter[[0, 2]], counter[[1, 3]]
    k0, k1 = key
    for r in range(_PHILOX_ROUNDS):
        if r:
            k0, k1 = (k0 + _PHILOX_W[0]) & _MASK64, (k1 + _PHILOX_W[1]) & _MASK64
        hi, lo = _mulhilo(x)
        hi = hi[::-1]
        hi ^= y
        hi ^= np.array([[k0], [k1]], dtype=np.uint64)
        x, y = hi, lo[::-1]
    return np.stack((x[0], y[0], x[1], y[1]))


def keyed_uniform(j: np.ndarray, i: np.ndarray, key0: int, key1: int, out: np.ndarray) -> None:
    """Fill `out`, shape (len(j), size), with doubles in (0, 1): column
    4b + w of row r is word w of the Philox4x64-10 block for key
    (key0, key1) and counter (j[r], i[r], b, 0), as
    ((word >> 12) + 0.5) * 2**-52.

    Rows are evaluated about PHILOX_CHUNK_BLOCKS blocks at a time, so the
    counter and word temporaries stay bounded for any number of rows.
    """
    n, size = out.shape
    if len(j) != n or len(i) != n:
        raise ValueError(f"j and i must have out's {n} rows, got {len(j)} and {len(i)}")
    blocks = -(-size // 4)
    if blocks == 0:
        return
    rows = max(1, PHILOX_CHUNK_BLOCKS // blocks)
    for r0 in range(0, n, rows):
        m = min(rows, n - r0)
        counter = np.zeros((4, m * blocks), dtype=np.uint64)
        counter[0] = np.repeat(j[r0 : r0 + m], blocks)
        counter[1] = np.repeat(i[r0 : r0 + m], blocks)
        counter[2] = np.tile(np.arange(blocks, dtype=np.uint64), m)
        words = philox4x64(counter, (key0, key1))
        bits = words.T.reshape(m, 4 * blocks)[:, :size] >> np.uint64(12)
        out[r0 : r0 + m] = (bits.astype(np.float64) + 0.5) * 2.0**-52
