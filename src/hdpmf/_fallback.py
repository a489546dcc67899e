"""Pure-NumPy training kernel; same semantics as the compiled extension.

One epoch is one full-batch sweep: every rated item gets one aggregated
gradient step (raters' contributions plus the item's fixed noise vector plus
regularization), then every user takes its local step and is projected back
onto the unit ball. Both phases are Jacobi sweeps: item j's step reads only
U and V[j], and user i's step reads only V and U[i]. No update within a phase
reads another update of the same phase, so each phase can be computed for
many rows at once without changing the result.

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
