"""Pure-NumPy kernels; same semantics as the compiled extension.

`keyed_uniform` draws the keyed uniforms behind every seeded draw from
Philox4x64-10 (`philox4x64`), evaluated in uint64 arithmetic 32 bits at a
time; the extension computes the same words and maps them the same exact
way, so the two backends draw the same bits. `box_muller` turns uniforms
into normals, with fdlibm's log, sin and cos polynomials in plain
arithmetic (`log_unit`, `sincos_turn`); the extension runs the same
operations in the same order in each vector lane, four pairs at a time where
it took its AVX2 lanes and one otherwise, so the normals that
`rng.keyed_normal` composes from the two are the same bits too.

One epoch of `run_epoch` is one full-batch sweep: every rated item gets one
aggregated gradient step (raters' contributions plus the item's fixed noise
vector plus regularization), then every user takes its local step and is
projected back onto the unit ball. Both phases are Jacobi sweeps: item j's
step reads only U and V[j], and user i's step reads only V and U[i]. No
update within a phase reads another update of the same phase, so each phase
can be computed for all its rows at once without changing the result.

Each phase reads K-major copies of the factors, (K, n) arrays whose rows
are contiguous. It runs over blocks of whole CSR rows holding about
`BLOCK_ENTRIES` ratings: gather both factors of every entry in (K, entries)
layout, form all residuals at once, and write each row's sum of scaled
gathers (a segment sum along the contiguous axis) into one (K, rows with
entries) gradient array. The phase then takes its step once, vectorized over
all its rows, in place in U or V. The blocks, with their rows' entry counts
and segment starts, depend only on the CSR pointer array, which a fit passes
unchanged to every epoch, so `_row_layout` derives them once per pointer
array content and block size. Scratch memory is bounded by the largest
block, which exceeds `BLOCK_ENTRIES` by less than one row, times K, plus
O((n_users + n_items) K) for the K-major copies, the gradient array and the
step; never by the rating count. Per-row sums run in a different order than
the compiled kernel's sequential loop, so the backends agree to the last few
bits.
"""

from __future__ import annotations

import functools

import numpy as np

NAME = "python"

# Ratings per block: the two (K, BLOCK_ENTRIES) gathers (640 KiB each at
# K = 10) stay in cache, and the per-block NumPy call overhead is amortized.
# Of 4096, 8192 and 16384, 8192 gave the fastest epochs at K = 10 on both
# 74K and 1M ratings (2-vCPU Xeon VM).
BLOCK_ENTRIES = 8192


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
    # the gathers clip instead of checking each index, so the indices are
    # checked here, before anything is written, in one pass: as uint64 a
    # negative index wraps above any n
    for cols, n in ((item_users, len(U)), (user_items, len(V))):
        if len(cols) and np.asarray(cols, np.int64).view(np.uint64).max() >= n:
            raise IndexError(f"CSR column indices must lie in [0, {n})")
    # diverging runs overflow here; the engine's finiteness check reports
    # them, matching the silent compiled kernel
    with np.errstate(over="ignore", invalid="ignore"):
        Ut = np.ascontiguousarray(U.T)
        rows, acc = _phase_gradients(np.ascontiguousarray(V.T), Ut, item_ptr, item_users, item_vals)
        # rows holds rated items only: no raters, no update and no noise
        v = V[rows]
        V[rows] = v - eta * (acc.T + item_noise[rows] + 2.0 * lam * v)

        rows, acc = _phase_gradients(Ut, np.ascontiguousarray(V.T), user_ptr, user_items, user_vals)
        grad = 2.0 * lam * U
        grad[rows] += acc.T
        U -= eta * grad
        if project:
            # from the row-major U: einsum sums a K-major array's columns
            # in another order, which moves the norms' last bits
            sq = np.einsum("rk,rk->r", U, U)
            out = sq > 1.0
            U[out] /= np.sqrt(sq[out])[:, None]


def row_blocks(ptr: np.ndarray, entries: int) -> list[tuple[int, int]]:
    """Split the rows of a CSR pointer array into consecutive ranges
    [r0, r1) of whole rows; a block starts at the row holding each multiple
    of `entries`, so a block exceeds it only by one row's length."""
    n_rows = len(ptr) - 1
    starts = np.searchsorted(ptr, np.arange(0, ptr[-1], entries), side="right") - 1
    bounds = np.unique(np.concatenate(([0], starts, [n_rows]))).tolist()
    return list(zip(bounds[:-1], bounds[1:]))


@functools.lru_cache(maxsize=4)
def _row_layout(ptr_bytes: bytes, entries: int) -> tuple[np.ndarray, tuple, int]:
    """The blocks of whole rows that a phase or `NoisePlan.item_totals` runs
    over, from the bytes of an int64 CSR pointer array: (rows, blocks, width).

    `rows` holds the indices of the rows with entries. Each block of
    `row_blocks(ptr, entries)` is (r0, r1, s, e, c0, c1, starts, counts):
    rows [r0, r1) hold entries [s, e) and are `rows[c0:c1]` where they have
    entries, `starts` holds those rows' first entries relative to s, and
    `counts` every row's entry count. `width` is the largest e - s.

    Keyed on the bytes rather than the array, so that an array edited in
    place misses the cache. Every array is read-only: the cache hands the
    same ones to every caller.
    """
    ptr = np.frombuffer(ptr_bytes, dtype=np.int64)
    counts = np.diff(ptr)
    counts.flags.writeable = False
    rows = np.flatnonzero(counts)
    rows.flags.writeable = False
    # a block's rows with entries are a range of `rows`, and only their
    # segments are summed: reduceat gives an empty segment the next row's
    # first element instead of zero
    firsts = ptr[rows]
    blocks, c1 = [], 0
    for r0, r1 in row_blocks(ptr, entries):
        s, e = int(ptr[r0]), int(ptr[r1])
        c0, c1 = c1, c1 + int(np.count_nonzero(counts[r0:r1]))
        starts = firsts[c0:c1] - s
        starts.flags.writeable = False
        blocks.append((r0, r1, s, e, c0, c1, starts, counts[r0:r1]))
    width = max((e - s for _, _, s, e, *_ in blocks), default=0)
    return rows, tuple(blocks), width


def _phase_gradients(At, Bt, ptr, cols, vals):
    """Data-term gradients of every row of A against its CSR entries, from
    the K-major factors At and Bt: for each row r with entries, the sum over
    (c, val) of 2*(a_r . b_c - val)*b_c.

    Returns (rows, acc): the indices of the rows that have entries, and
    their gradients as a (K, len(rows)) array, filled a block of whole rows
    (`_row_layout`) at a time. The other side's gathers and the residuals
    go to buffers sized for the largest block, allocated once per phase.
    """
    K = At.shape[0]
    rows, blocks, width = _row_layout(np.asarray(ptr, np.int64).tobytes(), BLOCK_ENTRIES)
    acc = np.empty((K, len(rows)))
    b_buf, resid_buf = np.empty(K * width), np.empty(width)
    for r0, r1, s, e, c0, c1, starts, counts in blocks:
        # (K, p) gathers of the other side's factor, into the buffer ("raise"
        # would copy through a temporary), and of the row's own factor,
        # freed once the residuals are formed
        b = Bt.take(cols[s:e], axis=1, out=b_buf[: K * (e - s)].reshape(K, -1), mode="clip")
        resid = np.einsum("kp,kp->p", At[:, r0:r1].repeat(counts, axis=1), b, out=resid_buf[: e - s])
        resid -= vals[s:e]
        resid *= 2.0
        b *= resid
        np.add.reduceat(b, starts, axis=1, out=acc[:, c0:c1])
    return rows, acc


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
# word and product temporaries are each a few times 4 x 8 x this many bytes,
# however many rows a call draws (a peak of 1.8 MiB). Of 1,024 to 65,536,
# 8,192 drew the split's 74,000 one-block rows fastest, 10.6 against 17.5 ms
# at 4,096 (2-vCPU Xeon VM, 2 MiB of L2 per core).
PHILOX_CHUNK_BLOCKS = 8192


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


# -- portable Box-Muller ---------------------------------------------------
# The transforms under the keyed normals and exponentials use only +, -, *,
# /, sqrt and exact bit operations, each rounded once, so every IEEE-754
# machine gives the same bits; `_native.c` runs the same operations in the
# same order in each lane of its vectors, whatever their width. The
# polynomials are fdlibm 5.3's (Sun Microsystems, 1993): e_log.c for log,
# k_sin.c and k_cos.c for sin and cos on [-pi/4, pi/4].
_LN2_HI = float.fromhex("0x1.62e42fee00000p-1")
_LN2_LO = float.fromhex("0x1.a39ef35793c76p-33")
_LG = [float.fromhex(h) for h in (
    "0x1.5555555555593p-1", "0x1.999999997fa04p-2", "0x1.2492494229359p-2", "0x1.c71c51d8e78afp-3",
    "0x1.7466496cb03dep-3", "0x1.39a09d078c69fp-3", "0x1.2f112df3e5244p-3",
)]
_S = [float.fromhex(h) for h in (
    "-0x1.5555555555549p-3", "0x1.111111110f8a6p-7", "-0x1.a01a019c161d5p-13",
    "0x1.71de357b1fe7dp-19", "-0x1.ae5e68a2b9cebp-26", "0x1.5d93a5acfd57cp-33",
)]
_C = [float.fromhex(h) for h in (
    "0x1.555555555554cp-5", "-0x1.6c16c16c15177p-10", "0x1.a01a019cb1590p-16",
    "-0x1.27e4f809c52adp-22", "0x1.1ee9ebdb4b1c4p-29", "-0x1.8fae9be8838d4p-37",
)]
_TWO_PI = float.fromhex("0x1.921fb54442d18p+2")
_RINT_SHIFT = 2.0**52
_HI_SHIFT = np.uint64(32)


def _high_words(x: np.ndarray) -> np.ndarray:
    """The upper 32 bits of each double, as int64."""
    return (x.view(np.uint64) >> _HI_SHIFT).astype(np.int64)


def log_unit(x: np.ndarray) -> np.ndarray:
    """Natural log of positive normal doubles, such as the keyed uniforms,
    by fdlibm's e_log.c: x = 2**k (1 + f) with 1 + f in [sqrt(2)/2,
    sqrt(2)), then log(1 + f) from s = f / (2 + f) and its polynomial.
    fdlibm bounds the error below 1 ulp. The special cases for zero,
    negative, subnormal and non-finite x are left out."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    hx = _high_words(x)
    k = (hx >> 20) - 1023
    hx &= 0x000FFFFF
    i = (hx + 0x95F64) & 0x100000
    k += i >> 20
    # x or x / 2 by its exponent field, whichever lies in [sqrt(2)/2, sqrt(2))
    top = (hx | (i ^ 0x3FF00000)).astype(np.uint64) << _HI_SHIFT
    f = (top | (x.view(np.uint64) & np.uint64(0xFFFFFFFF))).view(np.float64) - 1.0
    s = f / (2.0 + f)
    dk = k.astype(np.float64)
    z = s * s
    w = z * z
    t1 = w * (_LG[1] + w * (_LG[3] + w * _LG[5]))
    t2 = z * (_LG[0] + w * (_LG[2] + w * (_LG[4] + w * _LG[6])))
    R = t2 + t1
    hfsq = 0.5 * f * f
    near = dk * _LN2_HI - ((s * (f - R) - dk * _LN2_LO) - f)
    far = dk * _LN2_HI - ((hfsq - (s * (hfsq + R) + dk * _LN2_LO)) - f)
    return np.where((hx >= 0x6147A) & (hx <= 0x6B851), far, near)


def sincos_turn(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """sin and cos of 2 pi u for u in (0, 1).

    The quarter turn q = rint(4u) is taken exactly ((t + 2**52) - 2**52
    rounds t in [0, 4] to the nearest integer, ties to even), and so is
    r = u - q/4 in [-1/8, 1/8], since u is a multiple of 2**-53. The one
    rounding of x = 2 pi r then leaves |x| <= pi/4 for fdlibm's k_sin.c and
    k_cos.c polynomials, and the quadrant q mod 4 swaps and negates their
    results exactly."""
    u = np.ascontiguousarray(u, dtype=np.float64)
    q = (4.0 * u + _RINT_SHIFT) - _RINT_SHIFT
    x = (u - 0.25 * q) * _TWO_PI
    z = x * x
    v = z * x
    r = _S[1] + z * (_S[2] + z * (_S[3] + z * (_S[4] + z * _S[5])))
    sin_x = x + v * (_S[0] + z * r)
    r = z * (_C[0] + z * (_C[1] + z * (_C[2] + z * (_C[3] + z * (_C[4] + z * _C[5])))))
    ix = _high_words(x) & 0x7FFFFFFF
    # cos x = 1 - z/2 + z r, with z/2 split as qx + (z/2 - qx) once |x| >= 0.3
    qx = np.where(ix > 0x3FE90000, 0.28125,
                  ((ix - 0x00200000).astype(np.uint64) << _HI_SHIFT).view(np.float64))
    cos_x = np.where(ix < 0x3FD33333, 1.0 - (0.5 * z - z * r), (1.0 - qx) - ((0.5 * z - qx) - z * r))
    quadrant = q.astype(np.int64)
    odd = (quadrant & 1).astype(bool)
    sin, cos = np.where(odd, cos_x, sin_x), np.where(odd, sin_x, cos_x)
    np.negative(sin, out=sin, where=(quadrant & 2).astype(bool))
    np.negative(cos, out=cos, where=((quadrant + 1) & 2).astype(bool))
    return sin, cos


def box_muller(u: np.ndarray, out: np.ndarray) -> None:
    """Fill `out` with the standard normals of the uniforms `u`, both of one
    shape with an even number of columns: columns 2m and 2m + 1 are
    sqrt(-2 log u_2m) times the cos and the sin of 2 pi u_2m+1
    (`log_unit`, `sincos_turn`). `out` may be `u` itself."""
    if u.shape[1] % 2 or out.shape != u.shape:
        raise ValueError(f"u needs an even number of columns and out its shape, got {u.shape} and {out.shape}")
    radius = np.sqrt(-2.0 * log_unit(u[:, 0::2]))
    sin, cos = sincos_turn(u[:, 1::2])
    out[:, 0::2] = radius * cos
    out[:, 1::2] = radius * sin

