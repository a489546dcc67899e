"""Deterministic, purpose-keyed random draws.

Every random draw in the package is a pure function of
(master_seed, purpose, *entity indices), through one of two mechanisms:

- `stream` returns a sequential PCG64 generator for the split, weights,
  init, subsample, pdp-sample, check-noise and synthetic draws;
- `keyed_uniform` (with `keyed_normal` and `keyed_exponential` on top)
  evaluates the counter-based Philox4x64-10 generator (Salmon et al.,
  "Parallel random numbers: as easy as 1, 2, 3", SC'11) vectorized over
  many (j, i) keys at once; the noise plan's `noise-h` and `noise-c` draws
  use it.

Draws for different keys are mutually independent, so neither parallel
execution, entity iteration order nor how keys are batched can change any
draw, and a whole experiment is a pure function of its master seed.
"""

from __future__ import annotations

import numpy as np

# Fixed purpose ids; never renumber, or seeded results change.
_PURPOSES = {
    "model-init": 1,
    "user-weights": 2,
    "item-weights": 3,
    "noise-h": 4,
    "noise-c": 5,
    "split": 6,
    "kfold": 7,
    "subsample": 8,
    "pdp-sample": 9,
    "synthetic": 10,
    "check-noise": 11,
}


def _check_seed(master_seed: int) -> None:
    if master_seed < 0:
        raise ValueError(f"master_seed must be non-negative, got {master_seed}")


def stream(master_seed: int, purpose: str, *key: int) -> np.random.Generator:
    """Return the generator for (master_seed, purpose, *key).

    The same arguments always yield an identically-seeded PCG64 stream.
    """
    _check_seed(master_seed)
    entropy = (master_seed, _PURPOSES[purpose], *key)
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))


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


def keyed_uniform(master_seed: int, purpose: str, j, i, size: int) -> np.ndarray:
    """Doubles in (0, 1), shape (len(j), size), for parallel key arrays j, i.

    Row r depends only on (master_seed, purpose, j[r], i[r]): its columns
    4b..4b+3 are the Philox4x64-10 block with key (master_seed, purpose id)
    and counter (j[r], i[r], b, 0). Each 64-bit word keeps its top 52 bits
    and is mapped to the midpoint of its bin, so no draw is 0 or 1.
    """
    _check_seed(master_seed)
    if master_seed >= 1 << 64:
        raise ValueError(f"master_seed must fit in 64 bits, got {master_seed}")
    j = np.asarray(j, dtype=np.uint64)
    i = np.asarray(i, dtype=np.uint64)
    n, blocks = len(j), -(-size // 4)
    counter = np.zeros((4, n * blocks), dtype=np.uint64)
    counter[0] = np.repeat(j, blocks)
    counter[1] = np.repeat(i, blocks)
    counter[2] = np.tile(np.arange(blocks, dtype=np.uint64), n)
    words = philox4x64(counter, (master_seed, _PURPOSES[purpose]))
    bits = words.T.reshape(n, 4 * blocks)[:, :size] >> np.uint64(12)
    return (bits.astype(np.float64) + 0.5) * 2.0**-52


def keyed_normal(master_seed: int, purpose: str, j, i, size: int) -> np.ndarray:
    """Standard normals, shape (len(j), size), by Box-Muller on
    `keyed_uniform`: columns 2m and 2m+1 come from uniforms 2m and 2m+1."""
    u = keyed_uniform(master_seed, purpose, j, i, size + size % 2)
    radius = np.sqrt(-2.0 * np.log(u[:, 0::2]))
    angle = 2.0 * np.pi * u[:, 1::2]
    z = np.stack((radius * np.cos(angle), radius * np.sin(angle)), axis=-1)
    return z.reshape(u.shape)[:, :size]


def keyed_exponential(master_seed: int, purpose: str, j, i, size: int) -> np.ndarray:
    """Exp(1) draws, shape (len(j), size), as -log of `keyed_uniform`."""
    return -np.log(keyed_uniform(master_seed, purpose, j, i, size))
