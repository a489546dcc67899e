"""Deterministic, purpose-keyed random draws.

Every random draw in the package is a pure function of
(master_seed, purpose, *entity indices), through one of two mechanisms:

- `stream` returns a sequential PCG64 generator for the split, weights,
  init, subsample, pdp-sample, check-noise and synthetic draws;
- `keyed_uniform` (with `keyed_normal` and `keyed_exponential` on top)
  evaluates the counter-based Philox4x64-10 generator (Salmon et al.,
  "Parallel random numbers: as easy as 1, 2, 3", SC'11) over many (j, i)
  keys at once; the noise plan's `noise-h` and `noise-c` draws use it. The
  selected kernel backend makes the words: the C extension, or NumPy
  without it (`HDPMF_BACKEND=python`). Both give the same words and map
  them to doubles exactly, so the draws are the same bits either way; the
  Box-Muller and `-log` transforms on top run in NumPy on both.

Draws for different keys are mutually independent, so neither parallel
execution, entity iteration order nor how keys are batched can change any
draw, and a whole experiment is a pure function of its master seed.
"""

from __future__ import annotations

import numpy as np

from . import kernels

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


def keyed_uniform(master_seed: int, purpose: str, j, i, size: int) -> np.ndarray:
    """Doubles in (0, 1), shape (len(j), size), for parallel key arrays j, i.

    Row r depends only on (master_seed, purpose, j[r], i[r]): its columns
    4b..4b+3 are the Philox4x64-10 block with key (master_seed, purpose id)
    and counter (j[r], i[r], b, 0). Each 64-bit word keeps its top 52 bits
    and is mapped to the midpoint of its bin, so no draw is 0 or 1.

    The words come from the selected kernel backend (`kernels.keyed_uniform`:
    the C extension, or `_fallback.philox4x64` in NumPy); both compute the
    same words and map them exactly, so the draws are the same bits.
    """
    _check_seed(master_seed)
    if master_seed >= 1 << 64:
        raise ValueError(f"master_seed must fit in 64 bits, got {master_seed}")
    j = np.ascontiguousarray(j, dtype=np.uint64)
    i = np.ascontiguousarray(i, dtype=np.uint64)
    out = np.empty((len(j), size))
    kernels.keyed_uniform(j, i, master_seed, _PURPOSES[purpose], out)
    return out


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
