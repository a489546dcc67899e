"""Deterministic, purpose-keyed random draws.

Every random draw of a run is a pure function of
(master_seed, purpose, j, i): `keyed_uniform` (with `keyed_normal` and
`keyed_exponential` on top) evaluates the counter-based Philox4x64-10
generator (Salmon et al., "Parallel random numbers: as easy as 1, 2, 3",
SC'11) over many (j, i) keys at once. The split, subsample, kfold and
pdp-sample draws are keyed (item, user), the weight draws (entity, 0), the
model init (user, 0) and (item, 1), and the noise plan's `noise-h` and
`noise-c` draws (item, 0) and (item, user). The selected kernel backend
makes the words: the C extension, or NumPy without it
(`HDPMF_BACKEND=python`). Both give the same words and map them to doubles
exactly, so the draws are the same bits either way; the Box-Muller and
`-log` transforms on top run in NumPy on both.

Draws for different keys are mutually independent, so neither parallel
execution, entity iteration order, the arrays' layout nor how keys are
batched can change any draw, and a whole experiment is a pure function of
its master seed.

`stream` returns a sequential PCG64 generator. It is kept for the two
draws that must not share the mechanism under test: `check-noise`, the
independent sampler the noise plan's law is checked against, and the
tests' `synthetic` data.
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
    # the uniforms are spent, so the normals overwrite them in place
    np.multiply(radius, np.cos(angle), out=u[:, 0::2])
    np.multiply(radius, np.sin(angle), out=u[:, 1::2])
    return u[:, :size]


def keyed_exponential(master_seed: int, purpose: str, j, i, size: int) -> np.ndarray:
    """Exp(1) draws, shape (len(j), size), as -log of `keyed_uniform`."""
    return -np.log(keyed_uniform(master_seed, purpose, j, i, size))
