"""The portable transform behind the keyed normals and exponentials.

Both backends transform the same uniforms into the same bits, from random
keys and from the edge uniforms; the keyed normals are that transform of
the keyed uniforms on either backend, in one C-contiguous array, however
the callers split the keys; the log, sin and cos are as accurate as
stated; and a few draws are pinned to their exact bits, on either backend.
The transform uses no libm or NumPy transcendental function, so these pins
hold on every IEEE-754 machine and NumPy build.
"""

import itertools
import math

import numpy as np
import pytest

from hdpmf import _fallback, rng

# The smallest and largest keyed uniforms, and each multiple of 1/8 in
# (0, 1) with its two neighbours: the quarter-turn reduction's ties and
# quadrant edges lie on those multiples.
EDGES = sorted({2.0**-53, 1 - 2.0**-53} | {
    k / 8 + d for k in range(1, 8) for d in (-(2.0**-53), 0.0, 2.0**-53)
})


def _box_muller(impl, u):
    out = np.full_like(u, np.nan)
    impl.box_muller(u, out)
    return out


@pytest.mark.parametrize("size, n", [(1, 300_000), (2, 200_000), (3, 200_000), (7, 150_000), (10, 150_000)]
                         + [(size, 10_000) for size in (4, 5, 6, 8, 9, 11, 12, 13, 14, 15, 16)]
                         + [(513, 500), (514, 500)])
def test_native_normals_equal_fallback(native, size, n):
    # the keyed uniforms that the normals of each size 1-16 and 513-514
    # transform, every even width 2-16 and 514, of about a million random
    # keys in all; the backends draw the same uniforms (test_kernels.py)
    gen = np.random.default_rng(size)
    j, i = gen.integers(0, 2**64, size=(2, n), dtype=np.uint64)
    key0 = int(gen.integers(0, 2**64, dtype=np.uint64))
    u = np.empty((n, size + size % 2))
    native.keyed_uniform(j, i, key0, 5, u)
    got = _box_muller(native, u)
    assert got.tobytes() == _box_muller(_fallback, u).tobytes()
    assert np.isfinite(got).all()


def test_box_muller_of_the_edge_uniforms_is_the_same_bits_on_both_backends(native):
    u = np.array(list(itertools.product(EDGES, EDGES)))
    got = _box_muller(native, u)
    assert got.tobytes() == _box_muller(_fallback, u).tobytes()
    assert np.isfinite(got).all()
    # in place gives the same bits
    for impl in (native, _fallback):
        v = u.copy()
        impl.box_muller(v, v)
        assert v.tobytes() == got.tobytes()


def test_the_edge_uniforms_stay_below_the_normal_bound():
    # the radius sqrt(-2 log u) is largest at 2**-53, the least keyed
    # uniform, so every keyed normal is below the bound the noise plan's
    # overflow check rests on
    u = np.array(list(itertools.product(EDGES, EDGES)))
    assert np.abs(_box_muller(_fallback, u)).max() < rng.NORMAL_BOUND


@pytest.mark.parametrize("size", [0, 1, 4, 5, 10, 513, 514])
def test_keyed_normals_are_box_muller_of_the_keyed_uniforms(native, use_kernels, size):
    j, i = np.arange(50), np.arange(50, 100)
    for impl in (native, _fallback):
        use_kernels(impl)
        u = rng.keyed_uniform(3, "noise-c", j, i, size + size % 2)
        expected = _box_muller(impl, u)[:, :size]
        got = rng.keyed_normal(3, "noise-c", j, i, size)
        assert got.tobytes() == expected.tobytes() and got.flags.c_contiguous


@pytest.mark.parametrize("size", [1, 2, 5, 10, 513])
@pytest.mark.parametrize("rows", [1, 3, 7])
def test_chunk_boundaries_move_no_bit(impl, use_kernels, rows, size):
    # the callers chunk the keys (the noise plan draws a block at a time):
    # calls of 1, 3 and 7 rows split 50 rows everywhere, and 3 and 7 leave a
    # short last call
    use_kernels(impl)
    j, i = np.arange(50), np.arange(50, 100)
    whole = rng.keyed_normal(3, "noise-c", j, i, size)
    parts = [rng.keyed_normal(3, "noise-c", j[r : r + rows], i[r : r + rows], size) for r in range(0, 50, rows)]
    assert np.concatenate(parts).tobytes() == whole.tobytes()


def test_keyed_normals_of_no_rows_stage_nothing(impl, use_kernels):
    # no rows may be wider than any row could be
    use_kernels(impl)
    assert rng.keyed_normal(3, "noise-c", [], [], 2**59 - 1).shape == (0, 2**59 - 1)


def _ulps(got, exact):
    return np.abs(got - exact) / np.spacing(np.abs(exact))


def _unit_uniforms(n, seed):
    """Doubles of the keyed uniforms' form, (m + 1/2) 2**-52."""
    m = np.random.default_rng(seed).integers(0, 2**52, size=n, dtype=np.uint64)
    return (m.astype(np.float64) + 0.5) * 2.0**-52


def test_log_unit_is_within_one_ulp_of_math_log():
    x = np.concatenate([
        np.linspace(2.0**-53, 1 - 2.0**-53, 400_001),  # dense in (0, 1)
        1 - np.arange(1, 2001) * 2.0**-53,  # where log x is tiny
        _unit_uniforms(400_000, 1),
        np.geomspace(2.0**-1021, 2.0**1023, 20_001),  # every exponent
        EDGES,
    ])
    exact = np.array([math.log(v) for v in x])
    assert _ulps(_fallback.log_unit(x), exact).max() <= 1.0


def _two_pi_u(u):
    """2 pi u as the double a = fl(2 pi u) and the first-order correction d
    with 2 pi u = a + d: the exact rounding error of the product (Dekker's
    split, no fused multiply-add) plus the part of 2 pi that the double
    2 * math.pi drops."""
    two_pi_tail = 2.4492935982947064e-16  # 2 pi - 2 * math.pi

    def split(v):
        t = 134217729.0 * v  # 2**27 + 1
        hi = t - (t - v)
        return hi, v - hi

    a = 2 * math.pi * u
    (ph, pl), (uh, ul) = split(np.full_like(u, 2 * math.pi)), split(u)
    error = ((ph * uh - a) + ph * ul + pl * uh) + pl * ul
    return a, error + two_pi_tail * u


def test_sin_and_cos_of_two_pi_u_are_within_two_ulp():
    """Bound: 2 ulp of the exact value. Rounding x = 2 pi r costs up to half
    an ulp and 2 pi's own rounding 2**-55 relative; fdlibm's kernels stay
    under 1 ulp with their final rounding; the reference adds the half ulp
    of math.sin and math.cos."""
    u = np.concatenate([_unit_uniforms(500_000, 2), np.linspace(2.0**-53, 1 - 2.0**-53, 100_001), EDGES])
    a, d = _two_pi_u(u)
    sin_a = np.array([math.sin(v) for v in a])
    cos_a = np.array([math.cos(v) for v in a])
    sin, cos = _fallback.sincos_turn(u)
    assert _ulps(sin, sin_a + d * cos_a).max() <= 2.0
    assert _ulps(cos, cos_a - d * sin_a).max() <= 2.0


def test_sincos_turn_is_exact_on_the_quarter_turns():
    sin, cos = _fallback.sincos_turn(np.array([0.25, 0.5, 0.75]))
    assert sin.tolist() == [1.0, 0.0, -1.0]
    assert cos.tolist() == [0.0, -1.0, 0.0]


# Pinned draws: the exact-draw oracles of the portable transform.
NORMALS = [
    ["0x1.10cb9e20fdd87p-1", "-0x1.1ad19b27c9f21p+0", "0x1.6eb9d73acbac0p-4"],
    ["0x1.a3b0b054c7fd5p-5", "-0x1.bcb50d298834ap-1", "0x1.f3931fe85cab5p-1"],
    ["-0x1.ca0f70032cdd4p-6", "0x1.324a0336a0771p-2", "0x1.dbf2b84789c72p-2"],
]
EXPONENTIALS = [
    ["0x1.df4e326ca3d0cp-5", "0x1.d7dd76d0e925ep-2", "0x1.1938a48f0fe0fp+1"],
    ["0x1.21c85d190376bp+1", "0x1.108609eaab586p+0", "0x1.bcf52b6cd048ep-1"],
]


def test_pinned_draws(use_kernels, impl):
    use_kernels(impl)
    normals = rng.keyed_normal(5, "noise-c", [7, 1681, 2**40], [2, 0, 942], 3)
    exponentials = rng.keyed_exponential(5, "noise-h", [0, 1681], [0, 0], 3)
    assert [[v.hex() for v in row] for row in normals] == NORMALS
    assert [[v.hex() for v in row] for row in exponentials] == EXPONENTIALS
