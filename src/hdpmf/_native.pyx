# cython: boundscheck=False, wraparound=False, cdivision=True, language_level=3
"""Compiled training kernel: one full-batch epoch over CSR rating arrays.

The item phase, then the user phase; each is a Jacobi sweep, run here
one row at a time. hdpmf._fallback.run_epoch runs the same sweeps in
NumPy blocks of rows; the backends agree to reduction order.
"""

from libc.math cimport sqrt
from libc.stdint cimport int64_t

import numpy as np

NAME = "native"


def run_epoch(
    double[:, ::1] U,
    double[:, ::1] V,
    int64_t[::1] item_ptr,
    int64_t[::1] item_users,
    double[::1] item_vals,
    double[:, ::1] item_noise,
    int64_t[::1] user_ptr,
    int64_t[::1] user_items,
    double[::1] user_vals,
    double lam,
    double eta,
    bint project,
):
    """Run one epoch in place: item phase (ascending j), then user phase
    (ascending i)."""
    cdef Py_ssize_t n_items = item_ptr.shape[0] - 1
    cdef Py_ssize_t n_users = user_ptr.shape[0] - 1
    cdef Py_ssize_t K = U.shape[1]
    cdef Py_ssize_t i, j, k, p, s, e
    cdef double dot, resid, norm, g

    scratch = np.empty(K, dtype=np.float64)
    cdef double[::1] acc = scratch

    for j in range(n_items):
        s = item_ptr[j]
        e = item_ptr[j + 1]
        if s == e:
            continue  # no raters: no update, no noise
        for k in range(K):
            acc[k] = 0.0
        for p in range(s, e):
            i = item_users[p]
            dot = 0.0
            for k in range(K):
                dot += U[i, k] * V[j, k]
            resid = 2.0 * (dot - item_vals[p])
            for k in range(K):
                acc[k] += resid * U[i, k]
        for k in range(K):
            g = acc[k] + item_noise[j, k] + 2.0 * lam * V[j, k]
            V[j, k] = V[j, k] - eta * g

    for i in range(n_users):
        s = user_ptr[i]
        e = user_ptr[i + 1]
        for k in range(K):
            acc[k] = 0.0
        for p in range(s, e):
            j = user_items[p]
            dot = 0.0
            for k in range(K):
                dot += U[i, k] * V[j, k]
            resid = 2.0 * (dot - user_vals[p])
            for k in range(K):
                acc[k] += resid * V[j, k]
        norm = 0.0
        for k in range(K):
            g = acc[k] + 2.0 * lam * U[i, k]
            acc[k] = U[i, k] - eta * g
            norm += acc[k] * acc[k]
        if project and norm > 1.0:
            norm = sqrt(norm)
            for k in range(K):
                U[i, k] = acc[k] / norm
        else:
            for k in range(K):
                U[i, k] = acc[k]
