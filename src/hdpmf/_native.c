/* Compiled kernels: one full-batch training epoch over CSR rating arrays,
 * the keyed Philox4x64-10 uniforms of every seeded draw, and the Box-Muller
 * transform that turns them into the noise plan's normals.
 *
 * The epoch runs the item phase, then the user phase; each is a Jacobi
 * sweep over the rows. Both phases form a row's data term in one routine,
 * which computes the dot products of several ratings side by side, one
 * rating per vector lane, up to 16 ratings at once. hdpmf._fallback.run_epoch
 * runs the same sweeps in NumPy blocks of rows; the backends agree to
 * reduction order. Each dot and each gradient entry still takes the
 * additions and multiplications of the scalar reference `oracle_epoch` in
 * tests/oracles.py, in its order, so the kernel matches it bit for bit.
 *
 * keyed_uniform computes the same words as hdpmf._fallback.philox4x64 and
 * maps them to doubles exactly, so both backends draw the same bits.
 * box_muller transforms uniforms in place with the operations of
 * hdpmf._fallback.box_muller, in its order: fdlibm's log, sin and cos
 * polynomials, made of +, -, *, /, sqrt and exact bit operations only.
 * hdpmf.rng.keyed_normal draws the keyed normals on either backend as
 * box_muller of keyed_uniform, so they are the same bits too.
 *
 * Lane widths. The vectors are GCC and Clang vector extensions, with no
 * intrinsics header, so the extension needs one of those compilers;
 * elsewhere its optional build fails and the NumPy fallback runs. Each lane
 * routine is written once, as a template over its lane width L, and built
 * twice. The baseline build holds two doubles per 128-bit vector in the
 * epoch and one in the transform, which baseline SSE2 and NEON run. On
 * x86-64 a second build holds four doubles per 256-bit vector, compiled
 * under __attribute__((target("avx2"))) with no -m flag. The module picks
 * one when it loads, by __builtin_cpu_supports("avx2"), and exports its
 * name as ISA: "avx2" or "baseline". Defining HDPMF_NO_AVX2 compiles the
 * AVX2 build out, so that the baseline can be tested on any machine.
 *
 * Each operation is rounded once, in a vector lane as in a scalar: the
 * pragma below keeps the compiler from contracting a*b + c into one fused
 * multiply-add, whatever flags it is given. So either build gives the same
 * bits, on every IEEE-754 machine.
 *
 * Arrays arrive through the buffer protocol, so the module needs only
 * Python.h; every argument is checked before anything is written.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>
#include <stdint.h>
#include <string.h>

#if defined(__clang__)
#pragma clang fp contract(off)
#elif defined(__GNUC__)
#pragma GCC optimize("fp-contract=off")
#endif

/* The AVX2 build: x86-64, a compiler with __builtin_shufflevector (Clang,
   GCC 12 or later), and not compiled out. */
#if defined(__x86_64__) && !defined(HDPMF_NO_AVX2) && defined(__has_builtin)
#if __has_builtin(__builtin_shufflevector)
#define HAVE_AVX2 1
#endif
#endif

#define INLINE static inline __attribute__((always_inline))

/* run_epoch's nine array arguments, in call order: float64 ('d') or int64
   ('q'), with their number of dimensions. Only U and V are written. */
enum { U_, V_, ITEM_PTR, ITEM_USERS, ITEM_VALS, ITEM_NOISE, USER_PTR, USER_ITEMS, USER_VALS, N_ARRAYS };

static const struct { char kind; int ndim; } SPEC[N_ARRAYS] = {
    {'d', 2}, {'d', 2}, {'q', 1}, {'q', 1}, {'d', 1}, {'d', 2}, {'q', 1}, {'q', 1}, {'d', 1},
};

/* Raise ValueError and return -1 from an int-returning check. */
#define FAIL(...) return (PyErr_Format(PyExc_ValueError, __VA_ARGS__), -1)

static char *KWLIST[] = {
    "U", "V", "item_ptr", "item_users", "item_vals", "item_noise",
    "user_ptr", "user_items", "user_vals", "lam", "eta", "project", NULL,
};

/* Whether a struct-module format names one native float64 ('d'), int64
   ('q': also 'l' where long has 8 bytes) or uint64 ('Q': also 'L'). */
static int
format_is(const Py_buffer *b, char kind)
{
    const char *f = b->format ? b->format : "B";
    if (*f == '@' || *f == '=')
        f++;
    if (b->itemsize != 8 || f[0] == '\0' || f[1] != '\0')
        return 0;
    switch (kind) {
    case 'd':
        return f[0] == 'd';
    case 'q':
        return f[0] == 'q' || (f[0] == 'l' && sizeof(long) == 8);
    default:
        return f[0] == 'Q' || (f[0] == 'L' && sizeof(long) == 8);
    }
}

/* Acquire argument `name` as a C-contiguous buffer of `ndim` dimensions
   holding `kind` (see format_is), and writable if `writable`. */
static int
get_array(PyObject *obj, Py_buffer *b, const char *name, char kind, int ndim, int writable)
{
    if (PyObject_GetBuffer(obj, b, PyBUF_RECORDS_RO) < 0)
        return -1;
    if (!format_is(b, kind))
        PyErr_Format(PyExc_TypeError, "%s must hold %s, got format '%s'", name,
                     kind == 'd' ? "float64" : kind == 'q' ? "int64" : "uint64",
                     b->format ? b->format : "B");
    else if (b->ndim != ndim)
        PyErr_Format(PyExc_ValueError, "%s must have %d dimension(s), got %d", name, ndim, b->ndim);
    else if (!PyBuffer_IsContiguous(b, 'C'))
        PyErr_Format(PyExc_ValueError, "%s must be C-contiguous", name);
    else if (writable && b->readonly)
        PyErr_Format(PyExc_ValueError, "%s must be writable", name);
    else
        return 0;
    PyBuffer_Release(b);
    return -1;
}

/* One CSR side: `ptr` has rows + 1 entries and runs from 0 to len(idx)
   without decreasing, `vals` is as long as `idx`, and every index lies in
   [0, n_cols). Inlined into each build's epoch, so the range scan runs in
   that build's vectors. */
INLINE int
check_csr(const Py_buffer *b, int ptr_a, Py_ssize_t rows, Py_ssize_t n_cols)
{
    const int64_t *ptr = b[ptr_a].buf, *idx = b[ptr_a + 1].buf;
    Py_ssize_t nnz = b[ptr_a + 1].shape[0], r, p;
    uint64_t in_range = ~(uint64_t)0;
    const char *ptr_name = KWLIST[ptr_a], *idx_name = KWLIST[ptr_a + 1];

    if (b[ptr_a].shape[0] != rows + 1)
        FAIL("%s must have %zd entries, got %zd", ptr_name, rows + 1, b[ptr_a].shape[0]);
    if (b[ptr_a + 2].shape[0] != nnz)
        FAIL("%s must have as many entries as %s (%zd), got %zd", KWLIST[ptr_a + 2], idx_name, nnz,
             b[ptr_a + 2].shape[0]);
    if (ptr[0] != 0 || ptr[rows] != nnz)
        FAIL("%s must run from 0 to %zd", ptr_name, nnz);
    for (r = 0; r < rows; r++)
        if (ptr[r + 1] < ptr[r])
            FAIL("%s decreases at entry %zd", ptr_name, r + 1);
    /* x lies in [0, n_cols) iff x - n_cols wraps below zero while x does
       not: the sign bit of (x - n_cols) & ~x. One AND over all entries
       vectorizes; the slow loop runs only to name a bad entry. */
    for (p = 0; p < nnz; p++)
        in_range &= ((uint64_t)idx[p] - (uint64_t)n_cols) & ~(uint64_t)idx[p];
    if (in_range >> 63)
        return 0;
    for (p = 0; idx[p] >= 0 && idx[p] < n_cols; p++)
        ;
    FAIL("%s[%zd] = %lld is outside [0, %zd)", idx_name, p, (long long)idx[p], n_cols);
}

/* Shapes of U, V and item_noise, then both CSR sides. */
INLINE int
check_shapes(const Py_buffer *b)
{
    Py_ssize_t n_users = b[U_].shape[0], K = b[U_].shape[1], n_items = b[V_].shape[0];
    if (b[V_].shape[1] != K)
        FAIL("V must have K = %zd columns like U, got %zd", K, b[V_].shape[1]);
    if (b[ITEM_NOISE].shape[0] != n_items || b[ITEM_NOISE].shape[1] != K)
        FAIL("item_noise must have shape (%zd, %zd), got (%zd, %zd)", n_items, K,
             b[ITEM_NOISE].shape[0], b[ITEM_NOISE].shape[1]);
    if (check_csr(b, ITEM_PTR, n_items, n_users) < 0)
        return -1;
    return check_csr(b, USER_PTR, n_users, n_items);
}

/* -- lanes ------------------------------------------------------------------
   vdL holds L doubles, vuL and viL L unsigned and signed 64-bit integers;
   L = 1 is the scalar. Vector arithmetic is lane by lane, each lane rounded
   as the scalar operation is. LANES_L is the attribute of every function
   that handles L lanes, and each width has the same small set of
   primitives: splatL, loadL, storeL, and for the epoch pairL and columnL. */
typedef double vd1;
typedef uint64_t vu1;
typedef int64_t vi1;
typedef double vd2 __attribute__((vector_size(16)));
#define LANES_1
#define LANES_2

INLINE vd1
splat1(double x)
{
    return x;
}

/* Unaligned 16-byte load and store: rows of an odd K start at any 8 bytes. */
INLINE vd2
load2(const double *x)
{
    vd2 v;
    memcpy(&v, x, sizeof v);
    return v;
}

INLINE void
store2(double *x, vd2 v)
{
    memcpy(x, &v, sizeof v);
}

INLINE vd2
splat2(double x)
{
    return (vd2){x, x};
}

/* Lane l of *xk and *xk1: b[l][k] and b[l][k + 1], transposed from one
   16-byte load per row. */
INLINE void
pair2(const double *const *b, Py_ssize_t k, vd2 *xk, vd2 *xk1)
{
    vd2 r0 = load2(b[0] + k), r1 = load2(b[1] + k);
    *xk = (vd2){r0[0], r1[0]};
    *xk1 = (vd2){r0[1], r1[1]};
}

INLINE vd2
column2(const double *const *b, Py_ssize_t k)
{
    return (vd2){b[0][k], b[1][k]};
}

#ifdef HAVE_AVX2
typedef double vd4 __attribute__((vector_size(32)));
typedef uint64_t vu4 __attribute__((vector_size(32)));
typedef int64_t vi4 __attribute__((vector_size(32)));
#define LANES_4 __attribute__((target("avx2")))

INLINE LANES_4 vd4
load4(const double *x)
{
    vd4 v;
    memcpy(&v, x, sizeof v);
    return v;
}

INLINE LANES_4 void
store4(double *x, vd4 v)
{
    memcpy(x, &v, sizeof v);
}

INLINE LANES_4 vd4
splat4(double x)
{
    return (vd4){x, x, x, x};
}

/* As pair2 for four rows: two 256-bit concatenations of 16-byte row loads,
   rows (0 | 2) and (1 | 3), then one unpack pair within 128-bit halves,
   so lane l holds row l. */
INLINE LANES_4 void
pair4(const double *const *b, Py_ssize_t k, vd4 *xk, vd4 *xk1)
{
    vd2 r0 = load2(b[0] + k), r1 = load2(b[1] + k), r2 = load2(b[2] + k), r3 = load2(b[3] + k);
    vd4 even = __builtin_shufflevector(r0, r2, 0, 1, 2, 3);
    vd4 odd = __builtin_shufflevector(r1, r3, 0, 1, 2, 3);
    *xk = __builtin_shufflevector(even, odd, 0, 4, 2, 6);
    *xk1 = __builtin_shufflevector(even, odd, 1, 5, 3, 7);
}

INLINE LANES_4 vd4
column4(const double *const *b, Py_ssize_t k)
{
    return (vd4){b[0][k], b[1][k], b[2][k], b[3][k]};
}
#endif

/* -- the epoch --------------------------------------------------------------
   Each template below defines one routine for lane width L (2 or 4). */

/* The most ratings in one group. */
#define GROUP 16

/* add_groupL: add to acc the terms of ratings p .. p + m - 1, m a multiple
   of L, as m / L vectors: vector g holds rating p + L g + l in lane l. A
   lane's dot takes the oracle's multiply, then its add, in ascending k, so
   the vectors are m / L independent chains; each k pair of L rows is
   transposed from their 16-byte loads (pairL). Then each lane's residual,
   then acc takes the terms in ascending p, L k at a time, then 2, then 1.
   Every call passes a constant m, so b and d live in registers. */
#define DEFINE_ADD_GROUP(L)                                                                        \
    INLINE LANES_##L void add_group##L(const double *a, const double *B, const int64_t *cols,      \
                                       const double *vals, int64_t p, Py_ssize_t K,                \
                                       double *restrict acc, int m)                                \
    {                                                                                              \
        const double *b[GROUP];                                                                    \
        vd##L d[GROUP / L], a0, a1, xk, xk1, sum;                                                  \
        Py_ssize_t k;                                                                              \
        int g, r;                                                                                  \
                                                                                                   \
        for (r = 0; r < m; r++)                                                                    \
            b[r] = B + cols[p + r] * K;                                                            \
        for (g = 0; g < m / L; g++)                                                                \
            d[g] = splat##L(0.0);                                                                  \
        for (k = 0; k + 2 <= K; k += 2) {                                                          \
            a0 = splat##L(a[k]);                                                                   \
            a1 = splat##L(a[k + 1]);                                                               \
            for (g = 0; g < m / L; g++) {                                                          \
                pair##L(b + L * g, k, &xk, &xk1);                                                  \
                d[g] = d[g] + a0 * xk;                                                             \
                d[g] = d[g] + a1 * xk1;                                                            \
            }                                                                                      \
        }                                                                                          \
        if (k < K)                                                                                 \
            for (g = 0; g < m / L; g++)                                                            \
                d[g] = d[g] + splat##L(a[k]) * column##L(b + L * g, k);                            \
        for (g = 0; g < m / L; g++)                                                                \
            d[g] = 2.0 * (d[g] - load##L(vals + p + L * g));                                       \
        for (k = 0; k + L <= K; k += L) {                                                          \
            sum = load##L(acc + k);                                                                \
            for (r = 0; r < m; r++)                                                                \
                sum = sum + splat##L(d[r / L][r % L]) * load##L(b[r] + k);                         \
            store##L(acc + k, sum);                                                                \
        }                                                                                          \
        if (k + 2 <= K) { /* only after 4 k at a time */                                           \
            vd2 sum2 = load2(acc + k);                                                             \
            for (r = 0; r < m; r++)                                                                \
                sum2 = sum2 + splat2(d[r / L][r % L]) * load2(b[r] + k);                           \
            store2(acc + k, sum2);                                                                 \
            k += 2;                                                                                \
        }                                                                                          \
        if (k < K)                                                                                 \
            for (r = 0; r < m; r++)                                                                \
                acc[k] += d[r / L][r % L] * b[r][k];                                               \
    }

/* row_gradientL: acc = the sum over p in [s, e) of 2 (a . B[cols[p]] -
   vals[p]) B[cols[p]], the data term of one row's gradient: row a against
   the rows of B it is rated with. Each dot is summed in ascending k and the
   terms are added to acc in ascending p, as in oracle_epoch. The ratings go
   in groups of 16, then at most one group each of 8 and 4 (add_groupL),
   then one pair (add_group2) and one rating alone. A dot reads only a and
   B, never acc, so the groups change no operation and no order. acc is the
   call's own scratch row and aliases nothing. */
#define DEFINE_ROW_GRADIENT(L)                                                                     \
    INLINE LANES_##L void row_gradient##L(const double *a, const double *B, const int64_t *cols,   \
                                          const double *vals, int64_t s, int64_t e, Py_ssize_t K,  \
                                          double *restrict acc)                                    \
    {                                                                                              \
        Py_ssize_t k;                                                                              \
        int64_t p = s;                                                                             \
                                                                                                   \
        for (k = 0; k < K; k++)                                                                    \
            acc[k] = 0.0;                                                                          \
        for (; p + 16 <= e; p += 16)                                                               \
            add_group##L(a, B, cols, vals, p, K, acc, 16);                                         \
        if (p + 8 <= e) {                                                                          \
            add_group##L(a, B, cols, vals, p, K, acc, 8);                                          \
            p += 8;                                                                                \
        }                                                                                          \
        if (p + 4 <= e) {                                                                          \
            add_group##L(a, B, cols, vals, p, K, acc, 4);                                          \
            p += 4;                                                                                \
        }                                                                                          \
        if (p + 2 <= e) {                                                                          \
            add_group2(a, B, cols, vals, p, K, acc, 2);                                            \
            p += 2;                                                                                \
        }                                                                                          \
        if (p < e) {                                                                               \
            const double *b0 = B + cols[p] * K;                                                    \
            double d0 = 0.0;                                                                       \
            for (k = 0; k < K; k++)                                                                \
                d0 += a[k] * b0[k];                                                                \
            d0 = 2.0 * (d0 - vals[p]);                                                             \
            for (k = 0; k < K; k++)                                                                \
                acc[k] += d0 * b0[k];                                                              \
        }                                                                                          \
    }

/* epochL: all of run_epoch after its arguments are acquired: the shape and
   index checks (-1 with an exception set, before anything is written), then
   one epoch in place. U and V may overlap the other arrays for all that is
   checked, so they are not restrict. */
#define DEFINE_EPOCH(L)                                                                            \
    static LANES_##L int epoch##L(const Py_buffer *b, double lam, double eta, int project)         \
    {                                                                                              \
        double *U = b[U_].buf, *V = b[V_].buf, *acc, norm, g;                                      \
        const int64_t *item_ptr = b[ITEM_PTR].buf, *item_users = b[ITEM_USERS].buf;                \
        const int64_t *user_ptr = b[USER_PTR].buf, *user_items = b[USER_ITEMS].buf;                \
        const double *item_vals = b[ITEM_VALS].buf, *item_noise = b[ITEM_NOISE].buf;               \
        const double *user_vals = b[USER_VALS].buf;                                                \
        Py_ssize_t n_users = b[U_].shape[0], K = b[U_].shape[1], n_items = b[V_].shape[0];         \
        Py_ssize_t i, j, k;                                                                        \
                                                                                                   \
        if (check_shapes(b) < 0)                                                                   \
            return -1;                                                                             \
        acc = PyMem_Malloc(sizeof(double) * K); /* K = 0 still gets a pointer */                   \
        if (acc == NULL) {                                                                         \
            PyErr_NoMemory();                                                                      \
            return -1;                                                                             \
        }                                                                                          \
        for (j = 0; j < n_items; j++) {                                                            \
            double *v = V + j * K;                                                                 \
            const double *noise = item_noise + j * K;                                              \
            if (item_ptr[j] == item_ptr[j + 1])                                                    \
                continue; /* no raters: no update, no noise */                                     \
            row_gradient##L(v, U, item_users, item_vals, item_ptr[j], item_ptr[j + 1], K, acc);    \
            for (k = 0; k < K; k++) {                                                              \
                g = acc[k] + noise[k] + 2.0 * lam * v[k];                                          \
                v[k] = v[k] - eta * g;                                                             \
            }                                                                                      \
        }                                                                                          \
        for (i = 0; i < n_users; i++) {                                                            \
            double *u = U + i * K;                                                                 \
            row_gradient##L(u, V, user_items, user_vals, user_ptr[i], user_ptr[i + 1], K, acc);    \
            norm = 0.0;                                                                            \
            for (k = 0; k < K; k++) {                                                              \
                g = acc[k] + 2.0 * lam * u[k];                                                     \
                acc[k] = u[k] - eta * g;                                                           \
                norm += acc[k] * acc[k];                                                           \
            }                                                                                      \
            if (project && norm > 1.0) {                                                           \
                norm = sqrt(norm);                                                                 \
                for (k = 0; k < K; k++)                                                            \
                    u[k] = acc[k] / norm;                                                          \
            } else {                                                                               \
                for (k = 0; k < K; k++)                                                            \
                    u[k] = acc[k];                                                                 \
            }                                                                                      \
        }                                                                                          \
        PyMem_Free(acc);                                                                           \
        return 0;                                                                                  \
    }

DEFINE_ADD_GROUP(2)
DEFINE_ROW_GRADIENT(2)
DEFINE_EPOCH(2)
#ifdef HAVE_AVX2
DEFINE_ADD_GROUP(4)
DEFINE_ROW_GRADIENT(4)
DEFINE_EPOCH(4)
#endif

/* Philox4x64-10 (Salmon et al., "Parallel random numbers: as easy as 1, 2,
   3", SC'11; the Random123 constants): the round multipliers and the key's
   per-round increments. */
#define PHILOX_M0 UINT64_C(0xD2E7470EE14C6C93)
#define PHILOX_M1 UINT64_C(0xCA5A826395121157)
#define PHILOX_W0 UINT64_C(0x9E3779B97F4A7C15)
#define PHILOX_W1 UINT64_C(0xBB67AE8584CAA73B)
#define PHILOX_ROUNDS 10

/* The low word of the 128-bit product a * b; the high word goes to *hi.
   Without a 128-bit type the high word is assembled from 32-bit halves, as
   hdpmf._fallback does it; no partial sum can overflow 64 bits. */
static inline uint64_t
mulhilo(uint64_t a, uint64_t b, uint64_t *hi)
{
#ifdef __SIZEOF_INT128__
    unsigned __int128 p = (unsigned __int128)a * b;
    *hi = (uint64_t)(p >> 64);
    return (uint64_t)p;
#else
    const uint64_t lo32 = UINT64_C(0xFFFFFFFF);
    uint64_t a_lo = a & lo32, a_hi = a >> 32, b_lo = b & lo32, b_hi = b >> 32;
    uint64_t mid = a_hi * b_lo + ((a_lo * b_lo) >> 32);
    uint64_t cross = a_lo * b_hi + (mid & lo32);
    *hi = a_hi * b_hi + (mid >> 32) + (cross >> 32);
    return a * b;
#endif
}

/* Replace the counter x by its Philox4x64-10 block under key (k0, k1). */
static inline void
philox4x64(uint64_t x[4], uint64_t k0, uint64_t k1)
{
    uint64_t hi0, hi1, lo0, lo1;
    int r;
    for (r = 0; r < PHILOX_ROUNDS; r++) {
        if (r) {
            k0 += PHILOX_W0;
            k1 += PHILOX_W1;
        }
        lo0 = mulhilo(PHILOX_M0, x[0], &hi0);
        lo1 = mulhilo(PHILOX_M1, x[2], &hi1);
        x[0] = hi1 ^ x[1] ^ k0;
        x[1] = lo1;
        x[2] = hi0 ^ x[3] ^ k1;
        x[3] = lo0;
    }
}

/* The uniforms of counter (j, i, b, 0): word w of its block keeps its top 52
   bits and becomes the midpoint of its bin, both steps exact in double. */
static inline void
philox_uniforms(uint64_t j, uint64_t i, uint64_t b, uint64_t k0, uint64_t k1, double u[4])
{
    uint64_t x[4] = {j, i, b, 0};
    int w;
    philox4x64(x, k0, k1);
    for (w = 0; w < 4; w++)
        u[w] = ((double)(x[w] >> 12) + 0.5) * 0x1p-52;
}

/* Row r of out (n x size) holds the blocks for counters (j[r], i[r], b, 0),
   b = 0, 1, ..., word w of block b in column 4b + w. */
static void
fill_uniform(const uint64_t *j, const uint64_t *i, Py_ssize_t n, uint64_t k0, uint64_t k1,
             double *out, Py_ssize_t size)
{
    double u[4];
    Py_ssize_t r, c, w;
    for (r = 0; r < n; r++, out += size)
        for (c = 0; c < size; c += 4) {
            philox_uniforms(j[r], i[r], (uint64_t)(c / 4), k0, k1, u);
            for (w = 0; w < 4 && c + w < size; w++)
                out[c + w] = u[w];
        }
}

/* fdlibm 5.3 (Sun Microsystems, 1993): the log polynomial of e_log.c and
   the sin and cos polynomials of k_sin.c and k_cos.c on [-pi/4, pi/4]. */
static const double LN2_HI = 0x1.62e42fee00000p-1, LN2_LO = 0x1.a39ef35793c76p-33;
static const double LG1 = 0x1.5555555555593p-1, LG2 = 0x1.999999997fa04p-2,
                    LG3 = 0x1.2492494229359p-2, LG4 = 0x1.c71c51d8e78afp-3,
                    LG5 = 0x1.7466496cb03dep-3, LG6 = 0x1.39a09d078c69fp-3,
                    LG7 = 0x1.2f112df3e5244p-3;
static const double S1 = -0x1.5555555555549p-3, S2 = 0x1.111111110f8a6p-7,
                    S3 = -0x1.a01a019c161d5p-13, S4 = 0x1.71de357b1fe7dp-19,
                    S5 = -0x1.ae5e68a2b9cebp-26, S6 = 0x1.5d93a5acfd57cp-33;
static const double C1 = 0x1.555555555554cp-5, C2 = -0x1.6c16c16c15177p-10,
                    C3 = 0x1.a01a019cb1590p-16, C4 = -0x1.27e4f809c52adp-22,
                    C5 = 0x1.1ee9ebdb4b1c4p-29, C6 = -0x1.8fae9be8838d4p-37;
static const double TWO_PI = 0x1.921fb54442d18p+2;

/* The bits of 2^52 and of 1.5 2^52. An integer q in [0, 2^52) added to
   2^52 lands in the mantissa, so it is the low bits of (q + 2^52); and the
   double of the bits k + bits(1.5 2^52), less 1.5 2^52, is k exactly for
   |k| < 2^51. So no lane needs a conversion between int64 and double,
   which AVX2 lacks. */
#define RINT_BITS UINT64_C(0x4330000000000000)
#define INT_BITS UINT64_C(0x4338000000000000)

/* The transform's primitives for one lane: bits_ofL and double_ofL
   reinterpret, sqrtL is the correctly rounded square root, and pickL(c, a,
   b) is a where the comparison c holds (1 in a scalar, all ones in a
   vector lane), else b. The select is made of bit
   operations, since gcc turns a ?: between doubles into a branch, and these
   branches would mispredict on random input. evensL and oddsL read the
   uniforms of L pairs, and put_pairsL writes their normals back. */
INLINE vu1
bits_of1(vd1 x)
{
    vu1 b;
    memcpy(&b, &x, sizeof b);
    return b;
}

INLINE vd1
double_of1(vu1 b)
{
    vd1 x;
    memcpy(&x, &b, sizeof x);
    return x;
}

INLINE vd1
sqrt1(vd1 x)
{
    return sqrt(x);
}

INLINE vd1
pick1(vi1 c, vd1 a, vd1 b)
{
    vu1 mask = -(vu1)c;
    return double_of1((bits_of1(a) & mask) | (bits_of1(b) & ~mask));
}

INLINE vd1
evens1(const double *v)
{
    return v[0];
}

INLINE vd1
odds1(const double *v)
{
    return v[1];
}

INLINE void
put_pairs1(double *v, vd1 c, vd1 s)
{
    v[0] = c;
    v[1] = s;
}

#ifdef HAVE_AVX2
INLINE LANES_4 vu4
bits_of4(vd4 x)
{
    return (vu4)x;
}

INLINE LANES_4 vd4
double_of4(vu4 b)
{
    return (vd4)b;
}

INLINE LANES_4 vd4
sqrt4(vd4 x)
{
    return (vd4){sqrt(x[0]), sqrt(x[1]), sqrt(x[2]), sqrt(x[3])};
}

INLINE LANES_4 vd4
pick4(vi4 c, vd4 a, vd4 b)
{
    return double_of4((bits_of4(a) & (vu4)c) | (bits_of4(b) & ~(vu4)c));
}

/* Four pairs at v[0 .. 7] go in lanes in the order of pairs 0, 2, 1, 3:
   one unpack within each 128-bit half then splits evens from odds. */
INLINE LANES_4 vd4
evens4(const double *v)
{
    return __builtin_shufflevector(load4(v), load4(v + 4), 0, 4, 2, 6);
}

INLINE LANES_4 vd4
odds4(const double *v)
{
    return __builtin_shufflevector(load4(v), load4(v + 4), 1, 5, 3, 7);
}

INLINE LANES_4 void
put_pairs4(double *v, vd4 c, vd4 s)
{
    store4(v, __builtin_shufflevector(c, s, 0, 4, 2, 6));
    store4(v + 4, __builtin_shufflevector(c, s, 1, 5, 3, 7));
}
#endif

/* -- the transform ----------------------------------------------------------
   Each template below defines one routine for lane width L (1 or 4). The
   integer work runs in unsigned 64-bit lanes, and the comparisons on
   signed ones; every value stays the scalar's. */

/* log_unitL: log x for a positive normal double in each lane, as
   hdpmf._fallback.log_unit: x = 2^k (1 + f) with 1 + f in [sqrt(2)/2,
   sqrt(2)), then log(1 + f) from s = f / (2 + f) and its polynomial. */
#define DEFINE_LOG_UNIT(L)                                                                         \
    INLINE LANES_##L vd##L log_unit##L(vd##L x)                                                    \
    {                                                                                              \
        vu##L bits = bits_of##L(x), hx = bits >> 32, k = (hx >> 20) - 1023, i;                     \
        vd##L f, s, z, w, R, hfsq, dk, far, near;                                                  \
                                                                                                   \
        hx &= 0x000fffff;                                                                          \
        i = (hx + 0x95f64) & 0x100000;                                                             \
        k += i >> 20;                                                                              \
        /* x or x / 2 by its exponent field, whichever lies in [sqrt(2)/2, sqrt(2)) */             \
        f = double_of##L(((hx | (i ^ 0x3ff00000)) << 32) | (bits & 0xffffffff)) - 1.0;             \
        s = f / (2.0 + f);                                                                         \
        dk = double_of##L(k + INT_BITS) - 0x1.8p52;                                                \
        z = s * s;                                                                                 \
        w = z * z;                                                                                 \
        R = z * (LG1 + w * (LG3 + w * (LG5 + w * LG7))) + w * (LG2 + w * (LG4 + w * LG6));         \
        hfsq = 0.5 * f * f;                                                                        \
        far = dk * LN2_HI - ((hfsq - (s * (hfsq + R) + dk * LN2_LO)) - f);                         \
        near = dk * LN2_HI - ((s * (f - R) - dk * LN2_LO) - f);                                    \
        return pick##L((vi##L)(((vi##L)hx >= 0x6147a) & ((vi##L)hx <= 0x6b851)), far, near);       \
    }

/* sincos_turnL: sin and cos of 2 pi u for u in (0, 1) in each lane, as
   hdpmf._fallback.sincos_turn: the quarter turn q = rint(4u) and r = u -
   q/4 in [-1/8, 1/8] are exact, x = 2 pi r is rounded once, and the
   quadrant q mod 4 swaps and negates the polynomials' results. (t + 2^52) -
   2^52 is rint for t in [0, 4]. */
#define DEFINE_SINCOS_TURN(L)                                                                      \
    INLINE LANES_##L void sincos_turn##L(vd##L u, vd##L *sin_out, vd##L *cos_out)                  \
    {                                                                                              \
        vd##L t = 4.0 * u + 0x1p52, q = t - 0x1p52;                                                \
        vd##L x = (u - 0.25 * q) * TWO_PI, z = x * x, v = z * x, r, qx, s, c, near, far;           \
        vu##L ix = (bits_of##L(x) >> 32) & 0x7fffffff, quadrant = bits_of##L(t) - RINT_BITS;       \
                                                                                                   \
        r = S2 + z * (S3 + z * (S4 + z * (S5 + z * S6)));                                          \
        s = x + v * (S1 + z * r);                                                                  \
        r = z * (C1 + z * (C2 + z * (C3 + z * (C4 + z * (C5 + z * C6)))));                         \
        /* cos x = 1 - z/2 + z r, with z/2 split as qx + (z/2 - qx) once                           \
           |x| >= 0.3; qx is 0.28125 above 0.78125, else x/4 cut to its high                       \
           word */                                                                                 \
        qx = pick##L((vi##L)((vi##L)ix > 0x3fe90000), splat##L(0.28125),                           \
                     double_of##L((ix - 0x00200000) << 32));                                       \
        near = 1.0 - (0.5 * z - z * r);                                                            \
        far = (1.0 - qx) - ((0.5 * z - qx) - z * r);                                               \
        c = pick##L((vi##L)((vi##L)ix < 0x3fd33333), near, far);                                   \
        /* the quadrant swaps the two and flips sign bits */                                       \
        *sin_out = double_of##L(bits_of##L(pick##L((vi##L)((quadrant & 1) != 0), c, s))            \
                                ^ (quadrant & 2) << 62);                                           \
        *cos_out = double_of##L(bits_of##L(pick##L((vi##L)((quadrant & 1) != 0), s, c))            \
                                ^ ((quadrant + 1) & 2) << 62);                                     \
    }

/* box_muller_pairsL: Box-Muller in place over `pairs` pairs of uniforms
   (u_2m, u_2m+1) in v: they become sqrt(-2 log u_2m) times the cos and the
   sin of 2 pi u_2m+1, L pairs per step; the pairs left over take the
   scalar loop. */
#define DEFINE_BOX_MULLER_PAIRS(L)                                                                 \
    static LANES_##L void box_muller_pairs##L(double *v, Py_ssize_t pairs)                         \
    {                                                                                              \
        Py_ssize_t p, whole = pairs - pairs % L;                                                   \
        vd##L s, c, r;                                                                             \
                                                                                                   \
        for (p = 0; p < whole; p += L) {                                                           \
            r = sqrt##L(-2.0 * log_unit##L(evens##L(v + 2 * p)));                                  \
            sincos_turn##L(odds##L(v + 2 * p), &s, &c);                                            \
            put_pairs##L(v + 2 * p, r * c, r * s);                                                 \
        }                                                                                          \
        if (L > 1)                                                                                 \
            box_muller_pairs1(v + 2 * whole, pairs - whole);                                       \
    }

DEFINE_LOG_UNIT(1)
DEFINE_SINCOS_TURN(1)
DEFINE_BOX_MULLER_PAIRS(1)
#ifdef HAVE_AVX2
DEFINE_LOG_UNIT(4)
DEFINE_SINCOS_TURN(4)
DEFINE_BOX_MULLER_PAIRS(4)
#endif

/* The routines of one build, chosen when the module loads (exec_module),
   and the name the module exports as ISA. */
static const struct lanes {
    const char *isa;
    int (*epoch)(const Py_buffer *b, double lam, double eta, int project);
    void (*box_muller_pairs)(double *v, Py_ssize_t pairs);
} BASELINE = {"baseline", epoch2, box_muller_pairs1}
#ifdef HAVE_AVX2
, AVX2 = {"avx2", epoch4, box_muller_pairs4}
#endif
;

static const struct lanes *lanes = &BASELINE;

static PyObject *
run_epoch(PyObject *self, PyObject *args, PyObject *kwds)
{
    PyObject *obj[N_ARRAYS];
    Py_buffer b[N_ARRAYS];
    double lam, eta;
    int project, got = 0;
    PyObject *result = NULL;

    if (!PyArg_ParseTupleAndKeywords(args, kwds, "OOOOOOOOOddp:run_epoch", KWLIST, &obj[0], &obj[1],
                                     &obj[2], &obj[3], &obj[4], &obj[5], &obj[6], &obj[7], &obj[8],
                                     &lam, &eta, &project))
        return NULL;
    for (; got < N_ARRAYS; got++)
        if (get_array(obj[got], &b[got], KWLIST[got], SPEC[got].kind, SPEC[got].ndim, got <= V_) < 0)
            goto done;
    if (lanes->epoch(b, lam, eta, project) == 0)
        result = Py_NewRef(Py_None);
done:
    while (got-- > 0)
        PyBuffer_Release(&b[got]);
    return result;
}

/* A key word: an integer in [0, 2^64), else OverflowError (TypeError for a
   non-integer). */
static int
key_word(PyObject *obj, uint64_t *word)
{
    PyObject *index = PyNumber_Index(obj);
    if (index == NULL)
        return -1;
    *word = PyLong_AsUnsignedLongLong(index);
    Py_DECREF(index);
    return *word == (uint64_t)-1 && PyErr_Occurred() ? -1 : 0;
}

static char *KEYED_KWLIST[] = {"j", "i", "key0", "key1", "out", NULL};

/* j and i are uint64 vectors of one length, out a writable C-contiguous
   float64 matrix with that many rows, the keys 64-bit words; out is written
   only once all of them are checked. */
static PyObject *
keyed_uniform(PyObject *self, PyObject *args, PyObject *kwds)
{
    PyObject *j_obj, *i_obj, *k0_obj, *k1_obj, *out_obj, *result = NULL;
    Py_buffer j, i, out;
    uint64_t k0, k1;
    Py_ssize_t n;

    if (!PyArg_ParseTupleAndKeywords(args, kwds, "OOOOO:keyed_uniform", KEYED_KWLIST, &j_obj, &i_obj,
                                     &k0_obj, &k1_obj, &out_obj))
        return NULL;
    if (key_word(k0_obj, &k0) < 0 || key_word(k1_obj, &k1) < 0)
        return NULL;
    if (get_array(j_obj, &j, "j", 'Q', 1, 0) < 0)
        return NULL;
    if (get_array(i_obj, &i, "i", 'Q', 1, 0) < 0)
        goto release_j;
    if (get_array(out_obj, &out, "out", 'd', 2, 1) < 0)
        goto release_i;
    n = j.shape[0];
    if (i.shape[0] != n)
        PyErr_Format(PyExc_ValueError, "i must have as many entries as j (%zd), got %zd", n,
                     i.shape[0]);
    else if (out.shape[0] != n)
        PyErr_Format(PyExc_ValueError, "out must have len(j) = %zd rows, got %zd", n, out.shape[0]);
    else {
        fill_uniform(j.buf, i.buf, n, k0, k1, out.buf, out.shape[1]);
        result = Py_NewRef(Py_None);
    }
    PyBuffer_Release(&out);
release_i:
    PyBuffer_Release(&i);
release_j:
    PyBuffer_Release(&j);
    return result;
}

static char *BOX_MULLER_KWLIST[] = {"u", "out", NULL};

static PyObject *
box_muller(PyObject *self, PyObject *args, PyObject *kwds)
{
    PyObject *u_obj, *out_obj, *result = NULL;
    Py_buffer u, out;

    if (!PyArg_ParseTupleAndKeywords(args, kwds, "OO:box_muller", BOX_MULLER_KWLIST, &u_obj,
                                     &out_obj))
        return NULL;
    if (get_array(u_obj, &u, "u", 'd', 2, 0) < 0)
        return NULL;
    if (get_array(out_obj, &out, "out", 'd', 2, 1) < 0)
        goto release_u;
    if (u.shape[1] % 2)
        PyErr_Format(PyExc_ValueError, "u must have an even number of columns, got %zd", u.shape[1]);
    else if (out.shape[0] != u.shape[0] || out.shape[1] != u.shape[1])
        PyErr_Format(PyExc_ValueError, "out must have u's shape (%zd, %zd), got (%zd, %zd)",
                     u.shape[0], u.shape[1], out.shape[0], out.shape[1]);
    else {
        if (out.buf != u.buf)
            memmove(out.buf, u.buf, (size_t)u.len);
        lanes->box_muller_pairs(out.buf, u.shape[0] * u.shape[1] / 2);
        result = Py_NewRef(Py_None);
    }
    PyBuffer_Release(&out);
release_u:
    PyBuffer_Release(&u);
    return result;
}

static PyMethodDef methods[] = {
    {"run_epoch", (PyCFunction)(void (*)(void))run_epoch, METH_VARARGS | METH_KEYWORDS,
     "run_epoch($module, /, U, V, item_ptr, item_users, item_vals, item_noise, user_ptr, user_items,"
     " user_vals, lam, eta, project)\n--\n\n"
     "Run one epoch in place: item phase (ascending j), then user phase\n(ascending i)."},
    {"keyed_uniform", (PyCFunction)(void (*)(void))keyed_uniform, METH_VARARGS | METH_KEYWORDS,
     "keyed_uniform($module, /, j, i, key0, key1, out)\n--\n\n"
     "Fill out, shape (len(j), size), with doubles in (0, 1): column 4b + w of\n"
     "row r is word w of the Philox4x64-10 block for key (key0, key1) and\n"
     "counter (j[r], i[r], b, 0), as ((word >> 12) + 0.5) * 2**-52."},
    {"box_muller", (PyCFunction)(void (*)(void))box_muller, METH_VARARGS | METH_KEYWORDS,
     "box_muller($module, /, u, out)\n--\n\n"
     "Fill out with the standard normals of the uniforms u, both of one shape\n"
     "with an even number of columns: columns 2m and 2m + 1 are\n"
     "sqrt(-2 log u_2m) times the cos and the sin of 2 pi u_2m+1, by the\n"
     "portable log, sin and cos of hdpmf._fallback.box_muller. out may be u\n"
     "itself. hdpmf.rng.keyed_normal draws the keyed normals with it."},
    {NULL, NULL, 0, NULL},
};

static int
exec_module(PyObject *m)
{
#ifdef HAVE_AVX2
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx2"))
        lanes = &AVX2;
#endif
    if (PyModule_AddStringConstant(m, "NAME", "native") < 0)
        return -1;
    return PyModule_AddStringConstant(m, "ISA", lanes->isa);
}

static PyModuleDef_Slot slots[] = {{Py_mod_exec, exec_module}, {0, NULL}};

static struct PyModuleDef module = {
    .m_base = PyModuleDef_HEAD_INIT,
    .m_name = "_native",
    .m_doc = "Compiled kernels: one training epoch over CSR rating arrays, keyed\n"
              "Philox4x64-10 uniforms and their Box-Muller transform. ISA names the\n"
              "lane width chosen when the module loaded: 'avx2' or 'baseline'.",
    .m_methods = methods,
    .m_slots = slots,
};

PyMODINIT_FUNC
PyInit__native(void)
{
    return PyModuleDef_Init(&module);
}
