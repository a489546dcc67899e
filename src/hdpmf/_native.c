/* Compiled kernels: one full-batch training epoch over CSR rating arrays,
 * and the keyed Philox4x64-10 uniforms and normals of every seeded draw.
 *
 * The epoch runs the item phase, then the user phase; each is a Jacobi
 * sweep over the rows. Both phases form a row's data term in one routine,
 * which computes the dot products of two ratings in each lane pair of a
 * 128-bit vector, up to 16 ratings side by side. The vectors are GCC and
 * Clang vector extensions, held by baseline SSE2 and NEON, so the
 * extension needs one of those compilers; elsewhere its optional build
 * fails and the NumPy fallback runs. hdpmf._fallback.run_epoch runs the
 * same sweeps in NumPy blocks of rows; the backends agree to reduction
 * order. Each dot and each gradient entry still takes the additions and
 * multiplications of the scalar reference `oracle_epoch` in
 * tests/oracles.py, in its order, so the kernel matches it bit for bit.
 *
 * keyed_uniform computes the same words as hdpmf._fallback.philox4x64 and
 * maps them to doubles exactly, so both backends draw the same bits.
 * keyed_normal runs Box-Muller on those uniforms (box_muller, on uniforms
 * given) with the operations of hdpmf._fallback.box_muller, in its order:
 * fdlibm's log, sin and cos polynomials, made of +, -, *, /, sqrt and exact
 * bit operations only.
 *
 * Each of those operations is rounded once, in a vector lane as in a
 * scalar: the pragma below keeps the compiler from contracting a*b + c
 * into one fused multiply-add, whatever flags it is given, so the results
 * are the same bits on every IEEE-754 machine.
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
   [0, n_cols). */
static int
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
static int
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

/* Two doubles in one 128-bit vector: a GCC and Clang vector extension that
   baseline SSE2 and NEON registers hold, with no intrinsics header. Its
   arithmetic is lane by lane, each lane rounded as the scalar operation is. */
typedef double v2d __attribute__((vector_size(16)));

/* Unaligned 16-byte load and store: rows of an odd K start at any 8 bytes. */
static inline v2d
load2(const double *x)
{
    v2d v;
    memcpy(&v, x, sizeof v);
    return v;
}

static inline void
store2(double *x, v2d v)
{
    memcpy(x, &v, sizeof v);
}

/* The most lane pairs in one group: 16 ratings. */
#define MAX_PAIRS 8

/* Add to acc the terms of ratings p .. p + 2 n - 1, as n lane pairs: pair
   g holds ratings p + 2g and p + 2g + 1 in lanes 0 and 1. A lane's dot takes
   the oracle's multiply, then its add, in ascending k, so the n pairs are n
   independent chains; each k pair of two rows is transposed from two loads.
   Then each lane's residual, then acc[k] and acc[k + 1] take the terms in
   ascending p. Every call passes a constant n, so b and d live in
   registers. */
static inline __attribute__((always_inline)) void
add_pairs(const double *a, const double *B, const int64_t *cols, const double *vals, int64_t p,
          Py_ssize_t K, double *restrict acc, int n)
{
    const double *b[2 * MAX_PAIRS];
    v2d d[MAX_PAIRS], a0, a1, x, y, sum;
    Py_ssize_t k;
    int g;

    for (g = 0; g < 2 * n; g++)
        b[g] = B + cols[p + g] * K;
    for (g = 0; g < n; g++)
        d[g] = (v2d){0.0, 0.0};
    for (k = 0; k + 2 <= K; k += 2) {
        a0 = (v2d){a[k], a[k]};
        a1 = (v2d){a[k + 1], a[k + 1]};
        for (g = 0; g < n; g++) {
            x = load2(b[2 * g] + k);
            y = load2(b[2 * g + 1] + k);
            d[g] = d[g] + a0 * (v2d){x[0], y[0]};
            d[g] = d[g] + a1 * (v2d){x[1], y[1]};
        }
    }
    if (k < K) {
        a0 = (v2d){a[k], a[k]};
        for (g = 0; g < n; g++)
            d[g] = d[g] + a0 * (v2d){b[2 * g][k], b[2 * g + 1][k]};
    }
    for (g = 0; g < n; g++)
        d[g] = 2.0 * (d[g] - load2(vals + p + 2 * g));
    for (k = 0; k + 2 <= K; k += 2) {
        sum = load2(acc + k);
        for (g = 0; g < n; g++) {
            sum = sum + (v2d){d[g][0], d[g][0]} * load2(b[2 * g] + k);
            sum = sum + (v2d){d[g][1], d[g][1]} * load2(b[2 * g + 1] + k);
        }
        store2(acc + k, sum);
    }
    if (k < K)
        for (g = 0; g < n; g++) {
            acc[k] += d[g][0] * b[2 * g][k];
            acc[k] += d[g][1] * b[2 * g + 1][k];
        }
}

/* acc = the sum over p in [s, e) of 2 (a . B[cols[p]] - vals[p]) B[cols[p]]:
   the data term of one row's gradient, row a against the rows of B it is
   rated with. Each dot is summed in ascending k and the terms are added to
   acc in ascending p, as in oracle_epoch. The ratings go in groups of 16,
   then at most one group each of 8, 4 and 2 and one rating alone; a
   group's dots run two to a vector (add_pairs). A dot reads only a and B,
   never acc, so this changes no operation and no order. acc is the call's
   own scratch row and aliases nothing. */
static inline void
row_gradient(const double *a, const double *B, const int64_t *cols, const double *vals, int64_t s,
             int64_t e, Py_ssize_t K, double *restrict acc)
{
    Py_ssize_t k;
    int64_t p = s;

    for (k = 0; k < K; k++)
        acc[k] = 0.0;
    for (; p + 16 <= e; p += 16)
        add_pairs(a, B, cols, vals, p, K, acc, 8);
    if (p + 8 <= e) {
        add_pairs(a, B, cols, vals, p, K, acc, 4);
        p += 8;
    }
    if (p + 4 <= e) {
        add_pairs(a, B, cols, vals, p, K, acc, 2);
        p += 4;
    }
    if (p + 2 <= e) {
        add_pairs(a, B, cols, vals, p, K, acc, 1);
        p += 2;
    }
    if (p < e) {
        const double *b0 = B + cols[p] * K;
        double d0 = 0.0;
        for (k = 0; k < K; k++)
            d0 += a[k] * b0[k];
        d0 = 2.0 * (d0 - vals[p]);
        for (k = 0; k < K; k++)
            acc[k] += d0 * b0[k];
    }
}

/* U and V may overlap the other arrays for all that is checked, so they are
   not restrict. */
static void
epoch(const Py_buffer *b, double lam, double eta, int project, double *restrict acc)
{
    double *U = b[U_].buf, *V = b[V_].buf;
    const int64_t *item_ptr = b[ITEM_PTR].buf, *item_users = b[ITEM_USERS].buf;
    const int64_t *user_ptr = b[USER_PTR].buf, *user_items = b[USER_ITEMS].buf;
    const double *item_vals = b[ITEM_VALS].buf, *item_noise = b[ITEM_NOISE].buf;
    const double *user_vals = b[USER_VALS].buf;
    Py_ssize_t n_users = b[U_].shape[0], K = b[U_].shape[1], n_items = b[V_].shape[0];
    Py_ssize_t i, j, k;
    double norm, g;

    for (j = 0; j < n_items; j++) {
        double *v = V + j * K;
        const double *noise = item_noise + j * K;
        if (item_ptr[j] == item_ptr[j + 1])
            continue; /* no raters: no update, no noise */
        row_gradient(v, U, item_users, item_vals, item_ptr[j], item_ptr[j + 1], K, acc);
        for (k = 0; k < K; k++) {
            g = acc[k] + noise[k] + 2.0 * lam * v[k];
            v[k] = v[k] - eta * g;
        }
    }

    for (i = 0; i < n_users; i++) {
        double *u = U + i * K;
        row_gradient(u, V, user_items, user_vals, user_ptr[i], user_ptr[i + 1], K, acc);
        norm = 0.0;
        for (k = 0; k < K; k++) {
            g = acc[k] + 2.0 * lam * u[k];
            acc[k] = u[k] - eta * g;
            norm += acc[k] * acc[k];
        }
        if (project && norm > 1.0) {
            norm = sqrt(norm);
            for (k = 0; k < K; k++)
                u[k] = acc[k] / norm;
        } else {
            for (k = 0; k < K; k++)
                u[k] = acc[k];
        }
    }
}

static PyObject *
run_epoch(PyObject *self, PyObject *args, PyObject *kwds)
{
    PyObject *obj[N_ARRAYS];
    Py_buffer b[N_ARRAYS];
    double lam, eta, *acc;
    int project, got = 0;
    PyObject *result = NULL;

    if (!PyArg_ParseTupleAndKeywords(args, kwds, "OOOOOOOOOddp:run_epoch", KWLIST, &obj[0], &obj[1],
                                     &obj[2], &obj[3], &obj[4], &obj[5], &obj[6], &obj[7], &obj[8],
                                     &lam, &eta, &project))
        return NULL;
    for (; got < N_ARRAYS; got++)
        if (get_array(obj[got], &b[got], KWLIST[got], SPEC[got].kind, SPEC[got].ndim, got <= V_) < 0)
            goto done;
    if (check_shapes(b) < 0)
        goto done;
    acc = PyMem_Malloc(sizeof(double) * b[U_].shape[1]); /* K = 0 still gets a pointer */
    if (acc == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    epoch(b, lam, eta, project, acc);
    PyMem_Free(acc);
    result = Py_NewRef(Py_None);
done:
    while (got-- > 0)
        PyBuffer_Release(&b[got]);
    return result;
}

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

static inline uint64_t
bits_of(double x)
{
    uint64_t b;
    memcpy(&b, &x, sizeof b);
    return b;
}

static inline double
double_of(uint64_t b)
{
    double x;
    memcpy(&x, &b, sizeof x);
    return x;
}

/* a where `pick` is 1, else b. The select is made of bit operations, since
   gcc turns a ?: between doubles into a branch, and these branches would
   mispredict on random input. */
static inline double
pick_bits(int pick, double a, double b)
{
    uint64_t mask = -(uint64_t)pick;
    return double_of((bits_of(a) & mask) | (bits_of(b) & ~mask));
}

/* log x for a positive normal double, as hdpmf._fallback.log_unit: x =
   2^k (1 + f) with 1 + f in [sqrt(2)/2, sqrt(2)), then log(1 + f) from
   s = f / (2 + f) and its polynomial. */
static inline double
log_unit(double x)
{
    uint64_t bits = bits_of(x);
    int64_t hx = (int64_t)(bits >> 32), k = (hx >> 20) - 1023, i;
    double f, s, z, w, R, hfsq, dk, far, near;

    hx &= 0x000fffff;
    i = (hx + 0x95f64) & 0x100000;
    k += i >> 20;
    /* x or x / 2 by its exponent field, whichever lies in [sqrt(2)/2, sqrt(2)) */
    f = double_of(((uint64_t)(hx | (i ^ 0x3ff00000)) << 32) | (bits & UINT64_C(0xffffffff))) - 1.0;
    s = f / (2.0 + f);
    dk = (double)k;
    z = s * s;
    w = z * z;
    R = z * (LG1 + w * (LG3 + w * (LG5 + w * LG7))) + w * (LG2 + w * (LG4 + w * LG6));
    hfsq = 0.5 * f * f;
    far = dk * LN2_HI - ((hfsq - (s * (hfsq + R) + dk * LN2_LO)) - f);
    near = dk * LN2_HI - ((s * (f - R) - dk * LN2_LO) - f);
    return pick_bits(hx >= 0x6147a && hx <= 0x6b851, far, near);
}

/* sin and cos of 2 pi u for u in (0, 1), as hdpmf._fallback.sincos_turn:
   the quarter turn q = rint(4u) and r = u - q/4 in [-1/8, 1/8] are exact,
   x = 2 pi r is rounded once, and the quadrant q mod 4 swaps and negates
   the polynomials' results. (t + 2^52) - 2^52 is rint for t in [0, 4]. */
static inline void
sincos_turn(double u, double *sin_out, double *cos_out)
{
    double q = (4.0 * u + 0x1p52) - 0x1p52;
    double x = (u - 0.25 * q) * TWO_PI, z = x * x, v = z * x, r, qx, s, c, near, far;
    int64_t ix = (int64_t)(bits_of(x) >> 32) & 0x7fffffff, quadrant = (int64_t)q;

    r = S2 + z * (S3 + z * (S4 + z * (S5 + z * S6)));
    s = x + v * (S1 + z * r);
    r = z * (C1 + z * (C2 + z * (C3 + z * (C4 + z * (C5 + z * C6)))));
    /* cos x = 1 - z/2 + z r, with z/2 split as qx + (z/2 - qx) once
       |x| >= 0.3; qx is 0.28125 above 0.78125, else x/4 cut to its high
       word */
    qx = pick_bits(ix > 0x3fe90000, 0.28125, double_of((uint64_t)(ix - 0x00200000) << 32));
    near = 1.0 - (0.5 * z - z * r);
    far = (1.0 - qx) - ((0.5 * z - qx) - z * r);
    c = pick_bits(ix < 0x3fd33333, near, far);
    /* the quadrant swaps the two and flips sign bits */
    *sin_out = double_of(bits_of(pick_bits(quadrant & 1, c, s)) ^ (uint64_t)(quadrant & 2) << 62);
    *cos_out = double_of(bits_of(pick_bits(quadrant & 1, s, c)) ^ (uint64_t)((quadrant + 1) & 2) << 62);
}

/* Box-Muller in place over `pairs` pairs of uniforms (u_2m, u_2m+1) in v:
   they become sqrt(-2 log u_2m) times the cos and the sin of 2 pi u_2m+1.
   Each stage runs as its own loop: short loops of independent iterations
   keep more of the long dependency chains of log and sin in flight than
   one fused loop does. */
static void
box_muller_pairs(double *v, Py_ssize_t pairs)
{
    Py_ssize_t p;
    double s, c;
    for (p = 0; p < pairs; p++)
        v[2 * p] = sqrt(-2.0 * log_unit(v[2 * p]));
    for (p = 0; p < pairs; p++) {
        sincos_turn(v[2 * p + 1], &s, &c);
        v[2 * p + 1] = v[2 * p] * s;
        v[2 * p] = v[2 * p] * c;
    }
}

/* Doubles of out that fill_normal draws and transforms per pass, in L1. */
#define NORMAL_CHUNK 512

/* Row r of out (n x size) holds box_muller_pairs of the uniforms that
   fill_uniform would write there, plus one more for an odd size, whose
   last sin is dropped. */
static void
fill_normal(const uint64_t *j, const uint64_t *i, Py_ssize_t n, uint64_t k0, uint64_t k1,
            double *out, Py_ssize_t size)
{
    /* the uniform after each row's last, for an odd size */
    double u[4], tail[NORMAL_CHUNK], s, c, *o;
    Py_ssize_t rows = size < NORMAL_CHUNK ? NORMAL_CHUNK / (size ? size : 1) : 1;
    Py_ssize_t r0, r, col, w, nr;

    for (r0 = 0; r0 < n; r0 += rows) {
        nr = n - r0 < rows ? n - r0 : rows;
        o = out + r0 * size;
        for (r = 0; r < nr; r++)
            for (col = 0; col < size; col += 4) {
                philox_uniforms(j[r0 + r], i[r0 + r], (uint64_t)(col / 4), k0, k1, u);
                for (w = 0; w < 4 && col + w < size; w++)
                    o[r * size + col + w] = u[w];
                if (w < 4 && (size & 1))
                    tail[r] = u[w];
            }
        if (!(size & 1)) {
            box_muller_pairs(o, nr * size / 2);
            continue;
        }
        for (r = 0; r < nr; r++, o += size) {
            box_muller_pairs(o, size / 2);
            sincos_turn(tail[r], &s, &c);
            o[size - 1] = sqrt(-2.0 * log_unit(o[size - 1])) * c;
        }
    }
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

typedef void (*keyed_fill)(const uint64_t *, const uint64_t *, Py_ssize_t, uint64_t, uint64_t,
                           double *, Py_ssize_t);

/* The one argument checker of keyed_uniform and keyed_normal (`format`
   names the caller in errors): j and i are uint64 vectors of one length,
   out a writable C-contiguous float64 matrix with that many rows, the keys
   64-bit words. Then `fill` writes out. */
static PyObject *
keyed(PyObject *args, PyObject *kwds, const char *format, keyed_fill fill)
{
    PyObject *j_obj, *i_obj, *k0_obj, *k1_obj, *out_obj, *result = NULL;
    Py_buffer j, i, out;
    uint64_t k0, k1;
    Py_ssize_t n;

    if (!PyArg_ParseTupleAndKeywords(args, kwds, format, KEYED_KWLIST, &j_obj, &i_obj, &k0_obj,
                                     &k1_obj, &out_obj))
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
        fill(j.buf, i.buf, n, k0, k1, out.buf, out.shape[1]);
        result = Py_NewRef(Py_None);
    }
    PyBuffer_Release(&out);
release_i:
    PyBuffer_Release(&i);
release_j:
    PyBuffer_Release(&j);
    return result;
}

static PyObject *
keyed_uniform(PyObject *self, PyObject *args, PyObject *kwds)
{
    return keyed(args, kwds, "OOOOO:keyed_uniform", fill_uniform);
}

static PyObject *
keyed_normal(PyObject *self, PyObject *args, PyObject *kwds)
{
    return keyed(args, kwds, "OOOOO:keyed_normal", fill_normal);
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
        box_muller_pairs(out.buf, u.shape[0] * u.shape[1] / 2);
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
    {"keyed_normal", (PyCFunction)(void (*)(void))keyed_normal, METH_VARARGS | METH_KEYWORDS,
     "keyed_normal($module, /, j, i, key0, key1, out)\n--\n\n"
     "Fill out, shape (len(j), size), with standard normals: columns 2m and\n"
     "2m + 1 of row r are Box-Muller's pair from the keyed uniforms 2m and\n"
     "2m + 1 of row r, by the portable log, sin and cos of\n"
     "hdpmf._fallback.keyed_normal."},
    {"box_muller", (PyCFunction)(void (*)(void))box_muller, METH_VARARGS | METH_KEYWORDS,
     "box_muller($module, /, u, out)\n--\n\n"
     "Fill out with the standard normals of the uniforms u, both of one shape\n"
     "with an even number of columns: columns 2m and 2m + 1 are\n"
     "sqrt(-2 log u_2m) times the cos and the sin of 2 pi u_2m+1, the\n"
     "transform of keyed_normal. out may be u itself."},
    {NULL, NULL, 0, NULL},
};

static int
exec_module(PyObject *m)
{
    return PyModule_AddStringConstant(m, "NAME", "native");
}

static PyModuleDef_Slot slots[] = {{Py_mod_exec, exec_module}, {0, NULL}};

static struct PyModuleDef module = {
    .m_base = PyModuleDef_HEAD_INIT,
    .m_name = "_native",
    .m_doc = "Compiled kernels: one training epoch over CSR rating arrays, and keyed\n"
              "Philox4x64-10 uniforms and normals.",
    .m_methods = methods,
    .m_slots = slots,
};

PyMODINIT_FUNC
PyInit__native(void)
{
    return PyModuleDef_Init(&module);
}
