/* Compiled kernels: one full-batch training epoch over CSR rating arrays,
 * and the keyed Philox4x64-10 uniforms of the noise plan.
 *
 * The epoch runs the item phase, then the user phase; each is a Jacobi
 * sweep, run here one row at a time. hdpmf._fallback.run_epoch runs the same
 * sweeps in NumPy blocks of rows; the backends agree to reduction order. The
 * loops follow the scalar reference `oracle_epoch` in tests/test_kernels.py
 * statement for statement, so where the compiler does not contract to FMA
 * they match it bit for bit.
 *
 * keyed_uniform computes the same words as hdpmf._fallback.philox4x64 and
 * maps them to doubles exactly, so both backends draw the same bits.
 *
 * Arrays arrive through the buffer protocol, so the module needs only
 * Python.h; every argument is checked before anything is written.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>
#include <stdint.h>

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

/* acc is this call's own scratch row, so it aliases nothing; U and V may
   overlap the other arrays for all that is checked, so they are not restrict. */
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
    int64_t p, s, e;
    double dot, resid, norm, g;

    for (j = 0; j < n_items; j++) {
        double *v = V + j * K;
        const double *noise = item_noise + j * K;
        s = item_ptr[j];
        e = item_ptr[j + 1];
        if (s == e)
            continue; /* no raters: no update, no noise */
        for (k = 0; k < K; k++)
            acc[k] = 0.0;
        for (p = s; p < e; p++) {
            const double *u = U + item_users[p] * K;
            dot = 0.0;
            for (k = 0; k < K; k++)
                dot += u[k] * v[k];
            resid = 2.0 * (dot - item_vals[p]);
            for (k = 0; k < K; k++)
                acc[k] += resid * u[k];
        }
        for (k = 0; k < K; k++) {
            g = acc[k] + noise[k] + 2.0 * lam * v[k];
            v[k] = v[k] - eta * g;
        }
    }

    for (i = 0; i < n_users; i++) {
        double *u = U + i * K;
        s = user_ptr[i];
        e = user_ptr[i + 1];
        for (k = 0; k < K; k++)
            acc[k] = 0.0;
        for (p = s; p < e; p++) {
            const double *v = V + user_items[p] * K;
            dot = 0.0;
            for (k = 0; k < K; k++)
                dot += u[k] * v[k];
            resid = 2.0 * (dot - user_vals[p]);
            for (k = 0; k < K; k++)
                acc[k] += resid * v[k];
        }
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

/* Row r of out (n x size) holds the blocks for counters (j[r], i[r], b, 0),
   b = 0, 1, ..., word w of block b in column 4b + w. A word keeps its top 52
   bits and becomes the midpoint of its bin: both steps are exact in double. */
static void
fill_uniform(const uint64_t *j, const uint64_t *i, Py_ssize_t n, uint64_t k0, uint64_t k1,
             double *out, Py_ssize_t size)
{
    uint64_t x[4];
    Py_ssize_t r, c, w;
    for (r = 0; r < n; r++, out += size)
        for (c = 0; c < size; c += 4) {
            x[0] = j[r];
            x[1] = i[r];
            x[2] = (uint64_t)(c / 4);
            x[3] = 0;
            philox4x64(x, k0, k1);
            for (w = 0; w < 4 && c + w < size; w++)
                out[c + w] = ((double)(x[w] >> 12) + 0.5) * 0x1p-52;
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

static char *UNIFORM_KWLIST[] = {"j", "i", "key0", "key1", "out", NULL};

static PyObject *
keyed_uniform(PyObject *self, PyObject *args, PyObject *kwds)
{
    PyObject *j_obj, *i_obj, *k0_obj, *k1_obj, *out_obj, *result = NULL;
    Py_buffer j, i, out;
    uint64_t k0, k1;
    Py_ssize_t n;

    if (!PyArg_ParseTupleAndKeywords(args, kwds, "OOOOO:keyed_uniform", UNIFORM_KWLIST, &j_obj,
                                     &i_obj, &k0_obj, &k1_obj, &out_obj))
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
              "Philox4x64-10 uniforms.",
    .m_methods = methods,
    .m_slots = slots,
};

PyMODINIT_FUNC
PyInit__native(void)
{
    return PyModuleDef_Init(&module);
}
