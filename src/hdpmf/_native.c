/* Compiled training kernel: one full-batch epoch over CSR rating arrays.
 *
 * The item phase, then the user phase; each is a Jacobi sweep, run here one
 * row at a time. hdpmf._fallback.run_epoch runs the same sweeps in NumPy
 * blocks of rows; the backends agree to reduction order. The loops follow
 * the scalar reference `oracle_epoch` in tests/test_kernels.py statement for
 * statement, so where the compiler does not contract to FMA they match it
 * bit for bit. Arrays arrive through the buffer protocol, so the module
 * needs only Python.h; every argument is checked before anything is written.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>
#include <stdint.h>

/* The nine array arguments, in call order: float64 ('d') or int64 ('q'),
   with their number of dimensions. Only U and V are written. */
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

/* Whether a struct-module format names one native float64 ('d') or int64
   ('q': also 'l' where long has 8 bytes). */
static int
format_is(const Py_buffer *b, char kind)
{
    const char *f = b->format ? b->format : "B";
    if (*f == '@' || *f == '=')
        f++;
    if (b->itemsize != 8 || f[0] == '\0' || f[1] != '\0')
        return 0;
    return kind == 'd' ? f[0] == 'd' : (f[0] == 'q' || (f[0] == 'l' && sizeof(long) == 8));
}

/* Acquire argument `a` as a C-contiguous buffer of the kind SPEC gives. */
static int
get_array(PyObject *obj, Py_buffer *b, int a)
{
    const char *name = KWLIST[a];
    if (PyObject_GetBuffer(obj, b, PyBUF_RECORDS_RO) < 0)
        return -1;
    if (!format_is(b, SPEC[a].kind))
        PyErr_Format(PyExc_TypeError, "%s must hold %s, got format '%s'", name,
                     SPEC[a].kind == 'd' ? "float64" : "int64", b->format ? b->format : "B");
    else if (b->ndim != SPEC[a].ndim)
        PyErr_Format(PyExc_ValueError, "%s must have %d dimension(s), got %d", name, SPEC[a].ndim, b->ndim);
    else if (!PyBuffer_IsContiguous(b, 'C'))
        PyErr_Format(PyExc_ValueError, "%s must be C-contiguous", name);
    else if (a <= V_ && b->readonly)
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
        if (get_array(obj[got], &b[got], got) < 0)
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

static PyMethodDef methods[] = {
    {"run_epoch", (PyCFunction)(void (*)(void))run_epoch, METH_VARARGS | METH_KEYWORDS,
     "run_epoch($module, /, U, V, item_ptr, item_users, item_vals, item_noise, user_ptr, user_items,"
     " user_vals, lam, eta, project)\n--\n\n"
     "Run one epoch in place: item phase (ascending j), then user phase\n(ascending i)."},
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
    .m_doc = "Compiled training kernel: one full-batch epoch over CSR rating arrays.",
    .m_methods = methods,
    .m_slots = slots,
};

PyMODINIT_FUNC
PyInit__native(void)
{
    return PyModuleDef_Init(&module);
}
