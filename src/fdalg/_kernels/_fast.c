/* Compiled incremental row echelon over F_p, for 2 <= p < 2**31.
 *
 * FpEchelon mirrors ``pure.FpEchelon`` exactly; tests/test_kernels.py
 * cross-checks the two on random inputs.  Entries are stored as reduced
 * residues in int64, so the product of two is below 2**62 and no sum
 * overflows.  Plain CPython C API, no code generator:
 *
 *     python3 setup.py build_ext --inplace
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h>
#include <string.h>

typedef long long i64;

#define P_LIMIT (1LL << 31)

typedef struct {
    PyObject_HEAD
    i64 p;
    Py_ssize_t width, nrows, cap;
    i64 *data;          /* cap rows of width entries; the first nrows hold the RREF */
    i64 *pivs;          /* pivot column of each row, strictly increasing */
} FpEchelon;

static i64
inv_mod(i64 a, i64 p)
{
    i64 result = 1, e = p - 2;
    a %= p;
    while (e) {
        if (e & 1)
            result = result * a % p;
        a = a * a % p;
        e >>= 1;
    }
    return result;
}

/* Room for cap rows.  On failure the accumulator is unchanged, apart from a
 * data buffer that may have grown. */
static int
resize(FpEchelon *self, Py_ssize_t cap)
{
    i64 *data = NULL, *pivs;

    if (self->width == 0 || cap <= PY_SSIZE_T_MAX / (Py_ssize_t)sizeof(i64) / self->width)
        data = PyMem_Realloc(self->data, cap * self->width * sizeof(i64));
    if (data == NULL)
        goto nomem;
    self->data = data;
    pivs = PyMem_Realloc(self->pivs, cap * sizeof(i64));
    if (pivs == NULL)
        goto nomem;
    self->pivs = pivs;
    self->cap = cap;
    return 0;
nomem:
    PyErr_NoMemory();
    return -1;
}

static PyObject *
FpEchelon_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"width", "p", NULL};
    Py_ssize_t width;
    PyObject *pobj;
    FpEchelon *self;
    int overflow;
    i64 p;

    if (!PyArg_ParseTupleAndKeywords(args, kwds, "nO:FpEchelon", kwlist, &width, &pobj))
        return NULL;
    p = PyLong_AsLongLongAndOverflow(pobj, &overflow);
    if (p == -1 && PyErr_Occurred())
        return NULL;
    if (overflow || p < 2 || p >= P_LIMIT || width < 0) {
        PyErr_SetString(PyExc_ValueError, "FpEchelon needs width >= 0 and 2 <= p < 2**31");
        return NULL;
    }
    self = (FpEchelon *)type->tp_alloc(type, 0);
    if (self == NULL)
        return NULL;
    self->p = p;
    self->width = width;
    if (resize(self, 8) < 0) {
        Py_DECREF(self);
        return NULL;
    }
    return (PyObject *)self;
}

static void
FpEchelon_dealloc(FpEchelon *self)
{
    PyMem_Free(self->data);
    PyMem_Free(self->pivs);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

/* x mod p, in [0, p), into *out; -1 with an exception set on failure. */
static int
residue(PyObject *x, i64 p, i64 *out)
{
    int overflow;
    i64 v = PyLong_AsLongLongAndOverflow(x, &overflow);

    if (overflow) {
        /* Beyond int64: reduce with Python's own x % p, as pure does. */
        PyObject *pobj = PyLong_FromLongLong(p), *r;
        if (pobj == NULL)
            return -1;
        r = PyNumber_Remainder(x, pobj);
        Py_DECREF(pobj);
        if (r == NULL)
            return -1;
        v = PyLong_AsLongLong(r);
        Py_DECREF(r);
    }
    if (v == -1 && PyErr_Occurred())
        return -1;
    v %= p;
    *out = v < 0 ? v + p : v;
    return 0;
}

/* The row as residues in a new buffer, or NULL with an exception set. */
static i64 *
load(FpEchelon *self, PyObject *vec)
{
    PyObject *seq = PySequence_Fast(vec, "FpEchelon rows must be sequences");
    Py_ssize_t j, n;
    i64 *buf = NULL;

    if (seq == NULL)
        return NULL;
    n = PySequence_Fast_GET_SIZE(seq);
    if (n != self->width)
        goto mismatch;
    buf = PyMem_New(i64, n);
    if (buf == NULL) {
        PyErr_NoMemory();
        goto fail;
    }
    for (j = 0; j < n; j++) {
        PyObject *x;
        int bad;
        /* A list entry's __index__ may shrink the list it sits in. */
        if (j >= PySequence_Fast_GET_SIZE(seq))
            goto mismatch;
        x = PySequence_Fast_GET_ITEM(seq, j);
        Py_INCREF(x);
        bad = residue(x, self->p, buf + j);
        Py_DECREF(x);
        if (bad)
            goto fail;
    }
    Py_DECREF(seq);
    return buf;
mismatch:
    PyErr_SetString(PyExc_ValueError, "row length mismatch");
fail:
    PyMem_Free(buf);
    Py_DECREF(seq);
    return NULL;
}

/* dst -= c * src over columns from..w-1, as dst + (p - c) * src so that no
 * intermediate is negative; both hold residues and 0 < c < p. */
static void
subtract(i64 *dst, const i64 *src, i64 c, i64 p, Py_ssize_t from, Py_ssize_t w)
{
    const i64 m = p - c;

    for (Py_ssize_t j = from; j < w; j++)
        if (src[j])
            dst[j] = (dst[j] + m * src[j]) % p;
}

/* Clear buf at every stored pivot; buf holds residues and keeps them. */
static void
reduce_buf(const FpEchelon *self, i64 *buf)
{
    for (Py_ssize_t r = 0; r < self->nrows; r++) {
        const Py_ssize_t piv = self->pivs[r];
        if (buf[piv])
            subtract(buf, self->data + r * self->width, buf[piv], self->p, piv, self->width);
    }
}

static PyObject *
to_list(const i64 *v, Py_ssize_t n)
{
    PyObject *out = PyList_New(n);
    Py_ssize_t j;

    if (out == NULL)
        return NULL;
    for (j = 0; j < n; j++) {
        PyObject *x = PyLong_FromLongLong(v[j]);
        if (x == NULL) {
            Py_DECREF(out);
            return NULL;
        }
        PyList_SET_ITEM(out, j, x);
    }
    return out;
}

static PyObject *
FpEchelon_reduce(FpEchelon *self, PyObject *vec)
{
    i64 *buf = load(self, vec);
    PyObject *out;

    if (buf == NULL)
        return NULL;
    reduce_buf(self, buf);
    out = to_list(buf, self->width);
    PyMem_Free(buf);
    return out;
}

static PyObject *
FpEchelon_insert(FpEchelon *self, PyObject *vec)
{
    const i64 p = self->p;
    const Py_ssize_t w = self->width;
    Py_ssize_t piv = 0, pos = 0, r, j;
    i64 inv;
    i64 *buf = load(self, vec);

    if (buf == NULL)
        return NULL;
    reduce_buf(self, buf);
    while (piv < w && !buf[piv])
        piv++;
    if (piv == w) {
        PyMem_Free(buf);
        Py_RETURN_FALSE;
    }
    /* Grow before any stored row changes, so a MemoryError leaves the basis intact. */
    if (self->nrows == self->cap && resize(self, 2 * self->cap) < 0) {
        PyMem_Free(buf);
        return NULL;
    }
    inv = inv_mod(buf[piv], p);
    if (inv != 1)
        for (j = piv; j < w; j++)
            buf[j] = buf[j] * inv % p;
    for (r = 0; r < self->nrows; r++) {
        i64 *row = self->data + r * w;
        if (row[piv])
            subtract(row, buf, row[piv], p, piv, w);
    }
    while (pos < self->nrows && self->pivs[pos] < piv)
        pos++;
    memmove(self->data + (pos + 1) * w, self->data + pos * w,
            (self->nrows - pos) * w * sizeof(i64));
    memmove(self->pivs + pos + 1, self->pivs + pos, (self->nrows - pos) * sizeof(i64));
    memcpy(self->data + pos * w, buf, w * sizeof(i64));
    self->pivs[pos] = piv;
    self->nrows++;
    PyMem_Free(buf);
    Py_RETURN_TRUE;
}

static PyObject *
FpEchelon_rows(FpEchelon *self, PyObject *Py_UNUSED(ignored))
{
    PyObject *out = PyList_New(self->nrows);
    Py_ssize_t r;

    if (out == NULL)
        return NULL;
    for (r = 0; r < self->nrows; r++) {
        PyObject *row = to_list(self->data + r * self->width, self->width);
        if (row == NULL) {
            Py_DECREF(out);
            return NULL;
        }
        PyList_SET_ITEM(out, r, row);
    }
    return out;
}

static PyObject *
FpEchelon_pivots(FpEchelon *self, PyObject *Py_UNUSED(ignored))
{
    return to_list(self->pivs, self->nrows);
}

static PyMethodDef FpEchelon_methods[] = {
    {"insert", (PyCFunction)FpEchelon_insert, METH_O, "Insert a vector; True iff the rank grew."},
    {"reduce", (PyCFunction)FpEchelon_reduce, METH_O, "A vector fully reduced, as a new list."},
    {"rows", (PyCFunction)FpEchelon_rows, METH_NOARGS, "The RREF basis, sorted by pivot."},
    {"pivots", (PyCFunction)FpEchelon_pivots, METH_NOARGS, "The pivot column of each row."},
    {NULL, NULL, 0, NULL}
};

static PyMemberDef FpEchelon_members[] = {
    {"rank", T_PYSSIZET, offsetof(FpEchelon, nrows), READONLY, "Number of basis rows."},
    {NULL, 0, 0, 0, NULL}
};

static PyTypeObject FpEchelonType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "fdalg._kernels._fast.FpEchelon",
    .tp_basicsize = sizeof(FpEchelon),
    .tp_dealloc = (destructor)FpEchelon_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_doc = "FpEchelon(width, p)\n\nIncremental RREF accumulator over F_p, "
              "rows sorted by pivot column.",
    .tp_methods = FpEchelon_methods,
    .tp_members = FpEchelon_members,
    .tp_new = FpEchelon_new,
};

static struct PyModuleDef fastmodule = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_fast",
    .m_doc = "Compiled F_p row echelon kernel (p < 2**31).",
    .m_size = -1,
};

PyMODINIT_FUNC
PyInit__fast(void)
{
    PyObject *m;

    if (PyType_Ready(&FpEchelonType) < 0)
        return NULL;
    m = PyModule_Create(&fastmodule);
    if (m == NULL)
        return NULL;
    if (PyModule_AddObjectRef(m, "FpEchelon", (PyObject *)&FpEchelonType) < 0) {
        Py_DECREF(m);
        return NULL;
    }
    return m;
}
