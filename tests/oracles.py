"""Independent reference implementations used only by the tests.

Every oracle here is written the slow, obvious way (explicit index
loops, textbook Jacobi rotations) so it shares no code path with the
package and can catch convention or vectorization mistakes.
"""

import math

import numpy as np


def inner_product_loop(a, b):
    total = 0.0
    n1, n2, n3 = a.shape
    for i in range(n1):
        for j in range(n2):
            for k in range(n3):
                total += a[i, j, k] * b[i, j, k]
    return total


def mse_loop(x, xhat):
    total = 0.0
    n1, n2, n3 = x.shape
    for i in range(n1):
        for j in range(n2):
            for k in range(n3):
                d = x[i, j, k] - xhat[i, j, k]
                total += d * d
    return total / (n1 * n2 * n3)


def outer3_loop(u, v, w):
    out = np.zeros((len(u), len(v), len(w)))
    for i in range(len(u)):
        for j in range(len(v)):
            for k in range(len(w)):
                out[i, j, k] = u[i] * v[j] * w[k]
    return out


def fold(m, mode, dims):
    """Inverse of ``tensor_core.unfold``: a tensor of shape ``dims``.

    Entry ``x[i1, i2, i3]`` is row ``i_mode`` of the mode-``mode``
    unfolding ``m``, in the column that counts the other two indices
    with the lower-numbered mode fastest.
    """
    out = np.zeros(dims)
    axis = mode - 1
    n_low = [d for t, d in enumerate(dims) if t != axis][0]
    for i in range(dims[0]):
        for j in range(dims[1]):
            for k in range(dims[2]):
                idx = (i, j, k)
                rest = [idx[t] for t in range(3) if t != axis]
                out[i, j, k] = m[idx[axis]][rest[0] + n_low * rest[1]]
    return out


def mode_product_loop(x, mat, mode):
    dims = list(x.shape)
    axis = mode - 1
    dims[axis] = mat.shape[0]
    out = np.zeros(dims)
    for i in range(dims[0]):
        for j in range(dims[1]):
            for k in range(dims[2]):
                acc = 0.0
                for t in range(x.shape[axis]):
                    idx = [i, j, k]
                    idx[axis] = t
                    acc += mat[(i, j, k)[axis], t] * x[tuple(idx)]
                out[i, j, k] = acc
    return out


def tucker_expand_loop(core, u1, u2, u3):
    n1, n2, n3 = u1.shape[0], u2.shape[0], u3.shape[0]
    r1, r2, r3 = core.shape
    out = np.zeros((n1, n2, n3))
    for i in range(n1):
        for j in range(n2):
            for k in range(n3):
                acc = 0.0
                for a in range(r1):
                    for b in range(r2):
                        for c in range(r3):
                            acc += core[a, b, c] * u1[i, a] * u2[j, b] * u3[k, c]
                out[i, j, k] = acc
    return out


def cpd_expand_loop(weights, u1, u2, u3):
    n1, n2, n3 = u1.shape[0], u2.shape[0], u3.shape[0]
    out = np.zeros((n1, n2, n3))
    for i in range(n1):
        for j in range(n2):
            for k in range(n3):
                acc = 0.0
                for r in range(len(weights)):
                    acc += weights[r] * u1[i, r] * u2[j, r] * u3[k, r]
                out[i, j, k] = acc
    return out


def jacobi_singular_values(m, max_sweeps=100, tol=1e-14):
    """Singular values via one-sided Jacobi rotations, no bidiagonalization.

    Rotates column pairs until all pairs are numerically orthogonal; the
    singular values are then the column norms, sorted non-increasing.
    """
    a = np.array(m, dtype=np.float64)
    if a.shape[0] < a.shape[1]:
        a = np.ascontiguousarray(a.T)
    n = a.shape[1]
    for _ in range(max_sweeps):
        off = 0.0
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = float(a[:, p] @ a[:, q])
                app = float(a[:, p] @ a[:, p])
                aqq = float(a[:, q] @ a[:, q])
                if app * aqq > 0.0:
                    off = max(off, abs(apq) / math.sqrt(app * aqq))
                if apq == 0.0:
                    continue
                tau = (aqq - app) / (2.0 * apq)
                t = math.copysign(1.0, tau) / (abs(tau) + math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = c * t
                col_p = a[:, p].copy()
                col_q = a[:, q].copy()
                a[:, p] = c * col_p - s * col_q
                a[:, q] = s * col_p + c * col_q
        if off < tol:
            break
    values = np.sqrt(np.sum(a * a, axis=0))
    return np.sort(values)[::-1]
