"""Naive index-loop oracles for every reduced statistic and estimator.

These follow the defining sums term by term, with no algebraic shortcuts,
and exist solely to validate the fast paths (test suite and the CLI
``selftest`` command).  They are O(n^4 d) and only meant for small inputs.
"""

from __future__ import annotations

import itertools

import numpy as np

from .statistics import as_matrix, spatial_sign


def naive_t_cq1(x) -> float:
    x = as_matrix(x)
    n = x.shape[0]
    total = 0.0
    for i1, i2 in itertools.permutations(range(n), 2):
        total += float(x[i1] @ x[i2])
    return total / (n * (n - 1))


def naive_t_cq2(x, y) -> float:
    x = as_matrix(x, "x")
    y = as_matrix(y, "y")
    m, n = x.shape[0], y.shape[0]
    total = 0.0
    for i1, i2 in itertools.permutations(range(m), 2):
        for j1, j2 in itertools.permutations(range(n), 2):
            total += float((x[i1] - y[j1]) @ (x[i2] - y[j2]))
    return total / (m * (m - 1) * n * (n - 1))


def naive_t_s(x) -> float:
    x = as_matrix(x)
    n = x.shape[0]
    signs = [spatial_sign(row) for row in x]
    total = 0.0
    for i1, i2 in itertools.permutations(range(n), 2):
        total += float(signs[i1] @ signs[i2])
    return total / (n * (n - 1))


def naive_t_sr(x) -> float:
    x = as_matrix(x)
    n = x.shape[0]
    signs = {
        (i, j): spatial_sign(x[i] + x[j]) for i, j in itertools.permutations(range(n), 2)
    }
    total = 0.0
    for i1, i2, i3, i4 in itertools.permutations(range(n), 4):
        total += float(signs[i1, i2] @ signs[i3, i4])
    return total / (n * (n - 1) * (n - 2) * (n - 3))


def naive_t_wmw(x, y) -> float:
    x = as_matrix(x, "x")
    y = as_matrix(y, "y")
    m, n = x.shape[0], y.shape[0]
    signs = [[spatial_sign(y[j] - x[i]) for j in range(n)] for i in range(m)]
    total = 0.0
    for i1, i2 in itertools.permutations(range(m), 2):
        for j1, j2 in itertools.permutations(range(n), 2):
            total += float(signs[i1][j1] @ signs[i2][j2])
    return total / (m * (m - 1) * n * (n - 1))


def naive_tr_sigma_sq(x) -> float:
    x = as_matrix(x)
    m = x.shape[0]
    total = 0.0
    for i1, i2, i3, i4 in itertools.permutations(range(m), 4):
        total += float((x[i1] - x[i2]) @ (x[i3] - x[i4])) ** 2
    return total / (4.0 * m * (m - 1) * (m - 2) * (m - 3))


def naive_tr_sigma_cross(x, y) -> float:
    x = as_matrix(x, "x")
    y = as_matrix(y, "y")
    m, n = x.shape[0], y.shape[0]
    total = 0.0
    for i1, i2 in itertools.permutations(range(m), 2):
        for j1, j2 in itertools.permutations(range(n), 2):
            total += float((x[i1] - x[i2]) @ (y[j1] - y[j2])) ** 2
    return total / (4.0 * m * (m - 1) * n * (n - 1))


def naive_two_sample_scale_terms(p, q, sigma_v_sq, sigma_w_sq):
    """Direct sums for the two-sample latent-scale quantities.

    Returns (s1_sum, l3, l4, l5) where s1_sum is the plain double-pair sum
    entering S1 before division by (m)_2 (n)_2.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    m, n = p.size, q.size

    def g(i, j):
        return 1.0 / np.sqrt(sigma_v_sq / p[i] ** 2 + sigma_w_sq / q[j] ** 2)

    s1_sum = 0.0
    for i1, i2 in itertools.permutations(range(m), 2):
        for j1, j2 in itertools.permutations(range(n), 2):
            s1_sum += g(i1, j2) * g(i2, j1)

    a = np.zeros((m, m))
    for i1, i2 in itertools.permutations(range(m), 2):
        a[i1, i2] = sum(
            g(i1, j2) * g(i2, j1) for j1, j2 in itertools.permutations(range(n), 2)
        )
    b = np.zeros((n, n))
    for j1, j2 in itertools.permutations(range(n), 2):
        b[j1, j2] = sum(
            g(i1, j2) * g(i2, j1) for i1, i2 in itertools.permutations(range(m), 2)
        )
    c = np.zeros((m, n))
    for i1 in range(m):
        for j1 in range(n):
            c[i1, j1] = sum(
                g(i1, j2) * g(i2, j1)
                for i2 in range(m)
                if i2 != i1
                for j2 in range(n)
                if j2 != j1
            )
    l3 = 2.0 * sum(
        a[i1, i2] ** 2 / (p[i1] * p[i2]) ** 2
        for i1, i2 in itertools.permutations(range(m), 2)
    )
    l4 = 2.0 * sum(
        b[j1, j2] ** 2 / (q[j1] * q[j2]) ** 2
        for j1, j2 in itertools.permutations(range(n), 2)
    )
    l5 = 2.0 * sum(
        c[i, j] ** 2 / (p[i] * q[j]) ** 2 for i in range(m) for j in range(n)
    )
    return s1_sum, l3, l4, l5


def naive_one_sample_scale_terms(p):
    """Direct sums for the one-sample latent-scale quantities.

    Returns (u_tilde, z2_sum, z3_sum): the pair-indexed kernel sums
    U~_{i1,i2}, sum U~ P_i1 P_i2 and sum U~^2 over ordered distinct pairs.
    """
    p = np.asarray(p, dtype=float)
    n = p.size
    u = np.zeros((n, n))
    for i1, i2 in itertools.permutations(range(n), 2):
        acc = 0.0
        for i3, i4 in itertools.permutations(range(n), 2):
            if len({i1, i2, i3, i4}) < 4:
                continue
            acc += (p[i3] * p[i4]) / np.sqrt(
                (p[i1] ** 2 + p[i3] ** 2) * (p[i2] ** 2 + p[i4] ** 2)
            )
        u[i1, i2] = acc
    z2_sum = sum(
        u[i1, i2] * p[i1] * p[i2] for i1, i2 in itertools.permutations(range(n), 2)
    )
    z3_sum = sum(u[i1, i2] ** 2 for i1, i2 in itertools.permutations(range(n), 2))
    return u, z2_sum, z3_sum
