"""Exact integer and rational linear algebra.

Everything in this module works on tuples of Python ints (arbitrary
precision) or Fractions; no floating point anywhere.  All functions are pure
and deterministic, so results are bit-identical across runs and safe to call
from any number of threads.

Every elimination goes through one kernel, _reduce: fraction-free
Gauss-Jordan (Bareiss) elimination in integers.  rank, nullspace_basis,
kernel_relation, det, solve_in_span and the cone solvers in fan read their
answers off its reduced rows, pivot columns and common denominator.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd, lcm

from .errors import (
    AssertionFailed,
    DependentInput,
    DimensionMismatch,
    NullityTooLarge,
    ZeroVector,
)

Vec = tuple[int, ...]


def dot(a, b) -> int:
    return sum(x * y for x, y in zip(a, b))


def vec_sub(a, b) -> Vec:
    return tuple(x - y for x, y in zip(a, b))


def vec_neg(a) -> Vec:
    return tuple(-x for x in a)


def _common_dim(vs) -> int:
    dims = {len(v) for v in vs}
    if len(dims) > 1:
        raise DimensionMismatch(f"mixed dimensions {sorted(dims)}")
    return dims.pop() if dims else 0


def primitive(v) -> Vec:
    """v divided by the gcd of its entries; same direction, entry gcd 1."""
    g = 0
    for x in v:
        g = gcd(g, x)
    if g == 0:
        raise ZeroVector("the zero vector has no primitive generator")
    if g == 1:
        return tuple(v)
    return tuple(x // g for x in v)


def is_primitive(v) -> bool:
    g = 0
    for x in v:
        g = gcd(g, x)
    return g == 1


def _reduce(rows) -> tuple[list[list[int]], list[int], int, int]:
    """Fraction-free Gauss-Jordan elimination (Bareiss) of an integer matrix.

    Pivots are taken greedily from the leftmost column and every update
    divides exactly by the previous pivot.  Returns (R, pivot_cols, D,
    perm_sign): row k of R carries the pivot of column pivot_cols[k], every
    pivot entry equals D, and every pivot column is zero off its pivot row,
    so R is D times the reduced row echelon form.  D is the minor on the
    pivot columns and the rows that end up as pivot rows, in their swapped
    order, and perm_sign is the sign of the row swaps: a nonsingular square
    matrix has determinant perm_sign * D.
    """
    a = [list(r) for r in rows]
    m = len(a)
    piv: list[int] = []
    prev, sign = 1, 1
    for c in range(len(a[0]) if a else 0):
        r = len(piv)
        if r == m:
            break
        p = next((i for i in range(r, m) if a[i][c]), None)
        if p is None:
            continue
        if p != r:
            a[r], a[p] = a[p], a[r]
            sign = -sign
        top = a[r]
        head = top[c]
        for i in range(m):
            if i != r:
                t = a[i][c]
                a[i] = [(head * x - t * y) // prev for x, y in zip(a[i], top)]
        prev = head
        piv.append(c)
    return a, piv, prev, sign


def _scaled_inverse(mat) -> tuple[list[list[int]], int]:
    """(D * M^-1, D) for an invertible square integer matrix M, from one
    reduction of [M | I]."""
    n = len(mat)
    aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(mat)]
    red, _, d, _ = _reduce(aug)
    return [row[n:] for row in red], d


def rank(vs) -> int:
    """Exact rank over the rationals of a collection of integer vectors."""
    vs = list(vs)
    if not vs:
        return 0
    _common_dim(vs)
    return len(_reduce(vs)[1])


def nullspace_basis(rows, n: int) -> list[Vec]:
    """Primitive integer basis of {x : row . x = 0 for every row}.

    The basis spans the rational null space; one vector per free column f, in
    column order, positive on f and zero on the other free columns, so the
    output is deterministic.
    """
    red, piv, d, _ = _reduce(rows)
    s = 1 if d > 0 else -1
    basis: list[Vec] = []
    for f in (c for c in range(n) if c not in piv):
        x = [0] * n
        x[f] = s * d
        for k, c in enumerate(piv):
            x[c] = -s * red[k][f]
        basis.append(primitive(x))
    return basis


def kernel_relation(vs) -> Vec | None:
    """The unique integer dependency r with sum(r_i * v_i) = 0, or None.

    Requires nullity 0 or 1.  The result has entry gcd 1; the sign is fixed
    deterministically (first nonzero coefficient positive), callers impose
    their own geometric sign convention on top.
    """
    vs = [tuple(v) for v in vs]
    if not vs:
        return None
    d = _common_dim(vs)
    n = len(vs)
    rows = [[v[i] for v in vs] for i in range(d)]
    basis = nullspace_basis(rows, n)
    if not basis:
        return None
    if len(basis) > 1:
        raise NullityTooLarge(f"nullity {len(basis)} >= 2")
    rel = basis[0]
    first = next(x for x in rel if x != 0)
    if first < 0:
        rel = vec_neg(rel)
    if any(sum(r * v[i] for r, v in zip(rel, vs)) for i in range(d)):
        raise AssertionFailed(f"kernel relation {rel} does not annihilate {vs}")
    return rel


def det(mat) -> int:
    """Exact determinant of a square integer matrix."""
    red, piv, d, sign = _reduce(mat)
    return sign * d if len(piv) == len(red) else 0


def maximal_minor_gcd(vs) -> int:
    """gcd of the absolute values of all k x k minors of the k x d matrix.

    The input vectors must be linearly independent (k <= d).
    """
    vs = [tuple(v) for v in vs]
    k = len(vs)
    if k == 0:
        return 1
    d = _common_dim(vs)
    if k > d or rank(vs) < k:
        raise DependentInput("maximal_minor_gcd needs independent vectors")
    g = 0
    for cols in itertools.combinations(range(d), k):
        sub = [[v[c] for c in cols] for v in vs]
        g = gcd(g, abs(det(sub)))
        if g == 1:
            return 1
    return g


def solve_in_span(vectors, target) -> tuple[Fraction, ...] | None:
    """Coefficients writing target in the given independent vectors, or None.

    None means target is outside the rational span.  Entries of target may be
    ints or Fractions.
    """
    vectors = [tuple(v) for v in vectors]
    k = len(vectors)
    target = tuple(target)
    if k == 0:
        return () if all(x == 0 for x in target) else None
    d = _common_dim(vectors)
    if len(target) != d:
        raise DimensionMismatch(f"target dim {len(target)} != vector dim {d}")
    s = 1
    for x in target:
        s = lcm(s, x.denominator)
    scaled = [x.numerator * (s // x.denominator) for x in target]
    red, piv, den, _ = _reduce([[v[i] for v in vectors] + [scaled[i]] for i in range(d)])
    if piv[:k] != list(range(k)):
        raise DependentInput("solve_in_span needs independent vectors")
    if len(piv) > k:
        return None
    return tuple(Fraction(row[k], den * s) for row in red[:k])


def nonneg_combination(rays, p) -> tuple[Fraction, ...] | None:
    """The unique nonnegative coefficients with p = sum(lambda_i * ray_i), or None.

    Rays must be linearly independent.  None when p is outside the span or
    some coefficient is negative.
    """
    coeffs = solve_in_span(rays, p)
    if coeffs is None or any(c < 0 for c in coeffs):
        return None
    return coeffs
