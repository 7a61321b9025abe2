"""Subspace arithmetic with tolerances.

Spans, sums, intersections, annihilators, orthogonal complements with
respect to an antisymmetric bilinear form, and principal-angle equality
tests.  All ambient dimensions in catalog use are <= 16, so dense SVD-based
routines are the right tool.
"""
from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, NotContained

RANK_TOL = 1e-9
ANGLE_TOL = 1e-7


class Subspace:
    """A linear subspace stored as an orthonormal basis (columns)."""

    def __init__(self, ambient, basis, tol=RANK_TOL):
        self.ambient = ambient
        basis = np.asarray(basis, dtype=float).reshape(ambient, -1)
        self.basis = basis
        self.tol = tol

    @property
    def dim(self):
        return self.basis.shape[1]

    def contains_vector(self, v, tol=1e-8):
        v = np.asarray(v, dtype=float)
        nv = np.linalg.norm(v)
        if nv == 0:
            return True
        resid = v - self.basis @ (self.basis.T @ v)
        return np.linalg.norm(resid) <= tol * max(1.0, nv)

    def contains(self, other, tol=1e-8):
        return all(self.contains_vector(other.basis[:, j], tol)
                   for j in range(other.dim))

    def __repr__(self):
        return f"Subspace(ambient={self.ambient}, dim={self.dim})"


def span_of(vectors, ambient=None, tol=RANK_TOL, normalize=False):
    """Orthonormalized span of a sequence of vectors.

    A matrix is a sequence of its rows; for the span of its columns use
    :func:`image`.  With ``normalize`` each vector is scaled to unit length
    and zero vectors are dropped, so the rank does not depend on how each
    vector of the family is scaled.
    """
    vs = [np.asarray(v, dtype=float) for v in vectors]
    if normalize:
        vs = [v / np.linalg.norm(v) for v in vs if np.linalg.norm(v) > 0]
    if not vs:
        if ambient is None:
            raise DimensionMismatch("empty span needs an explicit ambient dim")
        return Subspace(ambient, np.zeros((ambient, 0)), tol)
    A = np.stack(vs, axis=1)
    if ambient is not None and A.shape[0] != ambient:
        raise DimensionMismatch("vector length differs from ambient dim")
    return image(A, tol)


def full_space(ambient):
    return Subspace(ambient, np.eye(ambient))


def zero_space(ambient):
    return Subspace(ambient, np.zeros((ambient, 0)))


def sum_spaces(U, V):
    if U.ambient != V.ambient:
        raise DimensionMismatch("ambient dims differ")
    return image(np.hstack([U.basis, V.basis]), tol=min(U.tol, V.tol))


def annihilator(U):
    """Orthogonal complement under the standard inner product."""
    u, s, _ = np.linalg.svd(U.basis, full_matrices=True) if U.dim else \
        (np.eye(U.ambient), np.zeros(0), None)
    r = U.dim
    return Subspace(U.ambient, u[:, r:], U.tol)


def intersect(U, V):
    if U.ambient != V.ambient:
        raise DimensionMismatch("ambient dims differ")
    if U.dim == 0 or V.dim == 0:
        return zero_space(U.ambient)
    # intersection = annihilator of the sum of annihilators
    return annihilator(sum_spaces(annihilator(U), annihilator(V)))


def kernel(A, tol=RANK_TOL):
    """Null space of a matrix as a Subspace of its column domain."""
    A = np.asarray(A, dtype=float)
    n = A.shape[1]
    if A.shape[0] == 0:
        return full_space(n)
    _, s, vt = np.linalg.svd(A)
    if s.size and s[0] > 0:
        r = int(np.sum(s > tol * s[0]))
    else:
        r = 0
    return Subspace(n, vt[r:].T)


def image(A, tol=RANK_TOL):
    """Column space of a matrix as a Subspace of its row codomain."""
    A = np.asarray(A, dtype=float)
    u, s, _ = np.linalg.svd(A, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return Subspace(A.shape[0], np.zeros((A.shape[0], 0)), tol)
    r = int(np.sum(s > tol * s[0]))
    return Subspace(A.shape[0], u[:, :r], tol)


def preimage(A, S, tol=RANK_TOL):
    """{v : A v ∈ S} = {v : DAv ∈ DS} as a Subspace of the domain of A, where
    D scales the nonzero rows of A to unit length, so that a row far smaller
    than the others is not lost to the relative rank tolerance."""
    A = np.asarray(A, dtype=float)
    if S.ambient != A.shape[0]:
        raise DimensionMismatch("subspace ambient differs from codomain")
    norms = np.linalg.norm(A, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    comp = annihilator(Subspace(S.ambient, S.basis / norms))
    return kernel(comp.basis.T @ (A / norms), tol)


class BilinearForm:
    """An antisymmetric bilinear form on R^ambient given by its Gram matrix."""

    def __init__(self, matrix):
        matrix = np.asarray(matrix, dtype=float)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise DimensionMismatch("bilinear form matrix must be square")
        resid = np.max(np.abs(matrix + matrix.T))
        scale = max(1.0, np.max(np.abs(matrix)))
        if resid > 1e-10 * scale:
            raise DimensionMismatch(
                f"matrix not antisymmetric (residual {resid:.2e})")
        self.matrix = matrix
        self.ambient = matrix.shape[0]

    def __call__(self, u, v):
        return float(np.asarray(u) @ self.matrix @ np.asarray(v))


def orth_complement_wrt(B, U, within):
    """{v in within : B(v, u) = 0 for all u in U}, as a kernel problem."""
    if not within.contains(U, tol=1e-7):
        raise NotContained("U is not contained in the enclosing subspace")
    W = within.basis                      # ambient x w
    if U.dim == 0:
        return within
    G = U.basis.T @ B.matrix.T @ W        # rows: B(w_col, u_row) over U basis
    K = kernel(G, tol=U.tol)              # coords in the W basis
    return Subspace(within.ambient, W @ K.basis, U.tol)


def principal_angles(U, V):
    """Principal angles between U and V, ascending.

    Cosines lose small angles (cos θ = 1 - θ²/2 rounds to 1 below ~1e-8),
    so angles below π/4 come from the sines, the singular values of the
    part of V's basis outside U (Knyazev & Argentati, SIAM J. Sci. Comput.
    23, 2002).
    """
    if U.dim == 0 and V.dim == 0:
        return np.zeros(0)
    if U.dim == 0 or V.dim == 0:
        return np.array([np.pi / 2])
    if U.dim < V.dim:
        U, V = V, U
    UtV = U.basis.T @ V.basis
    cos = np.clip(np.linalg.svd(UtV, compute_uv=False), -1.0, 1.0)
    sin = np.clip(np.linalg.svd(V.basis - U.basis @ UtV, compute_uv=False),
                  0.0, 1.0)[::-1]
    return np.where(cos * cos < 0.5, np.arccos(cos), np.arcsin(sin))


def subspace_equal(U, V, angle_tol=ANGLE_TOL):
    """(equal?, max principal angle).  Equality needs matching dims too."""
    if U.ambient != V.ambient:
        raise DimensionMismatch("ambient dims differ")
    if U.dim != V.dim:
        return False, np.pi / 2
    ang = principal_angles(U, V)
    worst = float(ang.max()) if ang.size else 0.0
    return worst < angle_tol, worst
