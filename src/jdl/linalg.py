"""Subspace arithmetic with tolerances, stacked over a point set.

Spans, sums, preimages, annihilators, orthogonal complements with respect
to an antisymmetric bilinear form, and principal-angle equality tests, by
dense SVDs (numerical rank as in Golub & Van Loan, *Matrix Computations*).

Every function takes a leading point axis: a matrix argument is a stack
(N, m, n) or a list of N matrices, a subspace argument a list of N
Subspaces, and the result is a list (or an array) over the points.  A 2-D
matrix, one Subspace or a form of one matrix is a stack of one: beside
stacks it stands for every point, and alone it gets its one result back.
Rank groups: the points of a call are grouped by the shapes of their
arrays, so by their subspace dimensions, and each group makes one
``np.linalg.svd`` call; each point's rank is cut from its own singular
values.  Stacked ``svd``, ``@`` and ``solve`` compute each matrix bit for
bit as the 2-D call on a contiguous copy does, so a point's result does not
depend on the points stacked with it.

Two tolerances decide everything here: ``RANK_TOL``, relative to the
largest singular value, cuts every SVD rank and :func:`nondegeneracy`, and
``ANGLE_TOL`` is the largest principal angle (or relative residual of a
vector off the subspace) still read as equality.  No function takes its own.
"""
from __future__ import annotations

import functools

import numpy as np

from .errors import DimensionMismatch, NotContained

RANK_TOL = 1e-9
ANGLE_TOL = 1e-7


class Subspace:
    """A linear subspace stored as an orthonormal basis (columns)."""

    def __init__(self, ambient, basis):
        self.ambient = ambient
        self.basis = np.asarray(basis, dtype=float).reshape(ambient, -1)

    @property
    def dim(self):
        return self.basis.shape[1]

    def __repr__(self):
        return f"Subspace(ambient={self.ambient}, dim={self.dim})"


class BilinearForm:
    """An antisymmetric bilinear form on R^ambient by its Gram matrix, or a
    stack of them (N, ambient, ambient)."""

    def __init__(self, matrix):
        matrix = np.asarray(matrix, dtype=float)
        if matrix.ndim < 2 or matrix.shape[-1] != matrix.shape[-2]:
            raise DimensionMismatch("bilinear form matrix must be square")
        resid = np.abs(matrix + matrix.swapaxes(-1, -2)).max(axis=(-2, -1))
        scale = np.maximum(1.0, np.abs(matrix).max(axis=(-2, -1)))
        if (resid > 1e-10 * scale).any():
            raise DimensionMismatch(
                f"matrix not antisymmetric (residual {resid.max():.2e})")
        self.matrix = matrix
        self.ambient = matrix.shape[-1]


def _pointwise(fn):
    """``fn``, which takes stacks of arrays that share shapes (a subspace
    gives its basis) and returns one result per point, under the calling
    convention of the module docstring: one call per group of points."""
    @functools.wraps(fn)
    def run(*args):
        args = [getattr(a, "basis", getattr(a, "matrix", a)) for a in args]
        one = [isinstance(a, np.ndarray) and a.ndim == 2 for a in args]
        n = next((len(a) for a, o in zip(args, one) if not o), 1)
        stacks = [np.broadcast_to(a, (n, *a.shape)) if o else
                  [getattr(x, "basis", x) for x in a] if isinstance(a, list)
                  else a for a, o in zip(args, one)]
        groups = {}
        for i, key in enumerate(zip(*([x.shape for x in s] if isinstance(
                s, list) else [s.shape[1:]] * n for s in stacks))):
            groups.setdefault(key, []).append(i)
        out = [None] * n
        for idx in groups.values():
            part = fn(*(np.asarray(s) if len(groups) == 1 else
                        np.stack([s[i] for i in idx]) for s in stacks))
            for i, r in zip(idx, part):
                out[i] = r
        if all(one):
            return out[0]
        return np.array(out) if out and np.isscalar(out[0]) else out
    return run


def _rank(s):
    """Each point's count of singular values above RANK_TOL times its first."""
    return np.sum(s > RANK_TOL * s[..., :1], axis=-1)


def span_of(vectors, ambient=None, normalize=False):
    """Orthonormalized span of the rows of ``vectors`` (k, n), or of each
    family of a stack (N, k, n); for the span of columns use :func:`image`.
    With ``normalize`` each vector is scaled to unit length and zero vectors
    are dropped, so the rank does not depend on how each vector is scaled.
    """
    V = np.asarray(vectors, dtype=float)
    if V.ndim < 2:                        # an empty family
        if ambient is None:
            raise DimensionMismatch("empty span needs an explicit ambient dim")
        V = V.reshape(0, ambient)
    if ambient is not None and V.shape[-1] != ambient:
        raise DimensionMismatch("vector length differs from ambient dim")
    if normalize:   # |v| as np.linalg.norm(v) takes it, from the dot v·v
        norms = np.sqrt((V[..., None, :] @ V[..., :, None])[..., 0, 0])
        V = V / np.where(norms > 0, norms, 1.0)[..., None]
        if not (norms > 0).all():
            V = V[norms > 0] if V.ndim == 2 else [
                v[k > 0] for v, k in zip(V, norms)]
    return image(V.swapaxes(-1, -2) if isinstance(V, np.ndarray)
                 else [v.T for v in V])


def dims(U):
    """The dimension of each subspace of the list U, as an int array."""
    return np.array([u.dim for u in U], dtype=int)


def full_space(ambient):
    return Subspace(ambient, np.eye(ambient))


@_pointwise
def sum_spaces(U, V):
    if U.shape[-2] != V.shape[-2]:
        raise DimensionMismatch("ambient dims differ")
    return image(np.concatenate([U, V], axis=-1))


def _complement(B):
    """Orthonormal bases of the complements of a stack B of bases."""
    a, k = B.shape[-2:]
    u = np.linalg.svd(B)[0] if k else np.broadcast_to(np.eye(a), (len(B), a, a))
    return u[..., k:]


@_pointwise
def annihilator(U):
    """Orthogonal complement under the standard inner product."""
    return [Subspace(U.shape[-2], c) for c in _complement(U)]


@_pointwise
def kernel(A):
    """Null space of a matrix as a Subspace of its column domain."""
    n = A.shape[-1]
    if A.shape[-2] == 0:
        return [full_space(n)] * len(A)
    _, s, vt = np.linalg.svd(A)
    return [Subspace(n, v[r:].T) for v, r in zip(vt, _rank(s))]


@_pointwise
def image(A):
    """Column space of a matrix as a Subspace of its row codomain."""
    u, s, _ = np.linalg.svd(A, full_matrices=False)
    return [Subspace(A.shape[-2], v[:, :r]) for v, r in zip(u, _rank(s))]


@_pointwise
def nondegeneracy(A):
    """σ_min/σ_max of a square A (0 if A = 0, 1 if A is empty): A counts as
    nondegenerate iff this exceeds RANK_TOL, whatever its scale."""
    s = np.linalg.svd(A, compute_uv=False)
    if not s.shape[-1]:
        return np.ones(len(A))
    return np.divide(s[:, -1], s[:, 0], out=np.zeros(len(A)),
                     where=s[:, 0] > 0)


def _unit_rows(A):
    """(DA, D⁻¹ as a column), D scaling A's nonzero rows to unit length, so
    that ker DA = ker A loses no row far smaller than the others to RANK_TOL.
    Over any leading axes."""
    norms = np.linalg.norm(A, axis=-1, keepdims=True)
    norms[norms == 0] = 1.0
    return A / norms, norms


@_pointwise
def preimage(A, S):
    """{v : A v ∈ S} = {v : DAv ∈ DS} as a Subspace of the domain of A, with
    D from :func:`_unit_rows`."""
    if S.shape[-2] != A.shape[-2]:
        raise DimensionMismatch("subspace ambient differs from codomain")
    DA, norms = _unit_rows(A)
    return kernel(_complement(S / norms).swapaxes(-1, -2) @ DA)


@_pointwise
def orth_complement_wrt(B, U, within):
    """{v in within : B(v, u) = 0 for all u in U}, as a kernel problem; B is
    a BilinearForm or its Gram matrix."""
    off = U - within @ (within.swapaxes(-1, -2) @ U)   # |u - proj u|
    if (np.linalg.norm(off, axis=-2) > ANGLE_TOL * np.maximum(
            1.0, np.linalg.norm(U, axis=-2))).any():
        raise NotContained("U is not contained in the enclosing subspace")
    if not U.shape[-1]:
        return [Subspace(len(w), w) for w in within]
    # rows: B(w_col, u_row) over U basis; the kernel is in W coordinates
    G = U.swapaxes(-1, -2) @ B.swapaxes(-1, -2) @ within
    return [Subspace(len(w), w @ K.basis) for w, K in zip(within, kernel(G))]


def _angles(U, V):
    """Principal angles between U and V, ascending.

    Cosines lose small angles (cos θ = 1 - θ²/2 rounds to 1 below ~1e-8),
    so angles below π/4 come from the sines, the singular values of the
    part of V's basis outside U (Knyazev & Argentati, SIAM J. Sci. Comput.
    23, 2002).
    """
    ku, kv = U.shape[-1], V.shape[-1]
    if not (ku and kv):
        return np.full((len(U), min(1, ku + kv)), np.pi / 2)
    if ku < kv:
        U, V = V, U
    UtV = U.swapaxes(-1, -2) @ V
    cos = np.clip(np.linalg.svd(UtV, compute_uv=False), -1.0, 1.0)
    sin = np.clip(np.linalg.svd(V - U @ UtV, compute_uv=False), 0.0, 1.0)
    return np.where(cos * cos < 0.5, np.arccos(cos), np.arcsin(sin)[..., ::-1])


@_pointwise
def _worst_angle(U, V):
    if U.shape[-2] != V.shape[-2]:
        raise DimensionMismatch("ambient dims differ")
    if U.shape[-1] != V.shape[-1]:
        return np.full(len(U), np.pi / 2)
    ang = _angles(U, V)
    return ang.max(axis=-1) if ang.shape[-1] else np.zeros(len(U))


def subspace_equal(U, V):
    """(equal?, worst principal angle).  Equality needs matching dims too,
    and the angle is π/2 when they differ, so it is the residual of the
    equality."""
    worst = _worst_angle(U, V)
    return worst < ANGLE_TOL, worst
