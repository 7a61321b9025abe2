import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jdl.errors import NotContained
from jdl.linalg import (RANK_TOL, BilinearForm, annihilator, full_space,
                        image, kernel, orth_complement_wrt, preimage,
                        span_of, subspace_equal, sum_spaces)

from oracles import principal_angles


def e(i, n):
    v = np.zeros(n)
    v[i] = 1.0
    return v


def contains(S, v):
    """Is v in S, to ANGLE_TOL?"""
    return subspace_equal(S, sum_spaces(S, span_of([v])))[0]


def test_span_sum_intersect_annihilator():
    s1 = span_of([e(0, 3)])
    s2 = span_of([e(1, 3)])
    assert sum_spaces(s1, s2).dim == 2
    s12 = span_of([e(0, 3), e(1, 3)])
    s23 = span_of([e(1, 3), e(2, 3)])
    # U ∩ V = (U° + V°)°
    inter = annihilator(sum_spaces(annihilator(s12), annihilator(s23)))
    assert inter.dim == 1
    assert contains(inter, e(1, 3))
    ann = annihilator(s1)
    assert ann.dim == 2
    assert contains(ann, e(1, 3)) and contains(ann, e(2, 3))


def test_span_of_normalized_ignores_the_scale_of_each_vector():
    family = [e(0, 3), 1e-10 * e(1, 3), np.zeros(3)]
    assert span_of(family).dim == 1      # relative tolerance drops 1e-10
    scaled = span_of(family, normalize=True)
    assert scaled.dim == 2 and contains(scaled, e(1, 3))
    assert span_of([np.zeros(3)], 3, normalize=True).dim == 0


def test_orthonormal_invariant():
    rng = np.random.default_rng(2)
    for _ in range(20):
        vs = rng.normal(size=(4, 6))
        S = span_of(list(vs), ambient=6)
        G = S.basis.T @ S.basis
        assert np.abs(G - np.eye(S.dim)).max() < 1e-12


def test_subspace_equal_basic():
    u = span_of([e(0, 3)])
    same, ang = subspace_equal(u, u)
    assert same and ang == 0.0
    v = span_of([e(1, 3)])
    same, ang = subspace_equal(u, v)
    assert not same and abs(ang - np.pi / 2) < 1e-12


def test_subspace_equal_tolerance():
    u = span_of([e(0, 3)])
    w = span_of([e(0, 3) + 1e-9 * e(1, 3)])
    same, ang = subspace_equal(u, w)
    assert same


def test_orth_complement_symplectic_line():
    B = BilinearForm([[0.0, 1.0], [-1.0, 0.0]])
    U = span_of([e(0, 2)])
    W = full_space(2)
    comp = orth_complement_wrt(B, U, W)
    same, _ = subspace_equal(comp, U)
    assert same  # Lagrangian line is its own complement


def test_orth_complement_triv_gpd_fiber():
    # within = span{∂p, ∂q - p ∂u} in R^3 with only B(h1,h2) = -1 nonzero;
    # the complement of span{∂p} inside is span{∂p} again (hand computation)
    p = 0.7
    h1 = np.array([0.0, 1.0, 0.0])          # ∂p in (q,p,u)
    h2 = np.array([1.0, 0.0, -p])           # ∂q - p ∂u
    within = span_of([h1, h2])
    # build the ambient form with B(h1,h2) = -1: B = -(h1 h2^T - h2 h1^T)/|..|
    M = -np.outer(h1, h2) + np.outer(h2, h1)
    B = BilinearForm(M)
    assert abs(h1 @ B.matrix @ h2 + (1 + p * p)) < 1e-12  # scale irrelevant
    comp = orth_complement_wrt(B, span_of([h1]), within)
    same, _ = subspace_equal(comp, span_of([h1]))
    assert same


def test_orth_complement_nondegenerate_drops_to_zero():
    B = BilinearForm([[0.0, 1.0], [-1.0, 0.0]])
    W = full_space(2)
    comp = orth_complement_wrt(B, W, W)
    assert comp.dim == 0


def test_orth_complement_requires_containment():
    B = BilinearForm(np.zeros((3, 3)))
    U = span_of([e(0, 3)])
    W = span_of([e(1, 3), e(2, 3)])
    with pytest.raises(NotContained):
        orth_complement_wrt(B, U, W)


def test_dimension_count_nondegenerate():
    rng = np.random.default_rng(9)
    n = 6
    for _ in range(100):
        A = rng.normal(size=(n, n))
        M = A - A.T
        if abs(np.linalg.det(M)) < 1e-6:
            continue
        B = BilinearForm(M)
        k = int(rng.integers(0, n + 1))
        U = span_of(list(rng.normal(size=(k, n))), ambient=n)
        W = full_space(n)
        comp = orth_complement_wrt(B, U, W)
        assert comp.dim == n - U.dim
        # double complement returns U
        back = orth_complement_wrt(B, comp, W)
        same, _ = subspace_equal(back, U)
        assert same


def test_kernel_image_preimage():
    A = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    k = kernel(A)
    assert k.dim == 1 and contains(k, e(2, 3))
    S = span_of([e(0, 2)])
    pre = preimage(A, S)
    assert pre.dim == 2
    assert contains(pre, e(0, 3)) and contains(pre, e(2, 3))


def test_image_spans_columns():
    # a 2x3 matrix has three columns in R^2, which span it
    A = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    im = image(A)
    assert im.ambient == 2 and im.dim == 2
    assert subspace_equal(im, full_space(2))[0]


@pytest.mark.parametrize("theta", [1e-10, 1e-6, 0.3, 1.2])
def test_principal_angles_small_and_large(theta):
    # a line rotated by theta in R^3 and a plane tilted by theta
    line = span_of([e(0, 3)])
    turned = span_of([np.cos(theta) * e(0, 3) + np.sin(theta) * e(1, 3)])
    ang = principal_angles(line, turned)
    assert abs(ang[0] - theta) <= 0.1 * theta
    plane = span_of([e(0, 3), e(1, 3)])
    tilted = span_of([e(0, 3), np.cos(theta) * e(1, 3) + np.sin(theta) * e(2, 3)])
    ang = principal_angles(plane, tilted)
    assert ang[0] < 1e-15
    assert abs(ang[-1] - theta) <= 0.1 * theta
    assert abs(principal_angles(line, plane)[0]) < 1e-15


# -- stacked calls against the per-matrix routes --------------------------
#
# Oracles: each matrix on its own, as the per-point code computed it before
# the point axis, on arrays laid out as a stack's rows are (contiguous): a
# strided vector operand makes ``@`` skip BLAS, which rounds differently.
# A stacked result must equal them bit for bit.

def _ref_rank(s):
    return int(np.sum(s > RANK_TOL * s[0])) if s.size and s[0] > 0 else 0


def _ref_kernel(A):
    if A.shape[0] == 0:
        return np.eye(A.shape[1])
    _, s, vt = np.linalg.svd(A)
    return vt[_ref_rank(s):].T


def _ref_image(A):
    u, s, _ = np.linalg.svd(A, full_matrices=False)
    return u[:, :_ref_rank(s)]


def _ref_orth_complement(B, U, W):
    if U.shape[1] == 0:
        return W
    return W @ _ref_kernel(U.T @ B.T @ W)


def _ref_angles(U, V):
    if U.shape[1] == 0 or V.shape[1] == 0:
        return np.full(min(1, U.shape[1] + V.shape[1]), np.pi / 2)
    if U.shape[1] < V.shape[1]:
        U, V = V, U
    UtV = U.T @ V
    cos = np.clip(np.linalg.svd(UtV, compute_uv=False), -1.0, 1.0)
    sin = np.clip(np.linalg.svd(V - U @ UtV, compute_uv=False), 0.0, 1.0)
    return np.where(cos * cos < 0.5, np.arccos(cos), np.arcsin(sin)[::-1])


def _with_rank(rng, m, n, r, near_tol):
    """An m×n matrix of rank r, random singular vectors and values; with
    ``near_tol`` one more singular value just below RANK_TOL·σ_max."""
    k = min(m, n)
    s = np.zeros(k)
    s[:r] = np.sort(rng.uniform(0.5, 2.0, r))[::-1]
    if near_tol and r < k:
        s[r] = (1 - 1e-3) * RANK_TOL * s[0] if r else 0.0
    U = np.linalg.qr(rng.normal(size=(m, m)))[0] if m else np.zeros((0, 0))
    V = np.linalg.qr(rng.normal(size=(n, n)))[0] if n else np.zeros((0, 0))
    return U[:, :k] @ np.diag(s) @ V[:, :k].T


def _stack(rng, size, m, n, near_tol):
    """A stack of matrices with ranks drawn from 0 to full."""
    return np.stack([_with_rank(rng, m, n, int(rng.integers(min(m, n) + 1)),
                                near_tol) for _ in range(size)])


def _rows(U):
    """U's basis as a row of a stack of bases is laid out."""
    return np.ascontiguousarray(U.basis)


def _same(got, want):
    return len(got) == len(want) and all(
        np.array_equal(g, w) for g, w in zip(got, want))


STACKS = dict(seed=st.integers(0, 2**32 - 1), size=st.integers(1, 12),
              m=st.integers(0, 5), n=st.integers(0, 5),
              near_tol=st.booleans())


@settings(max_examples=100, deadline=None, derandomize=True)
@given(**STACKS)
def test_stacked_kernel_and_image_equal_each_matrix(seed, size, m, n,
                                                   near_tol):
    A = _stack(np.random.default_rng(seed), size, m, n, near_tol)
    if n:
        assert _same([K.basis for K in kernel(A)], [_ref_kernel(a) for a in A])
    else:   # no subspace of R^0 can be built (ROADMAP item 4)
        with pytest.raises(ValueError):
            kernel(A)
    if m:
        assert _same([S.basis for S in image(A)], [_ref_image(a) for a in A])
        # a list of matrices of several shapes is a stack too
        mixed = [*A, *np.swapaxes(A, -1, -2)] if n else list(A)
        assert _same([S.basis for S in image(mixed)],
                     [_ref_image(a) for a in mixed])
    else:
        with pytest.raises(ValueError):
            image(A)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(**STACKS)
def test_stacked_orth_complement_and_angles_equal_each_matrix(
        seed, size, m, n, near_tol):
    rng = np.random.default_rng(seed)
    a = max(m, n, 1)
    M = rng.normal(size=(size, a, a))
    B = M - np.swapaxes(M, -1, -2)
    U = image(_stack(rng, size, a, m, near_tol))
    V = image(_stack(rng, size, a, n, near_tol))
    W = full_space(a)
    comp = orth_complement_wrt(BilinearForm(B), U, W)
    assert _same([C.basis for C in comp],
                 [_ref_orth_complement(b, _rows(u), W.basis)
                  for b, u in zip(B, U)])
    want = [_ref_angles(_rows(u), _rows(v)) for u, v in zip(U, V)]
    assert _same(principal_angles(U, V), want)
    worst = [w.max() if u.dim == v.dim and w.size else
             (np.pi / 2 if u.dim != v.dim else 0.0)
             for w, u, v in zip(want, U, V)]
    assert np.array_equal(subspace_equal(U, V)[1], worst)


def test_a_single_matrix_is_a_stack_of_one():
    rng = np.random.default_rng(4)
    A = _stack(rng, 5, 4, 3, True)
    assert [K.basis.tolist() for K in kernel(A)] == \
        [kernel(a).basis.tolist() for a in A]
    U, V = image(A), image(_stack(rng, 5, 4, 4, False))
    assert np.array_equal(subspace_equal(U, V)[1],
                          [subspace_equal(u, v)[1] for u, v in zip(U, V)])
    # a single subspace beside a stack stands for every point
    assert [S.dim for S in sum_spaces(U, full_space(4))] == [4] * 5
