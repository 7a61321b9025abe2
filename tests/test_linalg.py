import numpy as np
import pytest

from jdl.errors import NotContained
from jdl.linalg import (BilinearForm, Subspace, annihilator, full_space,
                        image, intersect, kernel, orth_complement_wrt,
                        preimage, principal_angles, span_of, subspace_equal,
                        sum_spaces, zero_space)


def e(i, n):
    v = np.zeros(n)
    v[i] = 1.0
    return v


def test_span_sum_intersect_annihilator():
    s1 = span_of([e(0, 3)])
    s2 = span_of([e(1, 3)])
    assert sum_spaces(s1, s2).dim == 2
    s12 = span_of([e(0, 3), e(1, 3)])
    s23 = span_of([e(1, 3), e(2, 3)])
    inter = intersect(s12, s23)
    assert inter.dim == 1
    assert inter.contains_vector(e(1, 3))
    ann = annihilator(s1)
    assert ann.dim == 2
    assert ann.contains_vector(e(1, 3)) and ann.contains_vector(e(2, 3))


def test_span_of_normalized_ignores_the_scale_of_each_vector():
    family = [e(0, 3), 1e-10 * e(1, 3), np.zeros(3)]
    assert span_of(family).dim == 1      # relative tolerance drops 1e-10
    scaled = span_of(family, normalize=True)
    assert scaled.dim == 2 and scaled.contains_vector(e(1, 3))
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
    assert abs(B(h1, h2) - (-1.0) * (1 + p * p)) < 1e-12  # scale irrelevant
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
        U = span_of(list(rng.normal(size=(k, n))), ambient=n) if k else zero_space(n)
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
    assert k.dim == 1 and k.contains_vector(e(2, 3))
    S = span_of([e(0, 2)])
    pre = preimage(A, S)
    assert pre.dim == 2
    assert pre.contains_vector(e(0, 3)) and pre.contains_vector(e(2, 3))


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
