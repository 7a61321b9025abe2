"""The first-order ``jet_solve`` on dense arrays against the reference
elimination in jet arithmetic (``conftest.reference_jet_solve``)."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jdl import jets
from jdl.errors import SingularSystem
from jdl.fields import jet_solve
from jdl.jets import Jet

from conftest import reference_jet_solve


def _random_jet(rng, dim, value):
    """An order-1 jet with the given value and a random gradient."""
    return Jet(dim, 1, float(value), rng.normal(size=dim))


def _mixed(rng, values, dim, number_share):
    """Object array over ``values``: numbers where a draw falls below
    ``number_share``, order-1 jets elsewhere."""
    out = np.empty(values.shape, dtype=object)
    for idx, v in np.ndenumerate(values):
        out[idx] = (float(v) if rng.random() < number_share
                    else _random_jet(rng, dim, v))
    return out


def _dense(M, dim):
    """(values, derivatives) of an array of jets and numbers, laid out as
    ``jet_solve`` takes them: derivatives[l] = ∂_l values."""
    M = np.asarray(M, dtype=object)
    val = np.array([x.value if isinstance(x, Jet) else float(x)
                    for x in M.flat]).reshape(M.shape)
    grad = np.array([x.grad if isinstance(x, Jet) else np.zeros(dim)
                     for x in M.flat]).reshape(M.shape + (dim,))
    return val, np.moveaxis(grad, -1, 0)


def _solve(A, b, dim):
    return jet_solve(*_dense(A, dim), *_dense(b, dim))


def _assert_agrees(A, b, dim, tol=1e-12):
    (X, dX), (Y, dY) = _solve(A, b, dim), _dense(reference_jet_solve(A, b), dim)
    assert X.shape == Y.shape and dX.shape == dY.shape == (dim,) + Y.shape
    assert np.abs(X - Y).max() <= tol * max(1.0, np.abs(Y).max())
    assert np.abs(dX - dY).max() <= tol * max(1.0, np.abs(dY).max())
    return X, dX


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 6), m=st.sampled_from([None, 1, 3]),
       dim=st.integers(1, 3),
       a_share=st.sampled_from([0.0, 0.3, 1.0]),
       b_share=st.sampled_from([0.0, 0.3, 1.0]),
       seed=st.integers(0, 2**32 - 1))
def test_matches_reference_on_random_systems(n, m, dim, a_share, b_share,
                                             seed):
    rng = np.random.default_rng(seed)
    # well conditioned, with the big entries off the diagonal so that the
    # column pivoting swaps rows
    A0 = (3.0 * np.eye(n) + 0.5 * rng.normal(size=(n, n)))[rng.permutation(n)]
    A = _mixed(rng, A0, dim, a_share)
    b = _mixed(rng, rng.normal(size=(n,) if m is None else (n, m)),
               dim, b_share)
    _assert_agrees(A, b, dim)


def test_zero_leading_value_forces_a_pivot_swap():
    rng = np.random.default_rng(5)
    A = [[_random_jet(rng, 2, 0.0), _random_jet(rng, 2, 1.0)],
         [2.0, _random_jet(rng, 2, -1.0)]]
    b = [_random_jet(rng, 2, 0.5), 1.0]
    X, dX = _assert_agrees(A, b, 2)
    # A X = b and ∂A X + A ∂X = ∂b, on the dense arrays
    (A0, dA), (b0, db) = _dense(A, 2), _dense(b, 2)
    assert np.abs(A0 @ X - b0).max() <= 1e-13
    assert np.abs(dA @ X + (A0 @ dX.T).T - db).max() <= 1e-13


def test_inverse_of_a_jet_matrix():
    # x ↦ [[e^x, y], [0, 1]] has inverse [[e^-x, -y e^-x], [0, 1]]
    x, y = jets.coordinate_jets([0.3, -0.7], 1)
    X, dX = _solve([[jets.exp(x), y], [0.0, 1.0]], np.eye(2), 2)
    for (i, j), want in (((0, 0), jets.exp(-x)), ((0, 1), -y * jets.exp(-x))):
        assert abs(X[i, j] - want.value) <= 1e-15
        assert np.abs(dX[:, i, j] - want.grad).max() <= 1e-15
    assert np.array_equal(X[1], [0.0, 1.0]) and not dX[:, 1].any()


def test_numbers_only_solve_to_numbers():
    # a system without derivatives solves to a solution without them
    X, dX = jet_solve([[0.0, 2.0], [4.0, 0.0]], np.zeros((3, 2, 2)),
                      [2.0, 8.0], np.zeros((3, 2)))
    assert np.allclose(X, [2.0, 1.0])
    assert dX.shape == (3, 2) and not dX.any()


SINGULAR = [
    [[1.0, 2.0], [2.0, 4.0]],                 # exactly singular
    [[1.0, 1.0], [1.0, 1.0 + 4e-15]],         # second pivot 4e-15
    [[5e-15, 0.0], [0.0, 1.0]],               # first pivot 5e-15
]


# the pivot bound is relative to max |A₀|: each case scaled by 1e-15 is
# still singular
@pytest.mark.parametrize("values", SINGULAR + [
    pytest.param(1e-15 * np.array(values), id=f"values{i}-times-1e-15")
    for i, values in enumerate(SINGULAR)])
def test_singular_value_matrix_raises(values):
    rng = np.random.default_rng(8)
    A = _mixed(rng, np.array(values), 2, 0.0)
    with pytest.raises(SingularSystem):
        _solve(A, np.eye(2), 2)
    with pytest.raises(SingularSystem):
        reference_jet_solve(A, np.eye(2))


def test_pivot_just_above_the_threshold_solves():
    # second pivot 1e-13·scale against max |A₀| = scale, at either scale
    for scale in (1.0, 1e-15):
        rng = np.random.default_rng(9)
        A = _mixed(rng, scale * np.array([[1.0, 1.0], [1.0, 1.0 + 1e-13]]),
                   2, 0.0)
        X, _ = _solve(A, [1.0, 2.0], 2)
        want = 1e13 / scale
        assert abs(X[1] - want) / want < 1e-2
