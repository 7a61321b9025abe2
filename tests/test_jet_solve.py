"""The Taylor-mode ``jet_solve`` against the reference elimination in jet
arithmetic (``conftest.reference_jet_solve``)."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jdl import jets
from jdl.errors import SingularSystem
from jdl.fields import jet_solve
from jdl.jets import Jet

from conftest import reference_jet_solve

PARTS = ("value", "grad", "hess")


def _random_jet(rng, dim, order, value):
    """A jet with the given value and random symmetric derivatives."""
    g = rng.normal(size=dim)
    h = rng.normal(size=(dim, dim))
    return Jet(dim, order, value, g, h + h.T)


def _mixed(rng, values, dim, order, number_share):
    """Object array over ``values``: numbers where a draw falls below
    ``number_share``, jets elsewhere."""
    out = np.empty(values.shape, dtype=object)
    for idx, v in np.ndenumerate(values):
        out[idx] = (float(v) if rng.random() < number_share
                    else _random_jet(rng, dim, order, v))
    return out


def _relative_gap(x, y):
    """Worst relative gap over the Taylor parts of two jets or numbers."""
    if not isinstance(y, Jet):
        assert not isinstance(x, Jet)
        return abs(x - y) / max(1.0, abs(y))
    assert (x.dim, x.order) == (y.dim, y.order)
    gap = 0.0
    for part in PARTS[:y.order + 1]:
        a, b = np.asarray(getattr(x, part)), np.asarray(getattr(y, part))
        gap = max(gap, np.abs(a - b).max(initial=0.0)
                  / max(1.0, np.abs(b).max(initial=0.0)))
    return gap


def _assert_agrees(A, b, tol=1e-12):
    X, Y = jet_solve(A, b), reference_jet_solve(A, b)
    assert X.shape == Y.shape
    assert max(_relative_gap(x, y) for x, y in zip(X.flat, Y.flat)) <= tol
    return X


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 6), m=st.sampled_from([None, 1, 3]),
       dim=st.integers(1, 3), order=st.integers(1, 2),
       a_share=st.sampled_from([0.0, 0.3, 1.0]),
       b_share=st.sampled_from([0.0, 0.3, 1.0]),
       seed=st.integers(0, 2**32 - 1))
def test_matches_reference_on_random_systems(n, m, dim, order, a_share,
                                             b_share, seed):
    rng = np.random.default_rng(seed)
    # well conditioned, with the big entries off the diagonal so that the
    # column pivoting swaps rows
    A0 = (3.0 * np.eye(n) + 0.5 * rng.normal(size=(n, n)))[rng.permutation(n)]
    A = _mixed(rng, A0, dim, order, a_share)
    b = _mixed(rng, rng.normal(size=(n,) if m is None else (n, m)),
               dim, order, b_share)
    _assert_agrees(A, b)


def _product_residual(A, X, b):
    """max |A X - b| over the Taylor parts, in jet arithmetic."""
    n = len(A)
    rows = [sum(A[i][k] * X[k] for k in range(n)) - b[i] for i in range(n)]
    return max(np.abs(getattr(r, part)).max()
               for r in rows for part in PARTS)


def test_zero_leading_value_forces_a_pivot_swap():
    rng = np.random.default_rng(5)
    A = [[_random_jet(rng, 2, 2, 0.0), _random_jet(rng, 2, 2, 1.0)],
         [2.0, _random_jet(rng, 2, 2, -1.0)]]
    b = [_random_jet(rng, 2, 2, 0.5), 1.0]
    X = _assert_agrees(A, b)
    assert _product_residual(A, X, b) <= 1e-13


def test_inverse_of_a_jet_matrix():
    # x ↦ [[e^x, y], [0, 1]] has inverse [[e^-x, -y e^-x], [0, 1]]
    x, y = jets.coordinate_jets([0.3, -0.7], 2)
    X = jet_solve([[jets.exp(x), y], [0.0, 1.0]], np.eye(2))
    for got, want in ((X[0, 0], jets.exp(-x)), (X[0, 1], -y * jets.exp(-x))):
        assert _relative_gap(got, want) <= 1e-15
    assert X[1, 0].value == 0.0 and X[1, 1].value == 1.0


def test_builds_only_the_solution_jets(monkeypatch):
    rng = np.random.default_rng(6)
    A = _mixed(rng, 3.0 * np.eye(4) + rng.normal(size=(4, 4)), 3, 2, 0.0)
    built = []
    init = Jet.__init__

    def counted(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Jet, "__init__", counted)
    jet_solve(A, np.eye(4))
    assert len(built) == 16


def test_numbers_only_solve_to_numbers():
    X = jet_solve([[0.0, 2.0], [4.0, 0.0]], [2.0, 8.0])
    assert not isinstance(X[0], Jet)
    assert np.allclose(np.asarray(X, dtype=float), [2.0, 1.0])


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
    A = _mixed(rng, np.array(values), 2, 2, 0.0)
    for solve in (jet_solve, reference_jet_solve):
        with pytest.raises(SingularSystem):
            solve(A, np.eye(2))


def test_pivot_just_above_the_threshold_solves():
    # second pivot 1e-13·scale against max |A₀| = scale, at either scale
    for scale in (1.0, 1e-15):
        rng = np.random.default_rng(9)
        A = _mixed(rng, scale * np.array([[1.0, 1.0], [1.0, 1.0 + 1e-13]]),
                   2, 1, 0.0)
        X = jet_solve(A, [1.0, 2.0])
        want = 1e13 / scale
        assert abs(X[1].value - want) / want < 1e-2
