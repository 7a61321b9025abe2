import csv
from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jdl.catalog import build
from jdl.chart import Chart, sample_points
from jdl.contact import ContactStructure, contact_to_jacobi
from jdl.fields import ScalarFieldSpec, constant, coordinate
from jdl.jacobi import aff1, hamiltonian_field, lie_poisson, so3
from jdl.jets import exp
from jdl.leaves import (LeafProbe, characteristic_subspace,
                        characteristic_vectors, check_pullback_distribution,
                        leaf_trace, trace_to_csv, verify_leaf_correspondence)

CASIMIR_TOL = 1e-9
SO3_CASIMIR = ScalarFieldSpec(3, lambda x, y, z: x * x + y * y + z * z)


@cache
def _pair(name):
    """so3, aff1, or "curved"; darboux3 is the conftest pair."""
    if name == "so3":
        return lie_poisson(so3())
    if name == "aff1":
        return lie_poisson(aff1())
    chart = Chart(name, 3, [(-2, 2)] * 3)
    # e^{0.3x + 0.2z}(dz - y dx): Π and E both non-linear
    return contact_to_jacobi(ContactStructure(chart, {
        (0,): lambda x, y, z: -y * exp(0.3 * x + 0.2 * z),
        (2,): lambda x, y, z: exp(0.3 * x + 0.2 * z)}))


def _frame_oracle(J, p):
    """The defining frame: X_f(p) of the derived Hamiltonian field of each
    f in {1, x_0, …, x_{n-1}}, as columns."""
    n = J.chart.dim
    fns = [constant(n, 1.0)] + [coordinate(n, i) for i in range(n)]
    return np.stack([hamiltonian_field(J, f).at(p) for f in fns], axis=1)


@pytest.mark.parametrize("name", ["so3", "aff1", "darboux3", "curved"])
def test_characteristic_vectors_match_frame_oracle(name, darboux3_pair):
    # dz - y dx: E = ∂z ≠ 0, Π linear; the pair is shared by every
    # example, as no example changes it
    J = darboux3_pair if name == "darboux3" else _pair(name)
    n = J.chart.dim
    coords = st.floats(-1.9, 1.9, allow_nan=False)

    @settings(max_examples=20, deadline=None, derandomize=True,
              database=None)
    @given(p=st.lists(coords, min_size=n, max_size=n),
           c=st.lists(coords, min_size=n + 1, max_size=n + 1))
    def matches(p, c):
        p, c = np.array(p), np.array(c)
        V = characteristic_vectors(J, p)
        F = _frame_oracle(J, p)
        assert V.shape == (n, n + 1)
        assert np.abs(V - F).max() <= 1e-12
        assert np.abs(V @ c - F @ c).max() <= 1e-12

    matches()


def test_characteristic_rank_classifies_points(darboux3_pair):
    aff = _pair("aff1")
    # {x, y} = y: symplectic off the line y = 0, zero on it
    assert characteristic_subspace(aff, [0.4, 0.7]).dim == 2
    assert characteristic_subspace(aff, [0.4, 0.0]).dim == 0
    # a contact pair is transitive
    assert characteristic_subspace(darboux3_pair, [0.1, -0.3, 0.5]).dim == 3


def test_so3_trace_keeps_casimir_and_rank():
    probe = leaf_trace(_pair("so3"), [0.3, -0.2, 0.4], n_steps=400, seed=5,
                       casimirs=[SO3_CASIMIR])
    assert not probe.aborted
    assert len(probe.points) == 401
    assert probe.casimir_drift < CASIMIR_TOL
    assert probe.rank_constant and probe.dimension == 2
    assert probe.parity == "even"
    assert probe.rank_steps == [0, 100, 200, 300, 400, 400]
    # the trace moved: it is not a fixed point of the flow
    assert np.abs(probe.points[-1] - probe.points[0]).max() > 1e-2


def test_non_casimir_drifts():
    probe = leaf_trace(_pair("so3"), [0.3, -0.2, 0.4], n_steps=100, seed=5,
                       casimirs=[coordinate(3, 0)])
    assert not probe.aborted
    assert probe.casimir_drift > CASIMIR_TOL


def test_trace_near_box_edge_aborts():
    # on the diagonal the rotation velocities sum to zero, so some
    # coordinate grows past the box edge at 2 within a few steps
    J = _pair("so3")
    probe = leaf_trace(J, [1.999] * 3, n_steps=200, seed=5)
    assert probe.aborted
    assert len(probe.points) < 201
    assert all(J.chart.in_box(q) for q in probe.points)
    assert probe.rank_steps[-1] == len(probe.points) - 1


def test_leaf_correspondence_trivgpd():
    dp = build("trivgpd")
    seeds = sample_points(dp.source.chart, 5, seed=81)
    assert verify_leaf_correspondence(dp, seeds).passed
    # both legs map onto points of rank-0 leaves: the parity is even
    assert not verify_leaf_correspondence(dp, seeds, "odd").passed


def test_pullback_distribution_controls(trivgpd_tiny_leg):
    dp = build("trivgpd")
    pts = sample_points(dp.source.chart, 5, seed=82)
    assert check_pullback_distribution(dp, pts).passed
    # φ1 = 1e-10·q: the preimage under DΦ1 keeps its tiny Tφ row
    assert check_pullback_distribution(trivgpd_tiny_leg, pts).passed
    broken = build("broken-comm")
    assert not check_pullback_distribution(broken, pts).passed


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_csv_rank_column_follows_samples(tmp_path):
    pts = [np.array([float(k), 0.0]) for k in range(5)]
    probe = LeafProbe(pts, [2, 0, 2], [0, 2, 4], 0.0, 0.0, False)
    path = tmp_path / "trace.csv"
    trace_to_csv(probe, path)
    rows = _read_csv(path)
    assert rows[0] == ["step", "x0", "x1", "rank"]
    assert [int(r[-1]) for r in rows[1:]] == [2, 2, 0, 0, 2]


def test_csv_round_trip_so3(tmp_path):
    probe = leaf_trace(_pair("so3"), [0.3, -0.2, 0.4], n_steps=30,
                       rank_every=10, seed=6)
    path = tmp_path / "so3.csv"
    trace_to_csv(probe, path, casimir_fields=[SO3_CASIMIR])
    rows = _read_csv(path)
    assert rows[0] == ["step", "x0", "x1", "x2", "rank", "casimir0"]
    assert len(rows) == len(probe.points) + 1
    for row, q in zip(rows[1:], probe.points):
        step = int(row[0])
        assert np.array_equal([float(v) for v in row[1:4]], q)
        assert int(row[4]) == probe.rank_at(step) == 2
        assert float(row[5]) == SO3_CASIMIR.value(q)
