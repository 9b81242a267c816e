"""Tests for the warped-product mesh geodesic oracle."""

from __future__ import annotations

import math

import numpy as np
import pytest

from massflat.errors import DomainError, RangeError
from massflat.geometry import ManifoldModel
from massflat.mesh import MeshGeodesicOracle, mesh_distance
from massflat.profiles import schwarzschild


def test_radial_distance_on_flat_strip_is_exact():
    # warp f(s) = s: the flat annulus; a purely radial pair costs |ds|
    oracle = MeshGeodesicOracle(lambda s: np.asarray(s, dtype=float),
                                0.5, 4.5, 2.0 ** -6)
    d = oracle.distance((1.0, 0.0), (2.0, 0.0))
    assert d == pytest.approx(1.0, abs=1e-12)
    assert oracle.distance((1.0, 0.0), (1.0, 0.0)) == 0.0


def test_sphere_antipodal_distance():
    # f(s) = sin(s) on (0, pi) is the unit 2-sphere; antipodal points on the
    # equator are pi apart (over the pole), within the mesh inflation 2h
    h = 0.01
    oracle = MeshGeodesicOracle(lambda s: np.sin(np.asarray(s, dtype=float)),
                                1e-3, math.pi - 1e-3, h)
    d = oracle.distance((math.pi / 2.0, 0.0), (math.pi / 2.0, math.pi))
    assert math.pi - 1e-9 <= d <= math.pi + 2.0 * h


def test_mesh_never_undershoots_and_refinement_is_monotone():
    # cone f(s) = s: exact distance is the unrolled chord
    p, q = (1.0, 0.0), (2.0, 1.2)
    exact = math.sqrt(1.0 + 4.0 - 2.0 * 2.0 * math.cos(1.2))  # chord lower bound
    prev = math.inf
    for h in (0.08, 0.04, 0.02, 0.01):
        d = mesh_distance(lambda s: np.asarray(s, dtype=float),
                          (0.5, 2.5), p, q, h)
        assert d >= abs(p[0] - q[0]) - 1e-12  # arclength lower bound
        assert d >= exact - 1e-9  # chord in the ambient annulus
        assert d <= prev + 1e-12  # power-of-two grids nest
        prev = d
    assert prev == pytest.approx(exact, rel=0.02)


def test_from_model_radial_pairs_match_arclength():
    model = ManifoldModel(schwarzschild(3, 0.1), 12.0)
    s_a, s_b = float(model.s(0.5)), float(model.s(3.0))
    oracle = MeshGeodesicOracle.from_model(model, s_a, s_b, 0.02)
    # same-theta pairs ride the radial stencil direction: cost is exactly ds
    for sa, sb in ((s_a, s_b), (s_a + 0.25, s_b - 0.5)):
        d = oracle.distance((sa, 1.0), (sb, 1.0))
        ia = oracle.snap((sa, 1.0)) // oracle.n_theta
        ib = oracle.snap((sb, 1.0)) // oracle.n_theta
        snapped = abs(oracle.s_nodes[ib] - oracle.s_nodes[ia])
        assert d == pytest.approx(snapped, rel=1e-12)


def test_snap_and_node_point_round_trip():
    oracle = MeshGeodesicOracle(lambda s: np.ones_like(np.asarray(s)),
                                0.0, 1.0, 0.05)
    idx = oracle.snap((0.52, 1.0))
    s, theta = oracle.node_point(idx)
    assert abs(s - 0.52) <= 0.5 * oracle.h_s + 1e-12
    assert abs((theta - 1.0 + math.pi) % (2.0 * math.pi) - math.pi) \
        <= 0.5 * oracle.h_theta + 1e-12
    with pytest.raises(RangeError):
        oracle.snap((3.0, 0.0))


def test_mesh_rejects_bad_input():
    with pytest.raises(DomainError):
        MeshGeodesicOracle(lambda s: np.asarray(s), 1.0, 1.0, 0.01)
    with pytest.raises(DomainError):
        MeshGeodesicOracle(lambda s: np.asarray(s), 0.0, 1.0, -0.1)
    with pytest.raises(DomainError):
        MeshGeodesicOracle(lambda s: np.full_like(np.asarray(s), -1.0),
                           0.0, 1.0, 0.1)
    with pytest.raises(DomainError):
        # node budget guard
        MeshGeodesicOracle(lambda s: np.full_like(np.asarray(s), 100.0),
                           0.0, 100.0, 1e-4)


def test_distances_matrix_is_symmetric_in_roles():
    oracle = MeshGeodesicOracle(lambda s: np.asarray(s), 0.5, 2.5, 0.05)
    pts = [(0.7, 0.0), (1.3, 2.0), (2.2, 4.0)]
    mat = oracle.distances(pts, pts)
    assert mat.shape == (3, 3)
    np.testing.assert_allclose(mat, mat.T, rtol=0, atol=1e-12)
    assert np.all(np.diag(mat) == 0.0)


@pytest.mark.parametrize("h", [1e-9, 1e-6])
def test_mesh_size_is_checked_before_anything_is_evaluated(h, monkeypatch):
    # every mesh has at least 8 angular nodes, so span and h alone reject
    # these spacings; the warp must not be sampled on the fine grid first
    calls = []

    def warp(s):
        calls.append(np.size(s))
        return np.ones_like(np.asarray(s))

    with pytest.raises(DomainError, match="nodes"):
        MeshGeodesicOracle(warp, 0.0, 1.0, h)
    model = ManifoldModel(schwarzschild(3, 0.05), 8.0)

    def no_queries(*args, **kwargs):
        raise AssertionError("the model was queried")

    monkeypatch.setattr(model, "r_of_s", no_queries)
    with pytest.raises(DomainError, match="nodes"):
        MeshGeodesicOracle.from_model(model, 1.0, 2.0, h)
    assert calls == []
