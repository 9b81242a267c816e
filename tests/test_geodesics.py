"""Tests for the exact tube distance (Clairaut geodesics) and the sampled
embedding check's lattice."""

from __future__ import annotations

import math

import numpy as np
import pytest

from massflat import geometry
from massflat.embedding import (_path_integrals, annulus_distance,
                                metric_embedding_check, tube_distance)
from massflat.errors import DomainError, RangeError
from massflat.geometry import ManifoldModel, tubular_window
from massflat.profiles import (ConstantPiece, HawkingProfile, PowerLawPiece,
                               deep_well, flat, schwarzschild)

from util import count_panels, range_integrals

TWO_PI = 2.0 * math.pi


def _folded(t1, t2):
    phi = np.abs(t1 - t2) % TWO_PI
    return np.minimum(phi, TWO_PI - phi)


def _random_pairs(seed, r_lo, r_hi, n):
    rng = np.random.default_rng(seed)
    return (rng.uniform(r_lo, r_hi, n), rng.uniform(0.0, TWO_PI, n),
            rng.uniform(r_lo, r_hi, n), rng.uniform(0.0, TWO_PI, n))


def test_flat_tube_matches_annulus_distance():
    model = ManifoldModel(flat(3), 4.0)
    r_in = 0.6
    r1, t1, r2, t2 = _random_pairs(12, r_in, 2.2, 400)
    # points on the inner circle, and pairs across it, hug the circle
    r1 = np.concatenate([r1, [r_in, r_in, 0.7, 2.0]])
    r2 = np.concatenate([r2, [r_in, 1.5, 0.7, 2.0]])
    t1 = np.concatenate([t1, [0.0, 0.0, 0.0, 0.0]])
    t2 = np.concatenate([t2, [1.0, 3.0, math.pi, 3.0]])
    exact = annulus_distance(r_in, r1, t1, r2, t2)
    got = tube_distance(model, r_in, r1, t1, r2, t2)
    np.testing.assert_allclose(got, exact, rtol=1e-12, atol=0.0)
    chord = np.sqrt(r1**2 + r2**2 - 2.0 * r1 * r2 * np.cos(t1 - t2))
    assert np.count_nonzero(exact > chord * (1.0 + 1e-9)) >= 50


def test_cone_matches_the_unrolled_annulus():
    # m_H = k r makes s' = 1 / sqrt(1 - 2k) constant: the cone r = a s,
    # which unrolls onto a plane sector with angles scaled by a
    k = 0.3
    a = math.sqrt(1.0 - 2.0 * k)
    cone = HawkingProfile(3, 0.0, (PowerLawPiece(0.0, 3.0, k, 1.0),
                                   ConstantPiece(3.0, math.inf, 3.0 * k)))
    model = ManifoldModel(cone, 2.9, check=False)
    r_in = 0.4
    r1, t1, r2, t2 = _random_pairs(5, r_in, 2.8, 300)
    got = tube_distance(model, r_in, r1, t1, r2, t2)
    want = annulus_distance(r_in / a, r1 / a, 0.0, r2 / a, a * _folded(t1, t2))
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-10)


def test_lower_hemisphere_matches_spherical_trigonometry():
    # m_H = r^3 / 2 makes s' = 1 / sqrt(1 - r^2): the unit sphere around a
    # pole, r = sin s; the inner circle sits at colatitude s_in
    cap = HawkingProfile(3, 0.0, (PowerLawPiece(0.0, 0.95, 0.5, 3.0),
                                  ConstantPiece(0.95, math.inf,
                                                0.5 * 0.95**3)))
    model = ManifoldModel(cap, 0.94, check=False)
    r_in = 0.3
    s_in = math.asin(r_in)
    r1, t1, r2, t2 = _random_pairs(6, r_in, 0.94, 300)
    phi = _folded(t1, t2)
    s1, s2 = np.arcsin(r1), np.arcsin(r2)
    great = np.arccos(np.cos(s1) * np.cos(s2)
                      + np.sin(s1) * np.sin(s2) * np.cos(phi))

    def tangent(s):
        # great-circle arc to the inner circle's tangent point, and the
        # angle it sweeps about the pole
        return (np.arccos(np.cos(s) / math.cos(s_in)),
                np.arccos(math.tan(s_in) / np.tan(s)))

    (arc1, sweep1), (arc2, sweep2) = tangent(s1), tangent(s2)
    hug = phi > sweep1 + sweep2
    want = np.where(hug, arc1 + arc2 + r_in * (phi - sweep1 - sweep2), great)
    assert np.count_nonzero(hug) >= 50
    got = tube_distance(model, r_in, r1, t1, r2, t2)
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-10)


def test_radial_pairs_read_the_arclength():
    model = ManifoldModel(schwarzschild(3, 0.1), 8.0)
    r1 = np.array([0.2, 0.5, 1.0, 3.0])
    r2 = np.array([3.0, 0.5, 7.5, 1.0])
    got = tube_distance(model, 0.2, r1, 2.0, r2, 2.0 + TWO_PI)
    assert got.tolist() == np.abs(model.s(r2) - model.s(r1)).tolist()


@pytest.mark.parametrize("profile, r_in, r_hi", [
    (lambda: schwarzschild(3, 0.1), 0.2, 2.0),
    (lambda: schwarzschild(3, 0.1), 0.5, 2.0),
    (lambda: deep_well(3, 0.2, 4.0 * math.pi, 1.0), 0.24, 0.9),
    # from the descent segment [r_p, r_w0] of the core past both ride knots
    (lambda: deep_well(3, 1e-5, math.pi / 100, 10.0), 3.0128e-6, 1.6875e-5),
], ids=["horizon", "schwarzschild", "deep-well", "deep-well-core"])
def test_distance_is_symmetric_and_batch_independent(profile, r_in, r_hi):
    model = ManifoldModel(profile(), 8.0)
    r1, t1, r2, t2 = _random_pairs(3, r_in, r_hi, 40)
    r1[:4] = r_in  # on the inner circle: hugging, or spiralling on a horizon
    batch = tube_distance(model, r_in, r1, t1, r2, t2)
    assert np.all(np.isfinite(batch))
    alone = [tube_distance(model, r_in, *args)
             for args in zip(r1, t1, r2, t2)]
    swapped = tube_distance(model, r_in, r2, t2, r1, t1)
    assert batch.tolist() == alone == swapped.tolist()
    grid = tube_distance(model, r_in, r1[:, None], t1[:, None],
                         r2[None, :], t2[None, :])
    assert grid.shape == (40, 40)
    assert np.diag(grid).tolist() == batch.tolist()


@pytest.mark.parametrize("u", [1e-9, 1e-7, 1e-5, 1e-3])
def test_paths_with_small_clairaut_constants_match_the_radial_integral(u):
    # the straight segment sweeping u between r1 and r2 on one side of the
    # origin has c << r, where alpha = arctan(v / c) lies within c / r of
    # pi/2 and resolves r only to 2.2e-16 r / c: such cells run in -beta.
    # Both integrals of the non-turning path equal their integrals in r.
    model = ManifoldModel(deep_well(3, 1e-5, math.pi / 100, 10.0), 40.0)
    r1, r2 = 3.0128e-6, 1.6875e-5
    # c as tube_distance forms it for u
    chord = math.hypot(r2 - r1, 2.0 * math.sqrt(r1 * r2) * math.sin(0.5 * u))
    c = r1 * r2 * math.sin(u) / chord
    assert r1 < r2 * math.cos(u) and c < 0.01 * r1
    for length, dx_dr in ((True, lambda r: r), (False, lambda r: c / r)):
        got = _path_integrals(model, np.array([r1]), np.array([r2]),
                              np.array([c]), np.array([False]), length)[0]
        want = range_integrals(
            model,
            lambda r: model.s_prime(r) * dx_dr(r) / np.sqrt((r - c) * (r + c)),
            [(r1, r2)])[0, 0]
        assert abs(got - want) <= 1e-13 * want, length


def test_deep_well_tube_check_takes_few_quadrature_nodes(monkeypatch):
    # a tube of the delta = 1e-5 well that reaches through the core: its
    # legs run under the model's ride substitution beside the ride knots,
    # where bisecting in r towards the knots needs over 20 M nodes
    model = ManifoldModel(deep_well(3, 1e-5, math.pi / 100, 10.0), 40.0)
    window = tubular_window(model, math.pi / 100, 15.0)
    assert window.r_minus < 8.75e-6 < window.r_plus  # the release knot r_r
    panels = count_panels(monkeypatch)
    rep = metric_embedding_check(model, window, mesh_h=0.05, seed=1,
                                 n_pairs=32, S=1.0)
    assert rep["n_pairs"] == 32
    assert panels.nodes <= 1_000_000
    # the lengths' cells also end at the tail's graded knots beside the
    # release end r_t: the last length run bisected 24 levels towards the
    # near-root of the tail's gap at 2 delta' when legs ended only at cuts
    # (48 passes in all), it now takes 3 (29 in all)
    assert max(panels.runs) <= 4
    assert panels.passes <= 30


def test_tube_check_quadrature_work(monkeypatch):
    # the oracle's integrals on a Schwarzschild tube.  Gauged by K21
    # against G10, the final length run bisects 818 of its 3,554 level-0
    # cells once (377,580 nodes in all); a 16-point rule gauged by an
    # 8-point one bisected 1,600 of them, some twice (485,808 nodes)
    model = ManifoldModel(schwarzschild(3, 0.1), 8.0)
    window = tubular_window(model, 4.0 * math.pi, 0.5)
    panels = count_panels(monkeypatch)
    rep = metric_embedding_check(model, window, mesh_h=0.02, seed=1)
    assert rep["violations"] == 0
    assert max(panels.runs) <= 2
    assert panels.nodes <= 400_000


def test_deep_well_tube_check_default_allowance_finds_no_violation():
    model = ManifoldModel(deep_well(3, 1e-5, math.pi / 100, 10.0), 40.0)
    window = tubular_window(model, math.pi / 100, 15.0)
    rep = metric_embedding_check(model, window, mesh_h=0.05, seed=1,
                                 n_pairs=32)
    assert rep["violations"] == 0


def test_leg_cells_end_at_graded_knots_only_beside_ride_pieces():
    # the lengths of legs on a deep well also end at the tail's graded
    # knots; Schwarzschild has no ride knots and keeps its legs' cells
    well = ManifoldModel(deep_well(3, 1e-5, math.pi / 100, 10.0), 40.0)
    # a build that shoots no geodesic does not form them
    assert "_length_cuts" not in vars(well)
    r_t = well.profile.pieces[-1].r_lo
    tail = well._length_cuts[well._length_cuts > r_t]
    assert tail.size > 20 and np.isin(tail, well.knots).all()
    assert np.isin(well._cuts, well._length_cuts).all()
    plain = ManifoldModel(schwarzschild(3, 0.1), 8.0)
    np.testing.assert_array_equal(plain._length_cuts, plain._cuts)


def test_batches_spanning_several_integrand_calls_match_each_pair():
    # every path is its own tolerance group, so how its cells fall into the
    # quadrature's integrand calls cannot change its value
    model = ManifoldModel(schwarzschild(3, 0.1), 8.0)
    per_call = geometry._BLOCK // geometry._GL_X.size
    r1, t1, r2, t2 = _random_pairs(5, 0.5, 2.0, 2 * per_call + 3)
    batch = tube_distance(model, 0.5, r1, t1, r2, t2)
    alone = [tube_distance(model, 0.5, *args) for args in zip(r1, t1, r2, t2)]
    assert batch.tolist() == alone


def test_horizon_circle_is_a_shortest_path():
    model = ManifoldModel(schwarzschild(3, 0.1), 8.0)
    r_min = model.r_min
    phi = np.array([0.1, 1.0, math.pi])
    assert tube_distance(model, r_min, r_min, 0.0, r_min, phi).tolist() \
        == (r_min * phi).tolist()
    # off the horizon: no shorter than the arclength, no longer than down,
    # around the horizon and up
    r = np.array([0.21, 0.5, 1.5])
    d = tube_distance(model, r_min, r_min, 0.0, r, phi)
    s = model.s(r)
    assert np.all(s <= d) and np.all(d <= s + r_min * phi)


# Distances from the Dijkstra mesh oracle that tube_distance replaced
# (MeshGeodesicOracle, h = 0.01) on the tube s in [s(0.5), s(3.0)] of
# Schwarzschild M = 0.1 with r_cap = 8, between mesh nodes (s, theta).  The
# mesh never undershoots by more than round-off and overshoots by at most
# 0.01 d + 2.5 h.
PINNED_MESH = [
    # monotone in r
    ((0.6465843827017514, 0.0), (2.181912277253909, 0.1227184630308513),
     1.542319833387071),
    ((1.1230654534248348, 0.0), (3.2407591010829826, 0.6135923151542565),
     2.3487622651832343),
    # one turning point
    ((2.181912277253909, 0.0), (2.287796959636816, 0.9203884727313847),
     1.766805316451682),
    ((2.9760473951257143, 0.0), (2.9760473951257143, 1.8407769454627694),
     4.335134357701152),
    # hugging the inner circle
    ((0.8054114062761125, 0.0), (0.91129608865902, 2.761165418194154),
     1.6789541976529585),
    ((0.5936420415102978, 0.0), (0.5936420415102978, 3.067961575771282),
     1.533980787885635),
    ((0.6201132121060247, 0.030679615757712823),
     (2.711335689168446, 3.067961575771282), 3.387619487550463),
    # same angle
    ((1.6524888653393717, 0.009203884727313847),
     (3.3042899105127272, 0.009203884727313847), 1.6518010451733536),
]


def test_distances_at_most_the_pinned_mesh_values():
    model = ManifoldModel(schwarzschild(3, 0.1), 8.0)
    s_plus, h = float(model.s(3.0)), 0.01
    r_in = float(model.r_of_s(model.s(0.5)))
    for (s1, t1), (s2, t2), pinned in PINNED_MESH:
        exact = tube_distance(model, r_in, model.r_of_s(s1), t1,
                              model.r_of_s(s2), t2)
        assert exact <= pinned + 1e-9 * s_plus
        assert pinned - exact <= 0.01 * exact + 2.5 * h


def test_radius_outside_the_tube_raises():
    model = ManifoldModel(schwarzschild(3, 0.1), 8.0)
    for r1, r2 in ((0.4999, 1.0), (1.0, 8.0 * (1.0 + 1e-7)), (math.nan, 1.0),
                   (1.0, math.inf)):
        with pytest.raises(RangeError):
            tube_distance(model, 0.5, r1, 0.0, r2, 1.0)
    with pytest.raises(RangeError):
        tube_distance(model, 0.19, 1.0, 0.0, 2.0, 1.0)  # inside the horizon


def _window():
    model = ManifoldModel(schwarzschild(3, 0.05), 8.0)
    return model, tubular_window(model, 4.0 * math.pi, 0.5)


@pytest.mark.parametrize("h", [math.nan, 0.0, -1.0, math.inf])
def test_bad_mesh_h_raises_domain_error(h):
    model, window = _window()
    with pytest.raises(DomainError, match="mesh spacing h must be finite"):
        metric_embedding_check(model, window, h, seed=0)


@pytest.mark.parametrize("h", [1e-9, 1e-300])
def test_lattice_size_is_checked_before_anything_is_evaluated(h,
                                                              monkeypatch):
    model, window = _window()

    def no_queries(*args, **kwargs):
        raise AssertionError("the model was queried")

    for name in ("s", "F", "r_of_s", "sup_grad", "s_prime"):
        monkeypatch.setattr(model, name, no_queries)
    with pytest.raises(DomainError, match="int64"):
        metric_embedding_check(model, window, h, seed=0)


def test_fine_lattices_cost_only_their_samples():
    model, window = _window()
    rep = metric_embedding_check(model, window, 1e-6, seed=1, n_pairs=64)
    assert rep["n_pairs"] == 64
    assert rep["violations"] == 0
