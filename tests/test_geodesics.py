"""Tests for the exact tube distance (Clairaut geodesics) and the sampled
embedding check's lattice."""

from __future__ import annotations

import math

import numpy as np
import pytest

from massflat import embedding, geometry
from massflat.embedding import (_path_integrals, annulus_distance,
                                metric_embedding_check, tube_distance)
from massflat.errors import DomainError, RangeError
from massflat.geometry import ManifoldModel, tubular_window
from massflat.profiles import (ConstantPiece, HawkingProfile, PowerLawPiece,
                               deep_well, flat, schwarzschild)

from util import (count_panels, count_piece_evaluations, exact_arclength,
                  range_integrals)

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


def _clairaut_leg(mpmath, s_prime, c, a, b, angle):
    """The leg from radius a to b of the geodesic with Clairaut constant
    c <= a, to 40 digits: s'(r) times r / sqrt(r^2 - c^2) (its length) or
    c / (r sqrt(r^2 - c^2)) (its angle), integrated over
    v = sqrt(r^2 - c^2), which absorbs the kernel's 1/sqrt(r - c)."""
    with mpmath.workdps(40):
        c = mpmath.mpf(c)

        def f(v):
            r = mpmath.sqrt(c * c + v * v)
            return s_prime(r) * (c / (r * r) if angle else 1)

        return mpmath.quad(f, [mpmath.sqrt(mpmath.mpf(x) ** 2 - c * c)
                               for x in (a, b)])


def _well_core(profile):
    return next(p for p in profile.pieces
                if p.kind == "cubic-spline" and p.gap_space)


@pytest.mark.parametrize("name", ["schwarzschild", "deep-well-tail",
                                  "deep-well-descent"])
def test_turning_paths_against_mpmath(name):
    # a turning path sums 2 A(c, r1) + A(r1, r2) over its legs; its length
    # and swept angle hold 1e-13 relative against 40-digit integrals of the
    # Clairaut kernel.  On Schwarzschild the paths turn below the boundary
    # chart's edge, next to the horizon, at r1 and far out; on the deep
    # well in the tail, whose length cells end at its graded knots, and in
    # the descent into the ride knot r_w0.
    mpmath = pytest.importorskip("mpmath")
    if name == "schwarzschild":
        model = ManifoldModel(schwarzschild(3, 0.1), 8.0)
        assert model._sub_edge > 0.205
        paths = [(0.205, 0.3, 2.0), (0.25, 0.25 * (1.0 + 1e-9), 7.5),
                 (1.0, 1.0, 3.0), (2.0, 4.0, 5.0)]
        two_m = 2 * mpmath.mpf(0.1)
    else:
        profile = deep_well(3, 1e-5, math.pi / 100, 10.0)
        model = ManifoldModel(profile, 40.0)
        tail = profile.pieces[-1]
        r_p, r_w0 = _well_core(profile).knots[:2]
        paths = ([(1.13e-5, 1.2e-5, 3e-5), (1.3e-5, 2e-5, 1e-4)]
                 if name == "deep-well-tail" else
                 [(3.5e-6, 0.5 * (3.5e-6 + r_w0), r_w0),
                  (r_p, 3.5e-6, r_w0)])
        two_m = 2 * mpmath.mpf(tail.value)
    c, r1, r2 = (np.array(v) for v in zip(*paths))
    turning = np.ones(c.size, dtype=bool)
    for angle in (False, True):
        got = _path_integrals(model, r1, r2, c, turning, not angle)

        def leg(c, a, b):
            if name == "deep-well-descent":
                return exact_arclength(mpmath, _well_core(model.profile), 0,
                                       a, b, c, angle)
            return _clairaut_leg(
                mpmath, lambda r: mpmath.sqrt(r / (r - two_m)), c, a, b,
                angle)

        for j, (cj, a, b) in enumerate(paths):
            exact = 2 * leg(cj, cj, a) + (leg(cj, a, b) if b > a else 0)
            assert abs(mpmath.mpf(got[j]) - exact) <= 1e-13 * exact, \
                (paths[j], angle)


def test_leg_radius_within_4_ulps_of_mpmath():
    # the plain leg charts map nodes back to r without a sine or a hypot:
    # alpha = arctan(v / c) up to pi/4, -beta = -arctan(c / v) past it, and
    # v = sqrt(r^2 - c^2), with c / r from 1 down to 1e-9 and nodes next to
    # the turning point r = c
    mpmath = pytest.importorskip("mpmath")
    model = ManifoldModel(flat(3), 4.0)  # r_min = 0 clips nothing
    rng = np.random.default_rng(17)
    n = 400
    c = 10.0 ** rng.uniform(-3.0, 1.0, (n, 1))
    near = 10.0 ** rng.uniform(-12.0, -1.0, n)  # from the turning point
    alpha = np.concatenate([near[:n // 2], rng.uniform(0.0, math.pi / 4,
                                                       n // 2)])
    beta = np.concatenate([math.pi / 2 - near[:n // 2],
                           np.arctan(10.0 ** rng.uniform(-9.0, 0.0, n // 2))])
    v = c[:, 0] * 10.0 ** np.concatenate([rng.uniform(-12.0, -1.0, n // 2),
                                          rng.uniform(-1.0, 9.0, n // 2)])
    nodes = np.stack([alpha, -beta, v], axis=1)
    got = np.stack([model._leg_radius(nodes[:, :1], c, True)[:, 0],
                    model._leg_radius(nodes[:, 1:2], -c, True)[:, 0],
                    model._leg_radius(nodes[:, 2:], c, False)[:, 0]], axis=1)
    with mpmath.workdps(40):
        for i in range(n):
            ci = mpmath.mpf(c[i, 0])
            x = [mpmath.mpf(float(e)) for e in nodes[i]]
            exact = (ci / mpmath.cos(x[0]), ci / mpmath.sin(-x[1]),
                     mpmath.sqrt(x[2] ** 2 + ci * ci))
            for j in range(3):
                err = abs(mpmath.mpf(got[i, j]) - exact[j])
                assert err <= 4.0 * np.spacing(float(exact[j])), (i, j)


@pytest.mark.parametrize("profile, r_in, r_hi", [
    (lambda: schwarzschild(3, 0.1), 0.2, 2.0),
    (lambda: schwarzschild(3, 0.1), 0.5, 2.0),
    (lambda: deep_well(3, 1e-5, math.pi / 100, 10.0), 3.0128e-6, 1.6875e-5),
    (lambda: deep_well(3, 1e-5, math.pi / 100, 10.0), 2e-5, 1e-3),
], ids=["horizon", "schwarzschild", "deep-well-core", "deep-well-tail"])
def test_each_path_ends_on_a_shot_within_the_angle_tolerance(
        profile, r_in, r_hi, monkeypatch):
    # the predictor only steers: the swept angle at each path's final u,
    # integrated again, lies within 1e-10 of phi, or below phi where the
    # path hugs the inner circle (c = r_in)
    model = ManifoldModel(profile(), 40.0)
    r1, t1, r2, t2 = _random_pairs(8, r_in, r_hi, 60)
    r1, r2 = np.minimum(r1, r2), np.maximum(r1, r2)
    phi = _folded(t1, t2)
    finals = []
    integrals = model._leg_integrals

    def kept(lo, hi, c, angle, group):
        if not angle:
            finals.append((c, group))
        return integrals(lo, hi, c, angle, group)

    monkeypatch.setattr(model, "_leg_integrals", kept)
    embedding._shoot(model, r_in, r1, r2, phi)
    # the length run labels each path's own legs with the path, one leg or
    # two where it turns; a grazing path has no leg of its own
    (c_leg, group), = finals
    own = group < phi.size
    c = np.full(phi.size, r_in)
    c[group[own]] = c_leg[own]
    n_legs = np.bincount(group[own], minlength=phi.size)
    turning = np.where(n_legs > 0, n_legs == 2, r1 > r_in)
    theta = _path_integrals(model, r1, r2, c, turning, False)
    hug = c == r_in
    assert np.all(np.abs(theta - phi)[~hug] <= 1e-10)
    assert np.all(theta[hug] <= phi[hug] + 1e-10)
    assert np.count_nonzero(~hug) >= 30


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
    # (48 passes in all), it now takes 2.  The predictor-corrector shoots
    # 80 times after 18 hugging checks, in 16 passes and 25,095 nodes in
    # all (25,473 with two legs per grazing path); regula falsi from
    # u = phi shot 108 times (19 passes, 28,791)
    assert max(panels.runs) <= 4
    assert panels.passes <= 30


def test_tube_check_quadrature_work(monkeypatch):
    # the oracle's integrals on a Schwarzschild tube.  The hugging check of
    # 848 paths integrates one grazing leg A(r_in, r) per distinct radius:
    # 48 legs in 47 cells, where two legs per path took 1,662 cells.  The
    # Gauss predictor then picks first shots that mostly land within the
    # angle tolerance: 1,428 paths shoot 1,742 times.  A turning path sums
    # 2 A(c, r1) + A(r1, r2); the 616 that hug read the shared legs, folded
    # into the final length run, which bisects 186 of its 2,359 level-0
    # cells once (3,514 and 394 with two legs per hugging path).  In all
    # 115,605 nodes in 5 passes, and 168,188 profile-evaluated radii, the
    # predictor's included; 178,143 nodes and 230,726 radii with two legs
    # per grazing path.  Shooting from u = phi by regula falsi alone (6,335
    # shots), with legs A(c, r1) + A(c, r2), took 368,886 nodes in 9 passes
    # and 368,909 radii
    model = ManifoldModel(schwarzschild(3, 0.1), 8.0)
    window = tubular_window(model, 4.0 * math.pi, 0.5)
    panels = count_panels(monkeypatch)
    radii = count_piece_evaluations(monkeypatch).radii
    rep = metric_embedding_check(model, window, mesh_h=0.02, seed=1)
    assert rep["violations"] == 0
    assert max(panels.runs) <= 2
    assert panels.passes <= 5
    assert panels.nodes <= 125_000
    assert sum(radii.values()) <= 180_000


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


@pytest.mark.parametrize("r_in, scales", [
    (0.5, (1.0, 1.1, 1.6, 3.5)),
    (None, (1.1, 1.6, 3.5)),
], ids=["schwarzschild", "horizon"])
def test_grazing_legs_shared_across_a_lattice_batch_match_each_pair(
        r_in, scales):
    # every source against every target, as metric_embedding_check pairs
    # them, on a few lattice rows: the paths grazing the inner circle share
    # one leg A(r_in, r) per distinct radius, each its own tolerance group,
    # so the batch gives each pair's distance alone, bit for bit.  On the
    # horizon (r_in = r_min) the grazing legs spiral and no path hugs
    model = ManifoldModel(schwarzschild(3, 0.1), 8.0)
    r_in = model.r_min if r_in is None else r_in
    rng = np.random.default_rng(4)
    rows = r_in * np.array(scales)
    rs, rt = rng.choice(rows, 12), rng.choice(rows, 16)
    ts, tt = (TWO_PI / 64) * rng.integers(0, 64, 12), \
        (TWO_PI / 64) * rng.integers(0, 64, 16)
    grid = tube_distance(model, r_in, rs[:, None], ts[:, None],
                         rt[None, :], tt[None, :])
    alone = [[tube_distance(model, r_in, a, ta, b, tb)
              for b, tb in zip(rt, tt)] for a, ta in zip(rs, ts)]
    assert np.all(np.isfinite(grid))
    assert grid.tolist() == alone

    r1 = np.minimum(rs[:, None], rt[None, :]).ravel()
    r2 = np.maximum(rs[:, None], rt[None, :]).ravel()
    phi = _folded(ts[:, None], tt[None, :]).ravel()
    n = phi.size

    def grazing_path(angle):
        # the per-path form: A(r1, r2) + 2 A(r_in, r1), the legs of a path
        # in its own tolerance group
        legs = model._leg_integrals(
            np.concatenate([r1, np.full(n, r_in)]), np.concatenate([r2, r1]),
            np.full(2 * n, r_in), angle, np.tile(np.arange(n), 2))
        return legs[:n] + 2.0 * legs[n:]

    theta = grazing_path(True)
    lo, hi, c, index = embedding._grazing_legs(r_in, r1, r2)
    shared = model._leg_integrals(lo, hi, c, True, np.arange(hi.size))
    assert hi.size == rows.size
    np.testing.assert_allclose(shared[index[0]] + shared[index[1]], theta,
                               rtol=1e-14, atol=0.0)
    hug = phi > theta + 1e-9
    if r_in == model.r_min:
        assert np.all(np.isinf(shared)) and not hug.any()
        return
    assert np.count_nonzero(hug) >= 40
    want = grazing_path(False) + r_in * (phi - theta)
    np.testing.assert_allclose(grid.ravel()[hug], want[hug], rtol=1e-14,
                               atol=0.0)


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
