"""Tests for Hawking-mass profiles: pieces, validation, generators."""

from __future__ import annotations

import math

import numpy as np
import pytest

from massflat.errors import DomainError, RangeError
from massflat.profiles import (
    ConstantPiece,
    CubicSplinePiece,
    HawkingProfile,
    PowerLawPiece,
    StripePiece,
    deep_well,
    deep_well_parameters,
    flat,
    monotone_slopes,
    schwarzschild,
    stripes,
    unit_sphere_area,
    validate,
)
from util import random_spline_profile


def test_unit_sphere_area_known_values():
    assert unit_sphere_area(3) == pytest.approx(4.0 * math.pi, rel=1e-15)
    assert unit_sphere_area(4) == pytest.approx(2.0 * math.pi**2, rel=1e-15)
    assert unit_sphere_area(5) == pytest.approx(8.0 * math.pi**2 / 3.0,
                                                rel=1e-15)
    with pytest.raises(DomainError):
        unit_sphere_area(1)
    with pytest.raises(DomainError):
        unit_sphere_area(3.0)


def test_constant_and_power_law_pieces():
    c = ConstantPiece(0.5, 2.0, 0.1)
    rs = np.linspace(0.5, 2.0, 7)
    assert np.all(c.mass(rs) == 0.1)
    assert np.all(c.mass_prime(rs) == 0.0)
    p = PowerLawPiece(0.0, 1.0, 0.2, 3.0)
    rs = np.linspace(0.0, 1.0, 9)
    np.testing.assert_allclose(p.mass(rs), 0.2 * rs**3, rtol=1e-15)
    np.testing.assert_allclose(p.mass_prime(rs), 0.6 * rs**2, rtol=1e-15)


def test_stripe_piece_matches_sphere_curve():
    k = 0.15
    sp = StripePiece(1.0, 1.5, k)
    rs = np.linspace(1.0, 1.5, 11)
    np.testing.assert_allclose(sp.mass(rs), 0.5 * k * rs**3, rtol=1e-15)
    np.testing.assert_allclose(sp.mass_prime(rs), 1.5 * k * rs**2, rtol=1e-15)
    # wall gap channel agrees with the direct formula away from the wall
    np.testing.assert_allclose(sp.wall_gap(rs, 3), rs - k * rs**3, rtol=1e-14)


def test_cubic_spline_piece_interpolates_hermite_data():
    knots = [1.0, 2.0, 4.0]
    values = [0.1, 0.3, 0.35]
    slopes = [0.0, 0.1, 0.0]
    sp = CubicSplinePiece(knots, values, slopes)
    np.testing.assert_allclose(sp.mass(np.array(knots)), values, rtol=1e-14)
    np.testing.assert_allclose(sp.mass_prime(np.array(knots)), slopes,
                               atol=1e-14)
    # derivative against central differences in the interior
    rs = np.linspace(1.05, 3.95, 41)
    h = 1e-6
    fd = (sp.mass(rs + h) - sp.mass(rs - h)) / (2.0 * h)
    np.testing.assert_allclose(sp.mass_prime(rs), fd, rtol=1e-7, atol=1e-9)


def test_cubic_spline_rejects_bad_data():
    with pytest.raises(DomainError):
        CubicSplinePiece([1.0], [0.1], [0.0])
    with pytest.raises(DomainError):
        CubicSplinePiece([1.0, 1.0], [0.1, 0.2], [0.0, 0.0])
    with pytest.raises(DomainError):
        CubicSplinePiece([1.0, 2.0], [0.1, np.inf], [0.0, 0.0])
    with pytest.raises(DomainError):
        CubicSplinePiece([1.0, 2.0], [0.1, 0.2], [0.0, 0.0], power=0.5)


def test_spline_knot_at_the_origin_needs_zero_slope_only_above_power_one():
    # du/dr = power r^(power - 1) vanishes at r = 0 only for power > 1
    with pytest.raises(DomainError, match="zero slope"):
        CubicSplinePiece([0.0, 1.0], [0.0, 0.2], [0.1, 0.0], power=2.0)
    sq = CubicSplinePiece([0.0, 1.0], [0.0, 0.2], [0.0, 0.0], power=2.0)
    assert sq.mass_prime(np.array([0.0]))[0] == 0.0
    lin = CubicSplinePiece([0.0, 1.0], [0.0, 0.2], [0.1, 0.0])
    np.testing.assert_array_equal(lin.mass_prime(np.array([0.0, 1.0])),
                                  [0.1, 0.0])


def test_gap_space_spline_is_cancellation_free_near_wall():
    # gap drops from 1e-3 to 1e-18 across one interval; the evaluated gap
    # must stay positive and monotone instead of dissolving into roundoff
    g_hi, g_lo = 1e-3, 1e-18
    width = 2.0 * (g_hi - g_lo)
    sp = CubicSplinePiece([1.0, 1.0 + width], [g_hi, g_lo], [-1.0, 0.0],
                          power=1.0, gap_space=True)
    rs = (1.0 + width) - np.geomspace(1e-16, width * 0.999, 64)
    gaps = sp.wall_gap(rs, 3)
    assert np.all(gaps > 0.0)
    # rs runs away from the right knot, so the gap must not decrease
    assert np.all(np.diff(gaps) >= 0.0)
    # the quadratic with zero right slope: gap = g_lo + (b - x)^2 / (2 width)
    b = 1.0 + width
    exact = g_lo + (b - rs) ** 2 / (2.0 * width)
    np.testing.assert_allclose(gaps, exact, rtol=1e-12)


def test_profile_requires_constant_tail():
    with pytest.raises(DomainError):
        HawkingProfile(3, 0.0, (ConstantPiece(0.0, 1.0, 0.0),))
    with pytest.raises(DomainError):
        HawkingProfile(2, 0.0, (ConstantPiece(0.0, math.inf, 0.0),))


def test_flat_profile():
    p = flat(3)
    assert p.adm_mass == 0.0
    assert p.r_min == 0.0
    assert validate(p).ok
    rs = np.linspace(0.0, 5.0, 11)
    assert np.all(p.mass(rs) == 0.0)
    np.testing.assert_allclose(p.wall_gap(rs), rs, rtol=1e-15)


def test_schwarzschild_profile():
    for m, mass in ((3, 0.1), (4, 0.3), (5, 1.0)):
        p = schwarzschild(m, mass)
        assert p.adm_mass == mass
        assert p.r_min == pytest.approx((2.0 * mass) ** (1.0 / (m - 2)),
                                        rel=1e-15)
        assert validate(p).ok
        rs = np.linspace(p.r_min, 4.0 * p.r_min, 9)
        assert np.all(p.mass(rs) == mass)
    with pytest.raises(DomainError):
        schwarzschild(3, -0.1)


def test_validate_flags_monotone_violation():
    p = HawkingProfile(3, 0.0, (
        ConstantPiece(0.0, 1.0, 0.0),
        CubicSplinePiece([1.0, 2.0, 3.0], [0.0, 0.2, 0.1],
                         [0.0, 0.0, 0.0]),
        ConstantPiece(3.0, math.inf, 0.1),
    ))
    rep = validate(p)
    assert not rep.ok
    assert any(i.code == "monotone/negative-slope" for i in rep.issues)


def test_validate_flags_wall_violation():
    p = HawkingProfile(3, 0.0, (
        PowerLawPiece(0.0, 1.0, 0.6, 1.0),  # m_H = 0.6 r > r/2
        ConstantPiece(1.0, math.inf, 0.6),
    ))
    rep = validate(p)
    assert not rep.ok
    assert any(i.code == "admissible/wall" for i in rep.issues)


def test_validate_flags_boundary_mismatch():
    # r_min = 1 but m_H(r_min) = 0.3 instead of 0.5
    p = HawkingProfile(3, 1.0, (ConstantPiece(1.0, math.inf, 0.3),))
    rep = validate(p)
    assert not rep.ok
    assert any(i.code == "boundary/horizon-mismatch" for i in rep.issues)


def test_validate_flags_c1_break():
    p = HawkingProfile(3, 0.0, (
        ConstantPiece(0.0, 1.0, 0.0),
        PowerLawPiece(1.0, 2.0, 0.05, 2.0),  # slope jumps 0 -> 0.1 at r=1
        ConstantPiece(2.0, math.inf, 0.2),
    ))
    rep = validate(p)
    assert not rep.ok
    assert any(i.code == "joint/slope" for i in rep.issues)
    assert any(i.code == "joint/value" for i in rep.issues)


def test_validate_flags_mass_above_adm():
    p = HawkingProfile(3, 0.0, (
        ConstantPiece(0.0, 1.0, 0.0),
        CubicSplinePiece([1.0, 2.0, 3.0], [0.0, 0.3, 0.2],
                         [0.0, 0.0, 0.0]),
        ConstantPiece(3.0, math.inf, 0.2),
    ))
    rep = validate(p)
    assert any(i.code == "admissible/exceeds-adm" for i in rep.issues)


def test_monotone_slopes_match_pchip_and_stay_nonnegative():
    rng = np.random.default_rng(11)
    knots = np.cumsum(0.3 + rng.random(8))
    values = np.cumsum(rng.random(8) * 0.1)
    slopes = monotone_slopes(knots, values)
    assert np.all(slopes >= 0.0)
    from scipy.interpolate import PchipInterpolator

    def check(knots, values):
        got = monotone_slopes(knots, values)
        ref = PchipInterpolator(knots, values).derivative()(knots)
        # bit for bit but at the last knot, where scipy evaluates its last
        # derivative polynomial at the right end
        np.testing.assert_array_equal(got[:-1], ref[:-1])
        np.testing.assert_allclose(got, ref, rtol=1e-13, atol=1e-15)
        return got

    check(knots, values)
    # two knots share their secant
    np.testing.assert_array_equal(check([1.0, 3.0], [0.5, 1.5]), [0.5, 0.5])
    # a flat segment zeroes the slopes on both of its ends
    got = check([0.0, 1.0, 2.0, 3.0, 4.0], [0.0, 1.0, 1.0, 2.0, 2.5])
    assert got[1] == 0.0 and got[2] == 0.0
    # a sign change zeroes the slope at the extremum
    got = check([0.0, 1.0, 2.5, 3.0], [0.0, 2.0, 1.0, 1.5])
    assert got[1] == 0.0
    for _ in range(300):
        n = int(rng.integers(2, 12))
        knots = np.cumsum(0.05 + rng.random(n))
        signs = rng.choice([0.0, 1.0, -1.0], n, p=[0.2, 0.6, 0.2])
        steps = rng.random(n) * signs
        check(knots, np.cumsum(steps))


def test_random_spline_profiles_are_admissible():
    rng = np.random.default_rng(2024)
    for _ in range(20):
        m = int(rng.integers(3, 6))
        p = random_spline_profile(rng, m)
        rep = validate(p)
        assert rep.ok, str(rep)
        assert p.adm_mass < 0.5 * p.pieces[1].knots[-1] ** (m - 2)


def test_deep_well_parameters_and_profile():
    pars = deep_well_parameters(3, 0.2, 4.0 * math.pi, 5.0)
    assert pars["r0"] == pytest.approx(1.0, rel=1e-12)
    assert pars["delta_prime"] == pytest.approx(0.1, rel=1e-15)
    assert pars["depth_bound"] >= 2.0 * 5.0  # the ride alone is deep enough
    for with_boundary in (True, False):
        p = deep_well(3, 0.2, 4.0 * math.pi, 5.0, with_boundary=with_boundary)
        assert validate(p).ok, str(validate(p))
        assert p.adm_mass == pytest.approx(0.1, rel=1e-15)
        assert (p.r_min > 0.0) == with_boundary
    with pytest.raises(DomainError):
        deep_well(3, 0.0, 4.0 * math.pi, 5.0)


def test_deep_well_scales_with_delta():
    # adm = delta/2 while delta/2 < r0^(m-2)/2
    for delta in (1e-3, 1e-9, 1e-15):
        p = deep_well(3, delta, 4.0 * math.pi, 10.0)
        assert p.adm_mass == pytest.approx(0.5 * delta, rel=1e-15)
        assert validate(p).ok


def test_stripes_structure_and_curvature():
    p = stripes((1.0, 2.0, 3.0, 4.0), 0.1)
    assert validate(p).ok, str(validate(p))
    assert p.adm_mass < 0.1
    stripe_pieces = [q for q in p.pieces if isinstance(q, StripePiece)]
    assert len(stripe_pieces) == 2
    # curvature K_j = 2 min(r_out/2, delta) / r_out^3 and stripes start at r_j
    assert stripe_pieces[0].r_lo == 1.0
    assert stripe_pieces[0].curvature == pytest.approx(0.2 / 8.0, rel=1e-15)
    assert stripe_pieces[1].curvature == pytest.approx(0.2 / 64.0, rel=1e-15)
    assert stripe_pieces[0].curvature > stripe_pieces[1].curvature


def test_stripes_preconditions():
    with pytest.raises(DomainError):
        stripes((1.0,), 0.1)
    with pytest.raises(DomainError):
        stripes((1.0, 2.0, 2.0, 3.0), 0.1)
    with pytest.raises(DomainError):
        stripes((-1.0, 2.0), 0.1)
    with pytest.raises(DomainError):
        stripes((1.0, 2.0), 0.0)
    with pytest.raises(DomainError):
        stripes((0.01, 2.0), 0.1)  # first radius below delta/2


def test_profile_scale_is_exact_on_generators():
    p = schwarzschild(3, 0.1)
    q = p.scale(2.0)
    assert q.adm_mass == pytest.approx(0.2, rel=1e-15)
    assert q.r_min == pytest.approx(2.0 * p.r_min, rel=1e-15)
    rs = np.linspace(q.r_min, 3.0, 7)
    np.testing.assert_allclose(q.mass(rs), 2.0 * p.mass(rs / 2.0), rtol=1e-14)
    assert validate(q).ok


def test_mass_below_r_min_raises():
    p = schwarzschild(3, 0.1)
    with pytest.raises(RangeError):
        p.mass(0.5 * p.r_min)
