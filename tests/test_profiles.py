"""Tests for Hawking-mass profiles: pieces, validation, generators."""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from massflat.certificates import delta_budget, well_cut
from massflat.errors import DomainError, InvalidProfileError, RangeError
from massflat.geometry import ManifoldModel
from massflat.profiles import (
    ConstantPiece,
    CubicSplinePiece,
    HawkingProfile,
    PowerLawPiece,
    _fc_monotone_ok,
    deep_well,
    deep_well_parameters,
    flat,
    monotone_slopes,
    schwarzschild,
    stripes,
    unit_sphere_area,
    validate,
)
from massflat.serialization import _PIECES
from util import (count_piece_evaluations, random_spline_profile,
                  summed_wall_gap)


def test_unit_sphere_area_known_values():
    assert unit_sphere_area(3) == pytest.approx(4.0 * math.pi, rel=1e-15)
    assert unit_sphere_area(4) == pytest.approx(2.0 * math.pi**2, rel=1e-15)
    assert unit_sphere_area(5) == pytest.approx(8.0 * math.pi**2 / 3.0,
                                                rel=1e-15)
    with pytest.raises(DomainError):
        unit_sphere_area(1)
    with pytest.raises(DomainError):
        unit_sphere_area(3.0)
    # Gamma(m/2) overflows a double from m = 344 on
    assert 0.0 < unit_sphere_area(343) < 1e-200
    for m in (344, 400, 10**6):
        with pytest.raises(DomainError, match=f"in dimension {m} "):
            unit_sphere_area(m)


def test_constant_and_power_law_pieces():
    c = ConstantPiece(0.5, 2.0, 0.1)
    rs = np.linspace(0.5, 2.0, 7)
    assert np.all(c.mass_and_gap(rs, 3)[0] == 0.1)
    assert np.all(c.mass_prime(rs) == 0.0)
    p = PowerLawPiece(0.0, 1.0, 0.2, 3.0)
    rs = np.linspace(0.0, 1.0, 9)
    np.testing.assert_allclose(p.mass_and_gap(rs, 3)[0], 0.2 * rs**3,
                               rtol=1e-15)
    np.testing.assert_allclose(p.mass_prime(rs), 0.6 * rs**2, rtol=1e-15)
    # the gap row agrees with the direct formula away from the wall
    np.testing.assert_allclose(p.mass_and_gap(rs, 3)[1], rs - 0.4 * rs**3,
                               rtol=1e-14)


def test_cubic_spline_piece_interpolates_hermite_data():
    knots = [1.0, 2.0, 4.0]
    values = [0.1, 0.3, 0.35]
    slopes = [0.0, 0.1, 0.0]
    sp = CubicSplinePiece(knots, values, slopes)

    def mass(r):
        return sp.mass_and_gap(r, 3)[0]

    np.testing.assert_allclose(mass(np.array(knots)), values, rtol=1e-14)
    np.testing.assert_allclose(sp.mass_prime(np.array(knots)), slopes,
                               atol=1e-14)
    # derivative against central differences in the interior
    rs = np.linspace(1.05, 3.95, 41)
    h = 1e-6
    fd = (mass(rs + h) - mass(rs - h)) / (2.0 * h)
    np.testing.assert_allclose(sp.mass_prime(rs), fd, rtol=1e-7, atol=1e-9)


def _reference_spline_pieces():
    """(name, piece, dimension) for every spline piece the table evaluators
    must reproduce: the deep wells' gap-space cores and power-k rises, the
    random splines of tests/util.py, and those splines' data in u = r^2 and
    u = r^3, one of them from a knot at r = 0."""
    out = []
    wells = {"3d": deep_well(3, 1e-6, math.pi / 100, 10.0),
             "3d-no-boundary": deep_well(3, 0.02, 4.0 * math.pi, 10.0,
                                         with_boundary=False),
             "4d": deep_well(4, 0.05, 2.0 * math.pi**2, 3.0),
             "4d-no-boundary": deep_well(4, 0.05, 2.0 * math.pi**2, 3.0,
                                         with_boundary=False)}
    for name, p in wells.items():
        out += [(f"well-{name}-{k}", piece, p.dimension)
                for k, piece in enumerate(p.pieces)
                if isinstance(piece, CubicSplinePiece)]
    for seed in range(6):
        p = random_spline_profile(np.random.default_rng(seed), 3 + seed % 3)
        sp = p.pieces[1]
        out.append((f"spline-{seed}", sp, p.dimension))
        for power in (2.0, 3.0):
            out.append((f"spline-{seed}-u=r^{power:g}", CubicSplinePiece(
                sp.knots, sp.values, sp.slopes, power=power), p.dimension))
    sp = out[-1][1]
    knots = np.concatenate([[0.0], sp.knots])
    out.append(("from-origin", CubicSplinePiece(
        knots, np.concatenate([[0.0], sp.values]),
        np.concatenate([[0.0], sp.slopes]), power=2.0), 3))
    assert any(piece.gap_space for _, piece, _ in out)
    return out


def _exact_spline(piece, r: float, m: int):
    """m_H, the wall gap and m_H' of a spline piece at radius r from its
    exact Hermite cubic, each as (value, scale) in Fractions.

    u = r^power is formed as the piece forms it, and its knots in u are the
    ones it stores; everything after that is exact.  The scale sums the
    absolute terms behind each value, the size its rounding is relative to:
    the value itself where the terms share a sign.
    """
    power = int(piece.power)
    u = Fraction(float((np.array([r]) ** piece.power)[0]))
    uk = piece._u_knots
    i = int(np.searchsorted(uk[1:-1], float(u), side="right"))
    lo, hi = Fraction(uk[i]), Fraction(uk[i + 1])
    h = hi - lo

    def u_slope(j):
        x = Fraction(piece.knots[j])
        return Fraction(0) if x == 0 else (
            Fraction(piece.slopes[j]) / (power * x ** (power - 1)))

    v0, v1, s0, s1 = (Fraction(piece.values[i]), Fraction(piece.values[i + 1]),
                      u_slope(i), u_slope(i + 1))
    t = (u - lo) / h
    s = 1 - t
    # the Bezier control points of the cubic and of h times its u-derivative
    value = zip([v0, v0 + h * s0 / 3, v1 - h * s1 / 3, v1],
                [s**3, 3 * s**2 * t, 3 * s * t**2, t**3])
    slope = zip([h * s0, 3 * (v1 - v0) - h * (s0 + s1), h * s1],
                [s**2, 2 * s * t, t**2])
    v, v_abs = (sum(x) for x in zip(*((b * w, abs(b * w)) for b, w in value)))
    dv, dv_abs = (sum(x) / h for x in zip(*((q * w, abs(q * w))
                                            for q, w in slope)))
    dudr = power * Fraction(r) ** (power - 1)
    if piece.gap_space:
        return ((u - v) / 2, (u + v_abs) / 2), (v, v_abs), (
            dudr * (1 - dv) / 2, dudr * (1 + dv_abs) / 2)
    xi = Fraction(float((np.array([r]) ** (m - 2))[0]))
    return (v, v_abs), (xi - 2 * v, xi + 2 * v_abs), (dv * dudr,
                                                      dv_abs * dudr)


def test_spline_tables_equal_the_hermite_evaluation():
    # mass_and_gap and mass_prime read the exact Hermite cubic to within 8
    # ulps of their scale (see _exact_spline) at every knot, next to every
    # knot, between knots and up to 1e-12 below each right end, where a
    # right-end weight of 1 - t would keep only the absolute accuracy of t
    rng = np.random.default_rng(21)
    for name, piece, m in _reference_spline_pieces():
        k = piece.knots
        rs = np.concatenate([
            k, np.nextafter(k[1:], -np.inf), np.nextafter(k[:-1], np.inf),
            (k[1:, None] * (1.0 - np.geomspace(1e-16, 1e-12, 5))).ravel(),
            rng.uniform(k[0], k[-1], 100)])
        rs = rs[(rs >= k[0]) & (rs <= k[-1])]
        got = np.stack([*piece.mass_and_gap(rs, m), piece.mass_prime(rs)])
        for r, values in zip(rs.tolist(), got.T.tolist()):
            exact = _exact_spline(piece, r, m)
            for what, x, (want, scale) in zip(("m_H", "gap", "m_H'"),
                                              values, exact):
                assert abs(Fraction(x) - want) <= 8 * 2.0**-52 * scale, (
                    name, what, r)
        assert piece.r_lo == k[0] and piece.r_hi == k[-1]


def test_factored_wall_gap_equals_the_summed_form():
    # the wall-factored gap of a constant piece on the wall, r - r_lo in
    # 3-D and (r - r_lo) times the sum of r^j r_lo^(k-1-j) above, reads
    # the bits of the plain sum, right next to r_lo too
    pieces = [(f"schwarzschild-{m}d", schwarzschild(m, 0.05).pieces[0], m)
              for m in (3, 4, 5, 6)]
    for m, p in ((3, deep_well(3, 1e-6, math.pi / 100, 10.0)),
                 (3, deep_well(3, 0.02, 4.0 * math.pi, 10.0)),
                 (4, deep_well(4, 0.05, 2.0 * math.pi**2, 3.0))):
        pieces.append((f"deep-well-{m}d", p.pieces[0], m))
    rng = np.random.default_rng(22)
    for name, piece, m in pieces:
        lo = piece.r_lo
        assert abs(lo ** (m - 2) - 2.0 * piece.value) <= 1e-9 * lo ** (m - 2)
        hi = piece.r_hi if math.isfinite(piece.r_hi) else 4.0 * lo
        near = lo * (1.0 + np.geomspace(1e-16, 1e-12, 40))
        ulps = lo + np.spacing(lo) * np.arange(1, 20)
        rs = np.concatenate([[lo], ulps, near, rng.uniform(lo, hi, 200),
                             [hi]])
        assert np.any(rs - lo <= 1e-12 * lo)
        mh, gap = piece.mass_and_gap(rs, m)
        np.testing.assert_array_equal(gap, summed_wall_gap(piece, rs, m),
                                      name)
        np.testing.assert_array_equal(mh, piece.value)


def test_cubic_spline_rejects_bad_data():
    with pytest.raises(DomainError):
        CubicSplinePiece([1.0], [0.1], [0.0])
    with pytest.raises(DomainError):
        CubicSplinePiece([1.0, 1.0], [0.1, 0.2], [0.0, 0.0])
    with pytest.raises(DomainError):
        CubicSplinePiece([1.0, 2.0], [0.1, np.inf], [0.0, 0.0])
    with pytest.raises(DomainError):
        CubicSplinePiece([1.0, 2.0], [0.1, 0.2], [0.0, 0.0], power=0.5)
    # knots are finite where increasing knots end finite
    for knots, slopes, what in (([1.0, math.inf], [0.0, 0.0], "finite"),
                                ([1.0, 2.0], [0.0, -math.inf], "finite"),
                                ([math.nan, 2.0], [0.0, 0.0], "increasing"),
                                ([1.0, 3.0, 2.0], [0.0] * 3, "increasing")):
        with pytest.raises(DomainError, match=what):
            CubicSplinePiece(knots, [0.1] * len(knots), slopes)


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
    gaps = sp.mass_and_gap(rs, 3)[1]
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


_SCALE_FREE_DEFECTS = {
    # a 1e-4 relative gap between the two pieces
    "structure/gap": HawkingProfile(3, 1.0, (
        ConstantPiece(1.0, 2.0, 0.5), ConstantPiece(2.0002, math.inf, 0.5))),
    # the only piece starts 1e-4 relative above r_min
    "structure/start": HawkingProfile(3, 1.0, (
        ConstantPiece(1.0001, math.inf, 0.5),)),
    # m_H' dips to -1.67e-8 of its largest value on the spline
    "monotone/negative-slope": HawkingProfile(4, 0.0, (
        ConstantPiece(0.0, 1.0, 0.0),
        CubicSplinePiece([1.0, 2.0, 3.0, 4.0], [0.0, 0.3, 0.3 - 5e-9, 0.6],
                         [0.0] * 4),
        ConstantPiece(4.0, math.inf, 0.6))),
    # the first piece runs past the start of the second
    "structure/overlap": HawkingProfile(3, 0.5, (
        ConstantPiece(0.5, 1.2, 0.25), ConstantPiece(1.0, math.inf, 0.25))),
    # a monotone spline crosses the wall, reaching 1.01 where r/2 = 1
    "admissible/wall": HawkingProfile(3, 0.5, (
        ConstantPiece(0.5, 1.0, 0.25),
        CubicSplinePiece([1.0, 2.0, 3.0], [0.25, 1.01, 1.2], [0.0, 0.3, 0.0]),
        ConstantPiece(3.0, math.inf, 1.2))),
    # m_H peaks 5e-10 above the ADM mass at r = 1.01, then sinks back to it
    # with m_H' of -7.5e-12, inside the 1e-12 monotone slack of the rise
    "admissible/exceeds-adm": HawkingProfile(3, 0.0, (
        ConstantPiece(0.0, 1.0, 0.0),
        CubicSplinePiece([1.0, 1.01, 101.0], [0.0, 0.1 + 5e-10, 0.1],
                         [0.0] * 3),
        ConstantPiece(101.0, math.inf, 0.1))),
}


@pytest.mark.parametrize("lam", [1.0, 1e-3, 1e-6])
@pytest.mark.parametrize("code", sorted(_SCALE_FREE_DEFECTS))
def test_validate_flags_defects_at_every_scale(code, lam):
    # each rule compares values relative to themselves, so a defect that is
    # flagged at one scale is flagged at every scale
    rep = validate(_SCALE_FREE_DEFECTS[code].scale(lam))
    assert [i.code for i in rep.issues] == [code]


def test_validate_flags_an_osculating_horizon_and_an_origin_mass():
    # m_H' = r leaves the boundary sphere r = 1 at the wall's slope (m = 4)
    osculating = HawkingProfile(4, 1.0, (
        PowerLawPiece(1.0, 2.0, 0.5, 2.0), ConstantPiece(2.0, math.inf, 2.0)))
    assert "boundary/osculating-horizon" in [
        i.code for i in validate(osculating).issues]
    # a boundaryless profile must start at m_H(0) = 0
    origin = HawkingProfile(3, 0.0, (ConstantPiece(0.0, math.inf, 0.1),))
    assert "boundary/origin-mass" in [i.code for i in validate(origin).issues]


def test_validate_reads_spline_slopes_at_their_exact_extremes():
    # 300 segments of secant 0.01; segment 150 has end slopes of 3.0001
    # secants, so m_H' dips to -5e-7 at its midpoint r = 1.50167, about
    # 1.7e-5 of its largest value and between the 1,024 samples
    knots = np.linspace(1.0, 2.0, 301)
    slopes = np.full(301, 0.01)
    slopes[[0, -1]] = 0.0
    slopes[[150, 151]] = 0.030001
    profile = HawkingProfile(3, 0.5, (
        ConstantPiece(0.5, 1.0, 0.25),
        CubicSplinePiece(knots, 0.25 + 0.01 * (knots - 1.0), slopes),
        ConstantPiece(2.0, math.inf, 0.26)))
    rep = validate(profile)
    assert [i.code for i in rep.issues] == ["monotone/negative-slope"]
    assert rep.issues[0].where == pytest.approx(1.5 + 0.5 / 300, rel=1e-12)
    assert "m_H'=-5.0000000" in rep.issues[0].detail
    with pytest.raises(InvalidProfileError):
        ManifoldModel(profile, 4.0)


def test_validate_reports_a_non_finite_slope_without_a_warning():
    # m_H' = 0.05 r^(-1/2) is infinite at the origin; numpy's divide
    # warning is an error under the suite's warning filter
    profile = HawkingProfile(3, 0.0, (
        PowerLawPiece(0.0, 1.0, 0.1, 0.5), ConstantPiece(1.0, math.inf, 0.1)))
    assert "numeric/nonfinite" in [i.code for i in validate(profile).issues]


def _crossing_profile(bump: float):
    """A monotone 3-D spline that runs 1e-8 below the wall m_H = r/2 into
    r = 1.5, then on [1.5, 1.5 + 1e-6] bows bump * 1e-6 / 8 above its
    chord, which is parallel to the wall; the whole segment lies strictly
    between two points of a 1,024-point grid on [1, 2]."""
    eps, w = 1e-8, 1e-6
    return HawkingProfile(3, 0.0, (
        PowerLawPiece(0.0, 1.0, 0.4, 1.0),
        CubicSplinePiece([1.0, 1.5, 1.5 + w, 2.0],
                         [0.4, 0.75 - eps, 0.75 + w / 2 - eps, 0.9],
                         [0.4, 0.5 + bump / 2, 0.5 - bump / 2, 0.0]),
        ConstantPiece(2.0, math.inf, 0.9)))


def test_validate_finds_a_wall_crossing_between_sample_points():
    # bowed by 1.25e-7 over a 1e-8 gap: the gap reads -1.15e-7 at the
    # segment's midpoint, the least gap of the segment
    rep = validate(_crossing_profile(1.0))
    assert [i.code for i in rep.issues] == ["admissible/wall"]
    where = rep.issues[0].where
    assert where == pytest.approx(1.5 + 5e-7, rel=1e-15)
    assert _crossing_profile(1.0).wall_gap(where) <= 0.0
    with pytest.raises(InvalidProfileError):
        ManifoldModel(_crossing_profile(1.0), 4.0)
    # bowed by 1.25e-9, the same segment clears the wall
    assert validate(_crossing_profile(0.01)).ok


def test_validate_finds_an_overshoot_between_sample_points():
    # on the 1e-6 wide segment [1.5, 1.5 + 1e-6] the end slopes +-0.1 lift
    # m_H 2.5e-8 above its end values, which equal the ADM mass
    w = 1e-6
    profile = HawkingProfile(3, 0.0, (
        ConstantPiece(0.0, 1.0, 0.0),
        CubicSplinePiece([1.0, 1.5, 1.5 + w, 2.0], [0.0, 0.1, 0.1, 0.1],
                         [0.0, 0.1, -0.1, 0.0]),
        ConstantPiece(2.0, math.inf, 0.1)))
    rep = validate(profile)
    assert [i.code for i in rep.issues] == ["monotone/negative-slope",
                                            "admissible/exceeds-adm"]
    where = rep.issues[1].where
    assert 1.5 < where < 1.5 + w
    assert profile.mass(where) > 0.1 * (1.0 + 1e-9)


@pytest.mark.parametrize("m", [3, 4, 5])
def test_validate_accepts_a_spline_leaving_the_boundary_on_the_wall(m):
    # the spline starts at r_min on the wall, with m_H' half the wall's
    # slope there; its gap is 0 at r_min and rises, so only the sign of
    # the gap's slope can clear the first cell
    r_min, r1 = 1.0, 2.0
    k = m - 2
    v0, v1 = 0.5 * r_min**k, 0.5 * (0.5 * r_min**k + 0.5 * r1**k)
    profile = HawkingProfile(m, r_min, (
        CubicSplinePiece([r_min, r1], [v0, v1], [0.25 * k, 0.0]),
        ConstantPiece(r1, math.inf, v1)))
    assert profile.wall_gap(r_min) == 0.0
    assert validate(profile).ok
    assert validate(profile.scale(1e-3)).ok


_CERTIFY_FAMILIES = {
    "schwarzschild": lambda: schwarzschild(3, 0.005),
    "deep-well": lambda: deep_well(3, 0.009, 8.0 * math.pi, 10.0),
    "stripes": lambda: stripes((1.0, 2.0), 0.01),
    **{f"spline-{seed}": (lambda seed=seed: random_spline_profile(
        np.random.default_rng(seed), 3 + seed % 3)) for seed in range(3)},
}


def test_validate_returns_one_report_per_profile():
    p = random_spline_profile(np.random.default_rng(8), 4)
    assert validate(p) is validate(p)


@pytest.mark.parametrize("name", sorted(_CERTIFY_FAMILIES))
def test_validate_reads_pieces_at_their_own_points(name, monkeypatch):
    # one read per piece at its ends, knots, slope vertices and joints,
    # and cells that resolve without halving: no sample grid
    profile = _CERTIFY_FAMILIES[name]()
    evaluations = count_piece_evaluations(monkeypatch)
    assert validate(profile).ok
    knots = sum(p.knots.size if isinstance(p, CubicSplinePiece) else 2
                for p in profile.pieces)
    for (kind, method), calls in evaluations.calls.items():
        pieces = sum(p.kind == kind for p in profile.pieces)
        # a constant piece bounds its cells from one more gap read
        assert calls <= (2 if method == "mass_and_gap" else 1) * pieces
    assert sum(evaluations.radii.values()) <= 2 * (2 * knots
                                                   + 3 * len(profile.pieces))


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


def test_boundaryless_deep_well_fillet_is_monotone_and_clear_of_the_wall():
    # deep_well builds its origin fillet once, on the argument in its
    # comment: c in (5/12, 9/20], so the Fritsch-Carlson box holds and the
    # wall gap is at least (1 - 2c) xi_f.  Checked over a grid of inputs.
    built = 0
    for m, delta, alpha0, L in itertools.product(
            (3, 4, 5, 7, 10), (1e-12, 1e-8, 1e-6, 1e-4, 1e-2, 0.5, 10.0),
            (math.pi / 100, 4.0 * math.pi, 100.0), (0.1, 1.0, 10.0, 1e3)):
        try:
            profile = deep_well(m, delta, alpha0, L, with_boundary=False)
        except DomainError:
            continue
        built += 1
        head, fillet = profile.pieces[:2]
        c = head.coefficient
        assert 1.0 / 3.0 < c < 0.5
        xi_f, xi_p = fillet.knots ** (m - 2)
        assert _fc_monotone_ok(*fillet.values, c, 1.0, xi_p - xi_f)
        rs = np.linspace(fillet.r_lo, fillet.r_hi, 257)
        gap = fillet.mass_and_gap(rs, m)[1]
        assert np.all(gap >= (1.0 - 1e-12) * (1.0 - 2.0 * c) * xi_f)
    assert built == 377


def test_deep_well_refuses_a_shallow_well_by_name():
    # eps^2 >= 1/8, that is L <= sqrt(7) r_eps / 4.2, would ride at a gap
    # g0 no below the descent's g_p; both generators refuse it and name
    # the inputs and the least depth that builds
    with pytest.raises(DomainError, match=(
            r"deep well too shallow: delta=0.5, L=0.1 and r_eps=0.4375 give "
            r"eps\^2=0.25 >= 1/8; L must exceed sqrt\(7\) r_eps / 4.2 = ")):
        deep_well(3, 0.5, 4.0 * math.pi, 0.1)
    refused = 0
    for m, delta, alpha0, L in itertools.product(
            (3, 4, 5, 7, 10), (1e-12, 1e-8, 1e-6, 1e-4, 1e-2, 0.5, 10.0),
            (math.pi / 100, 4.0 * math.pi, 100.0), (0.1, 1.0, 10.0, 1e3)):
        try:
            pars = deep_well_parameters(m, delta, alpha0, L)
        except DomainError as exc:
            refused += 1
            least = float(str(exc).rsplit("= ", 1)[1])
            assert L <= least * (1.0 + 1e-12)
            for with_boundary in (True, False):
                with pytest.raises(DomainError, match="too shallow"):
                    deep_well(m, delta, alpha0, L, with_boundary)
            continue
        assert pars["eps"] ** 2 < 0.125
        assert L > math.sqrt(7.0) * pars["r_eps"] / 4.2
    assert refused == 43


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
    # the sphere curves m_H = K_j r^3 / 2: the head from the origin, then
    # one stripe per curve
    curves = [q for q in p.pieces
              if isinstance(q, PowerLawPiece) and q.exponent == 3.0]
    assert [(q.r_lo, q.r_hi) for q in curves[:2]] == [(0.0, 1.0), (1.0, 1.5)]
    # coefficients K_j / 2 with K_j = 2 min(r_out/2, delta) / r_out^3,
    # decreasing outward
    assert [q.coefficient for q in curves] == pytest.approx(
        [0.1 / 8.0, 0.1 / 8.0, 0.1 / 64.0], rel=1e-15)
    # the second stripe starts where the link onto its curve ends, past r_3
    second = curves[2]
    link = p.pieces[p.pieces.index(second) - 1]
    assert isinstance(link, CubicSplinePiece)
    assert second.r_lo == link.r_hi == pytest.approx(3.668, abs=1e-3)


@pytest.mark.parametrize("radii, shown", [((1.0, math.inf), "inf"),
                                           ((math.nan, 2.0), "nan"),
                                           ((1.0, 2.0, 3.0, -math.inf),
                                            "-inf")])
def test_stripes_refuse_non_finite_radii_by_value(radii, shown):
    with pytest.raises(DomainError,
                       match=f"stripe radius must be finite and positive, "
                             f"got {shown}$"):
        stripes(radii, 0.1)


_DIMENSION_CHECKS = {
    "profile": lambda m: HawkingProfile(m, 0.0,
                                        (ConstantPiece(0.0, math.inf, 0.0),)),
    "flat": flat,
    "schwarzschild": lambda m: schwarzschild(m, 0.1),
    "deep_well": lambda m: deep_well(m, 0.01, 4.0 * math.pi, 10.0),
    "deep_well_parameters": lambda m: deep_well_parameters(
        m, 0.01, 4.0 * math.pi, 10.0),
    "well_cut": lambda m: well_cut(0.5, 0.5, 4.0 * math.pi, m),
    "delta_budget": lambda m: delta_budget(0.5, 0.5, 4.0 * math.pi, m),
}


@pytest.mark.parametrize("dimension", [2, 3.0, 3.5, 3.9, "3", True])
@pytest.mark.parametrize("name", sorted(_DIMENSION_CHECKS))
def test_one_dimension_rule(name, dimension):
    # an integer >= 3, refused before any arithmetic with it (schwarzschild
    # used to divide by m - 2 first) and never truncated to 3
    with pytest.raises(DomainError,
                       match=r"dimension must be an integer >= 3, got "):
        _DIMENSION_CHECKS[name](dimension)


def test_dimension_rule_accepts_numpy_integers():
    assert schwarzschild(np.int64(4), 0.05).dimension == 4
    assert type(schwarzschild(np.int64(4), 0.05).dimension) is int
    assert deep_well_parameters(np.int32(3), 0.01, 4.0 * math.pi,
                                10.0)["dimension"] == 3


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


_PIECE_KIND_PROFILES = {
    # on-wall constant, plain and gap-space splines, off-wall constant
    "deep-well": lambda: deep_well(3, 1e-6, math.pi / 100, 10.0),
    # power law with exponent m - 2, splines in u = r^2
    "deep-well-4d": lambda: deep_well(4, 0.05, 2.0 * math.pi**2, 3.0,
                                      with_boundary=False),
    # power law r^3, plain spline
    "stripes": lambda: stripes((1.0, 2.0), 0.1),
    # the on-wall constant's factored gap with two terms
    "schwarzschild-4d": lambda: schwarzschild(4, 0.05),
}


@pytest.mark.parametrize("name", sorted(_PIECE_KIND_PROFILES))
def test_mass_and_gap_equals_mass_and_wall_gap(name):
    p = _PIECE_KIND_PROFILES[name]()
    rs = [np.array([p.r_min])]
    for piece in p.pieces:
        hi = piece.r_hi if math.isfinite(piece.r_hi) else 2.0 * piece.r_lo
        rs.append(np.linspace(piece.r_lo, hi, 33))
    rs = np.concatenate(rs)
    mh, gap = p.mass_and_gap(rs)
    np.testing.assert_array_equal(mh, p.mass(rs))
    np.testing.assert_array_equal(gap, p.wall_gap(rs))
    for r in rs[::7]:
        pair = p.mass_and_gap(float(r))
        assert pair == (p.mass(float(r)), p.wall_gap(float(r)))
        assert all(type(v) is float for v in pair)
    for bad in (math.nan, 0.5 * p.r_min - 1.0, np.array([p.r_min, math.nan])):
        with pytest.raises(RangeError):
            p.mass(bad)
        with pytest.raises(RangeError):
            p.mass_and_gap(bad)


def test_mass_and_gap_profiles_cover_every_piece_kind():
    # each kind's two mass_and_gap branches: the on-wall constant, the
    # exponent m-2 power law and the gap-space spline, and the plain forms
    kinds = set()
    for build in _PIECE_KIND_PROFILES.values():
        p = build()
        for piece in p.pieces:
            if isinstance(piece, ConstantPiece):
                branch = math.isclose(
                    piece.value, 0.5 * piece.r_lo ** (p.dimension - 2),
                    rel_tol=1e-9)
            elif isinstance(piece, PowerLawPiece):
                branch = piece.exponent == p.dimension - 2
            else:
                branch = piece.gap_space
            kinds.add((piece.kind, branch))
    assert kinds == {(kind, branch) for kind in _PIECES
                     for branch in (True, False)}


_DISPATCH_PROFILES = {
    "stripes": lambda: stripes((1, 2, 3, 4), 0.1),
    "deep-well": _PIECE_KIND_PROFILES["deep-well"],
    "deep-well-4d": _PIECE_KIND_PROFILES["deep-well-4d"],
}


@pytest.mark.parametrize("name", sorted(_DISPATCH_PROFILES))
def test_dispatch_reads_the_piece_that_starts_at_each_joint(name):
    p = _DISPATCH_PROFILES[name]()
    m = p.dimension
    starts = np.array([piece.r_lo for piece in p.pieces])
    mh, gap = p.mass_and_gap(starts)
    mp = p.mass_prime(starts)
    for k, piece in enumerate(p.pieces):
        at = np.array([piece.r_lo])
        want_mh, want_gap = piece.mass_and_gap(at, m)
        assert (mh[k], gap[k]) == (want_mh[0], want_gap[0]), k
        assert mp[k] == piece.mass_prime(at)[0], k
        assert p.mass_and_gap(piece.r_lo) == (want_mh[0], want_gap[0]), k
    if p.r_min > 0.0:
        # within the range gate's 1e-12 slack below r_min: clipped to r_min
        # and read by the first piece
        below = p.r_min * (1.0 - 5e-13)
        assert below < p.r_min
        first = p.pieces[0].mass_and_gap(np.array([p.r_min]), m)
        assert p.mass_and_gap(below) == (first[0][0], first[1][0])


@pytest.mark.parametrize("name", ["stripes", "deep-well", "spline"])
def test_single_piece_batches_equal_the_masked_path(name):
    # a batch inside one piece is evaluated directly; a batch across pieces
    # is put in piece order and each piece reads its slice.  Both read the
    # same bits as each piece's own radii picked out by a mask.
    p = {"stripes": lambda: stripes((1.0, 2.0, 3.0, 4.0), 0.1),
         "deep-well": _PIECE_KIND_PROFILES["deep-well"],
         "spline": lambda: random_spline_profile(
             np.random.default_rng(3), 4)}[name]()
    rng = np.random.default_rng(8)
    hi = 2.0 * p.pieces[-1].r_lo
    rs = np.concatenate([[p.r_min], [q.r_lo for q in p.pieces[1:]],
                         rng.uniform(p.r_min, hi, 400)])
    mh, gap = p.mass_and_gap(rs)
    mp = p.mass_prime(rs)
    k = np.searchsorted([q.r_lo for q in p.pieces[1:]], rs, side="right")
    for j in range(len(p.pieces)):
        sel = k == j
        assert np.any(sel), j
        for got, want in zip(p.mass_and_gap(rs[sel]) + (p.mass_prime(rs[sel]),),
                             (mh[sel], gap[sel], mp[sel])):
            np.testing.assert_array_equal(got, want)
    for i in range(0, rs.size, 37):
        r = float(rs[i])
        pair, slope = p.mass_and_gap(r), p.mass_prime(r)
        assert all(type(v) is float for v in pair + (slope,))
        assert pair + (slope,) == (mh[i], gap[i], mp[i])


_GROUPED_PROFILES = {
    "deep-well-3d": (lambda: deep_well(3, 1e-6, math.pi / 100, 10.0), 0.4),
    "deep-well-4d": (lambda: deep_well(4, 1e-4, 2.0 * math.pi**2, 3.0), 2.0),
    "deep-well-5d": (lambda: deep_well(5, 1e-3, 4.0, 3.0,
                                       with_boundary=False), 3.0),
    "stripes": (lambda: stripes((1.0, 2.0, 3.0, 4.0), 0.1), 8.0),
    "spline": (lambda: random_spline_profile(np.random.default_rng(3), 4),
               8.0),
}


def _masked_reads(p, rs):
    """m_H, the gap and m_H' at rs, each piece given its radii by a mask."""
    k = np.searchsorted(p._starts[1:], rs, side="right")
    out = np.empty((3, rs.size))
    for j, piece in enumerate(p.pieces):
        sel = k == j
        if sel.any():
            out[:2, sel] = piece.mass_and_gap(rs[sel], p.dimension)
            out[2, sel] = piece.mass_prime(rs[sel])
    return out


@pytest.mark.parametrize("name", sorted(_GROUPED_PROFILES))
def test_dispatch_on_grouped_radii_equals_the_radii_shuffled(name,
                                                             monkeypatch):
    # a table round's radii arrive grouped by piece, and each piece reads
    # its slice of them in place; shuffled, they are put in piece order
    # first.  Either reads each radius as a mask picking out its piece's
    # radii does, and so do piece starts and their neighbours among them.
    build, r_cap = _GROUPED_PROFILES[name]
    p = build()
    blocks = []
    mass_and_gap = HawkingProfile._mass_and_gap

    def kept(self, r):
        blocks.append(r.copy())
        return mass_and_gap(self, r)

    monkeypatch.setattr(HawkingProfile, "_mass_and_gap", kept)
    ManifoldModel(p, r_cap)
    monkeypatch.undo()
    # the round's one call; the check at r_cap reads one radius
    block = max(blocks, key=len)
    starts = p._starts[1:]
    k = np.searchsorted(starts, block, side="right")
    assert np.all(np.diff(k) >= 0) and k[-1] > k[0]
    edges = np.concatenate([starts, np.nextafter(starts, 0.0),
                            np.nextafter(starts, np.inf)])
    rng = np.random.default_rng(17)
    for rs in (block, np.sort(np.concatenate([block, edges]))):
        want = _masked_reads(p, rs)
        got = np.stack(p._mass_and_gap(rs) + p._mass_prime(rs))
        assert got.tobytes() == want.tobytes()
        order = rng.permutation(rs.size)
        shuffled = np.stack(p._mass_and_gap(rs[order])
                            + p._mass_prime(rs[order]))
        assert shuffled.tobytes() == want[:, order].tobytes()
        column = np.stack(p.mass_and_gap(rs[order][:, None]))
        assert column.shape == (2, rs.size, 1)
        assert column.tobytes() == want[:2, order].tobytes()


def test_dispatch_reads_the_first_piece_below_its_start():
    # r_min below the first piece: validate flags it, and every radius
    # below the first piece's start reads that piece
    p = HawkingProfile(3, 0.0, (ConstantPiece(0.5, math.inf, 0.0),))
    rs = np.array([0.0, 0.25, 0.5, 1.0])
    np.testing.assert_array_equal(p.mass_and_gap(rs)[1], rs)
    assert not validate(p).ok


def test_mass_below_r_min_raises():
    p = schwarzschild(3, 0.1)
    with pytest.raises(RangeError):
        p.mass(0.5 * p.r_min)
