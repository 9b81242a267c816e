"""Property tests over the profile generators and random splines, at scales
lam = 10^U(-6, 6): the range rule, s' >= 1, scale covariance, F increments
bounded by the scanned slope, byte-stable serialization, and tube distances
between the ambient product distance and two explicit paths; and a failing
property test under the repository's pytest settings."""

from __future__ import annotations

import functools
import math
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from massflat.embedding import annulus_distance, tube_distance
from massflat.errors import RangeError
from massflat.geometry import ManifoldModel
from massflat.profiles import (ConstantPiece, CubicSplinePiece, HawkingProfile,
                               deep_well, flat, schwarzschild, stripes,
                               validate)
from massflat.serialization import dumps_profile, loads_profile
from util import random_spline_profile

pytest.importorskip("hypothesis")
from hypothesis import (assume, example, given, settings,  # noqa: E402
                        strategies as st)

_PROFILES = {
    "schwarzschild": lambda: (schwarzschild(3, 0.05), 8.0),
    "schwarzschild-4d": lambda: (schwarzschild(4, 0.3), 6.0),
    "deep-well": lambda: (deep_well(3, 0.02, 4.0 * math.pi, 10.0), 8.0),
    "deep-well-no-boundary": lambda: (
        deep_well(3, 0.02, 4.0 * math.pi, 10.0, with_boundary=False), 8.0),
    "stripes": lambda: (stripes((1.0, 2.0, 3.0, 4.0), 0.1), 8.0),
    "flat": lambda: (flat(3), 8.0),
    **{f"spline-{k}": (lambda k=k: _spline(k)) for k in range(4)},
}


def _spline(seed):
    p = random_spline_profile(np.random.default_rng(seed), 3 + seed % 3)
    return p, float(p.pieces[1].knots[-1] + 3.0)


@functools.lru_cache(maxsize=None)
def _base(name):
    profile, r_cap = _PROFILES[name]()
    return ManifoldModel(profile, r_cap)


def _scaled(name, lam):
    base = _base(name)
    return ManifoldModel(base.profile.scale(lam), base.r_cap * lam)


names = st.sampled_from(sorted(_PROFILES))
scales = st.floats(-6.0, 6.0).map(lambda t: 10.0**t)
fractions = st.lists(st.floats(0.0, 1.0), min_size=2, max_size=12)


@settings(max_examples=30)
@given(names, scales)
def test_the_range_rule_rejects_1e_9_past_each_end(name, lam):
    # "past" in units of the larger end, as the rule measures its slack
    model = _scaled(name, lam)
    r_past, s_past = 1e-9 * model.r_cap, 1e-9 * model.s_cap
    for query, value in ((model.s, model.r_cap + r_past),
                         (model.F, model.r_cap + r_past),
                         (model.s, model.r_min - r_past),
                         (model.F, model.r_min - r_past),
                         (model.r_of_s, model.s_cap + s_past),
                         (model.r_of_s, -s_past)):
        with pytest.raises(RangeError):
            query(value)
    # a profile's range [r_min, inf) is measured by r_min alone
    if model.r_min > 0:
        with pytest.raises(RangeError):
            model.profile.mass(model.r_min * (1.0 - 1e-9))


@settings(max_examples=30)
@given(names, scales, fractions)
def test_arclength_grows_at_least_as_fast_as_radius(name, lam, fracs):
    model = _scaled(name, lam)
    rs = np.sort(model.r_min + (model.r_cap - model.r_min) * np.array(fracs))
    rs = np.clip(rs, model.r_min, model.r_cap)
    # s' >= 1, up to the quadrature's relative accuracy
    gain = np.diff(model.s(rs)) - np.diff(rs)
    assert np.all(gain >= -1e-12 * model.s_cap), gain.min()


@settings(max_examples=30)
@given(names, scales, fractions)
# radii next to r = 0, where a table read is its first cell's panel partial
@example("deep-well-no-boundary", 1745.6699097631758,
         [0.0, 4.073513041934609e-28])
@example("stripes", 10.0, [0.0, 7.737349872484958e-23])
@example("deep-well-no-boundary", 1.0, [0.0, 1.1125369292536007e-308])
def test_s_and_F_are_scale_covariant(name, lam, fracs):
    base = _base(name)
    model = _scaled(name, lam)
    rs = base.r_min + (base.r_cap - base.r_min) * np.array(fracs)
    rs = np.clip(rs, base.r_min, base.r_cap)
    for query, ref, slope in ((model.s, base.s, base.s_prime),
                              (model.F, base.F, base.f_prime)):
        # lam * r and lam * r_min each round by up to half an ulp, which
        # moves the value by at most slope * ulp (s and F are concave where
        # the slope diverges)
        want = ref(rs)
        err = np.abs(query(lam * rs) / lam - want)
        assert np.all(err <= 1e-12 * np.abs(want)
                      + slope(rs) * np.spacing(rs)), (err, want)


@settings(max_examples=30)
@given(names, scales, fractions)
def test_F_increments_are_bounded_by_the_scanned_slope(name, lam, fracs):
    model = _scaled(name, lam)
    rs = np.sort(model.r_min + (model.r_cap - model.r_min) * np.array(fracs))
    rs = np.clip(rs, model.r_min, model.r_cap)
    inc = np.diff(model.F(rs))
    # F is nondecreasing, up to the quadrature's relative accuracy
    slack = 1e-12 * float(model.F(model.r_cap))
    assert np.all(inc >= -slack), inc.min()
    for a, b, step in zip(rs[:-1], rs[1:], inc):
        # the slope is infinite on a boundary sphere, where b - a may be 0
        bound = model.sup_grad(a, b) * (b - a) if b > a else 0.0
        assert step <= bound + slack, (a, b)


@settings(max_examples=30)
@given(names, scales)
def test_serialization_is_byte_stable(name, lam):
    text = dumps_profile(_scaled(name, lam).profile)
    assert dumps_profile(loads_profile(text)) == text


@settings(max_examples=20)
@given(names, scales, st.floats(0.0, 0.5), st.integers(0, 2**32 - 1))
def test_tube_distances_lie_between_the_ambient_one_and_explicit_paths(
        name, lam, inner, seed):
    model = _scaled(name, lam)
    rng = np.random.default_rng(seed)
    r_in = model.r_min + inner * (model.r_cap - model.r_min)
    r1, r2 = rng.uniform(r_in, model.r_cap, (2, 16))
    r1[:4] = r_in
    t1, t2 = rng.uniform(0.0, 2.0 * math.pi, (2, 16))
    d = tube_distance(model, r_in, r1, t1, r2, t2)
    # the graph over the annulus embeds the tube 1-Lipschitz into
    # (annulus) x R
    ambient = np.hypot(annulus_distance(r_in, r1, t1, r2, t2),
                       model.F(r1) - model.F(r2))
    phi = np.abs(t1 - t2) % (2.0 * math.pi)
    phi = np.minimum(phi, 2.0 * math.pi - phi)
    s1, s2, s_in = model.s(r1), model.s(r2), model.s(r_in)
    # around the lower circle then radially, or down to the inner circle,
    # around it and up
    paths = np.minimum(np.minimum(r1, r2) * phi + np.abs(s2 - s1),
                       s1 + s2 - 2.0 * s_in + r_in * phi)
    slack = 1e-10 * model.s_cap
    assert np.all(ambient <= d + slack), np.max(ambient - d)
    assert np.all(np.abs(s2 - s1) <= d + slack)
    assert np.all(d <= paths + slack), np.max(d - paths)


@settings(max_examples=200)
@given(st.floats(0.5, 2.0), st.floats(1e-3, 1.0), st.floats(0.0, 1.0),
       st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3), st.booleans())
def test_spline_slope_extremes_hold_the_least_slope_of_a_segment(
        r0, width, m0, slopes, gap_space):
    # the least m_H' at the radii _slope_extremes returns on a Hermite
    # segment equals the exact minimum of the derivative quadratic, here in
    # rationals from the piece's own data (power 1, so u = r and m_H' is
    # dv/du, or (1 - dg/du)/2 in gap space)
    secant, a0, a1 = slopes
    assume(max(abs(secant), abs(a0), abs(a1)) >= 0.05)
    r1, m1 = r0 + width, m0 + secant * width
    if gap_space:
        data = [r0 - 2.0 * m0, r1 - 2.0 * m1], [1.0 - 2.0 * a0, 1.0 - 2.0 * a1]
    else:
        data = [m0, m1], [a0, a1]
    piece = CubicSplinePiece([r0, r1], *data, gap_space=gap_space)
    least = Fraction(float(piece.mass_prime(piece._slope_extremes()).min()))

    x0, x1, v0, v1, s0, s1 = map(Fraction, (*piece.knots, *piece.values,
                                            *piece.slopes))
    h = x1 - x0
    q0, q1, q2 = h * s0, 3 * (v1 - v0) - h * (s0 + s1), h * s1

    def mass_prime(t):
        dv = ((1 - t) ** 2 * q0 + 2 * t * (1 - t) * q1 + t**2 * q2) / h
        return (1 - dv) / 2 if gap_space else dv

    ts = [Fraction(0), Fraction(1)]
    if q0 - 2 * q1 + q2 != 0:
        ts.append(min(max((q0 - q1) / (q0 - 2 * q1 + q2), ts[0]), ts[1]))
    exact = [mass_prime(t) for t in ts]
    assert abs(least - min(exact)) <= Fraction(1e-12) * max(map(abs, exact))


def _poly_extreme(coeffs, lo, hi, least):
    """The least (or greatest) value on [lo, hi] of the cubic with rational
    power-basis coefficients, read at the ends and at the roots of its
    derivative; an irrational root is rounded to 1e-60, which moves the
    value at that stationary point by about 1e-120."""
    def at(t):
        return sum(c * t**j for j, c in enumerate(coeffs))

    c1, c2, c3 = coeffs[1], 2 * coeffs[2], 3 * coeffs[3]
    ts = [lo, hi]
    if c3 == 0:
        ts += [-c1 / c2] if c2 != 0 else []
    else:
        disc = c2 * c2 - 4 * c3 * c1
        if disc >= 0:
            scale = 10**60
            root = Fraction(math.isqrt(disc.numerator * disc.denominator
                                       * scale * scale),
                            disc.denominator * scale)
            ts += [(-c2 + root) / (2 * c3), (-c2 - root) / (2 * c3)]
    values = [at(t) for t in ts if lo <= t <= hi]
    return min(values) if least else max(values)


def _bezier_power(b0, b1, b2, b3):
    """Power-basis coefficients in t of the cubic with Bezier points b."""
    return [b0, 3 * (b1 - b0), 3 * (b0 - 2 * b1 + b2),
            b3 - 3 * b2 + 3 * b1 - b0]


@settings(max_examples=200)
@given(st.integers(3, 5), st.booleans(), st.booleans(), st.floats(0.5, 2.0),
       st.floats(1e-3, 1.0),
       st.lists(st.floats(-0.2, 1.05), min_size=2, max_size=2),
       st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=2),
       st.floats(0.0, 1.0), st.floats(0.9, 1.1),
       st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2))
def test_spline_cell_bounds_enclose_the_exact_extremes(
        m, gap_space, power_one, r0, width, fracs, u_slopes, tilt, adm_frac,
        cell):
    # a random Hermite segment between fractions of the wall, in value or
    # gap space, in u = r or u = r^(m-2): _cell_bounds on the segment and on
    # a random cell of it hold the exact rational least gap and greatest
    # m_H, and validate's wall and exceeds-adm verdicts are the exact ones
    k = m - 2
    p = 1 if power_one and not gap_space else k
    r1 = r0 + width
    u0, u1 = r0**p, r1**p
    wall = [r0**k, r1**k]
    if gap_space:
        # g between -0.2 and 1.05 times the wall, its u-slope around the
        # wall's (1) by up to +-2
        values = [f * x for f, x in zip(fracs, wall)]
        slopes = [(1.0 + tilt * s) * p * r**(p - 1)
                  for s, r in zip(u_slopes, (r0, r1))]
    else:
        # m_H between -0.1 and 0.525 times the wall
        values = [0.5 * f * x for f, x in zip(fracs, wall)]
        secant = (values[1] - values[0]) / (u1 - u0)
        slopes = [(secant + tilt * s) * p * r**(p - 1)
                  for s, r in zip(u_slopes, (r0, r1))]
    piece = CubicSplinePiece([r0, r1], values, slopes, power=p,
                             gap_space=gap_space)

    # exact data: the Hermite cubic in t = (u - u0)/h from the float inputs
    R0, R1 = Fraction(r0), Fraction(r1)
    U0, H = R0**p, R1**p - R0**p
    V0, V1 = map(Fraction, values)
    S0, S1 = (Fraction(s) / (p * R**(p - 1)) for s, R in zip(slopes, (R0, R1)))
    cubic = _bezier_power(V0, V0 + H * S0 / 3, V1 - H * S1 / 3, V1)
    # (U0 + H t)^(k/p), with k/p = 1 or k
    e = k // p
    line = [math.comb(e, j) * U0**(e - j) * H**j for j in range(e + 1)]
    line += [Fraction(0)] * (4 - len(line))
    if gap_space:
        gap = cubic
        mass = [(l - g) / 2 for l, g in zip(line, gap)]
    else:
        mass = cubic
        gap = [l - 2 * v for l, v in zip(line, mass)]
    scale = max(abs(x) for x in wall + values)

    def radius(t):  # the float radius at u = u0 + h t, inside the segment
        return min(max(float(U0 + H * Fraction(t)) ** (1.0 / p), r0), r1)

    for ra, rb in ((r0, r1), tuple(radius(t) for t in sorted(cell))):
        if not rb > ra:
            continue
        # the exact extremes over the cell [ra, rb] as the piece reads it
        t_a = (Fraction(ra)**p - U0) / H
        t_b = (Fraction(rb)**p - U0) / H
        least_gap = _poly_extreme(gap, t_a, t_b, least=True)
        most_mass = _poly_extreme(mass, t_a, t_b, least=False)
        mass_hi, gap_lo, _ = piece._cell_bounds(np.array([ra]),
                                                np.array([rb]), m)
        slack = Fraction(1e-12) * Fraction(scale)
        assert Fraction(float(gap_lo[0])) <= least_gap + slack
        assert Fraction(float(mass_hi[0])) >= most_mass - slack

    least_gap = _poly_extreme(gap, Fraction(0), Fraction(1), least=True)
    most_mass = _poly_extreme(mass, Fraction(0), Fraction(1), least=False)
    # the ADM mass near the greatest m_H, and below the wall at r1 so the
    # constant tail clears it; a head m_H = 0 from the origin clears it too
    adm = min(max(adm_frac * float(most_mass), 0.0), 0.45 * wall[1])
    cap = Fraction(adm) * (1 + Fraction(1e-9)) + Fraction(1e-300)
    band = Fraction(1e-9) * Fraction(scale)
    assume(abs(least_gap) > band and abs(most_mass - cap) > band)
    profile = HawkingProfile(m, 0.0, (ConstantPiece(0.0, r0, 0.0), piece,
                                      ConstantPiece(r1, math.inf, adm)))
    codes = [i.code for i in validate(profile).issues]
    assert ("admissible/wall" in codes) == (least_gap <= 0)
    assert ("admissible/exceeds-adm" in codes) == (most_mass > cap)


@settings(max_examples=100)
@given(st.sampled_from([(3, 2.0), (3, 1.5), (4, 3.0), (5, 2.0)]),
       st.floats(0.5, 2.0), st.floats(1e-3, 1.0),
       st.lists(st.floats(-0.2, 1.05), min_size=2, max_size=2),
       st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=2),
       st.floats(0.0, 1.0))
def test_spline_cell_bounds_hold_where_the_wall_is_not_a_cubic(
        case, r0, width, fracs, u_slopes, tilt):
    # a value-space segment in u = r^power with (m-2)/power not an integer:
    # the wall u^e is bounded by its tangent or chord, and _cell_bounds
    # still holds the least gap, found to 40 digits at the stationary
    # points of gap(t) = (u0 + h t)^e - 2 v(t); validate's wall verdict is
    # the exact one outside a 1e-9 band
    mpmath = pytest.importorskip("mpmath")
    m, p = case
    k = m - 2
    r1 = r0 + width
    wall = [r0**k, r1**k]
    values = [0.5 * f * x for f, x in zip(fracs, wall)]
    u0, u1 = r0**p, r1**p
    secant = (values[1] - values[0]) / (u1 - u0)
    slopes = [(secant + tilt * s) * p * r ** (p - 1.0)
              for s, r in zip(u_slopes, (r0, r1))]
    piece = CubicSplinePiece([r0, r1], values, slopes, power=p)
    with mpmath.workdps(40):
        mpf = mpmath.mpf
        U0 = mpf(r0) ** mpf(p)
        H = mpf(r1) ** mpf(p) - U0
        e = mpf(k) / mpf(p)
        S0, S1 = (mpf(s) / (mpf(p) * mpf(r) ** mpf(p - 1.0))
                  for s, r in zip(slopes, (r0, r1)))
        V0, V1 = map(mpf, values)
        b = [V0, V0 + H * S0 / 3, V1 - H * S1 / 3, V1]

        def gap(t):
            t = min(max(t, mpf(0)), mpf(1))
            v = ((1 - t) ** 3 * b[0] + 3 * t * (1 - t) ** 2 * b[1]
                 + 3 * t * t * (1 - t) * b[2] + t**3 * b[3])
            return (U0 + H * t) ** e - 2 * v

        grid = [gap(mpf(i) / 400) for i in range(401)]
        least = min(grid[0], grid[-1])
        for i in range(1, 400):
            if grid[i] <= grid[i - 1] and grid[i] <= grid[i + 1]:
                t = mpmath.findroot(lambda t: mpmath.diff(gap, t),
                                    mpf(i) / 400)
                least = min(least, gap(t), grid[i])
        least = float(least)
    scale = max(wall + [abs(v) for v in values])
    gap_lo = piece._cell_bounds(np.array([r0]), np.array([r1]), m)[1][0]
    assert gap_lo <= least + 1e-12 * scale
    assume(abs(least) > 1e-9 * scale)
    profile = HawkingProfile(m, 0.0, (
        ConstantPiece(0.0, r0, 0.0), piece,
        ConstantPiece(r1, math.inf, 0.45 * wall[1])))
    codes = [i.code for i in validate(profile).issues]
    assert ("admissible/wall" in codes) == (least <= 0.0)


def test_a_failing_property_test_leaves_the_session_running(tmp_path):
    # hypothesis's reporter warns while printing a falsifying example; under
    # filterwarnings = error that warning must not abort the session
    (tmp_path / "test_pair.py").write_text(textwrap.dedent("""
        from hypothesis import given, settings, strategies as st

        @settings(database=None, derandomize=True)
        @given(st.integers())
        def test_fails(x):
            assert x < 0

        def test_passes():
            pass
        """))
    config = Path(__file__).resolve().parents[1] / "pyproject.toml"
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(config), "--rootdir",
         str(tmp_path), "-p", "no:cacheprovider", "-q", "test_pair.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    out = run.stdout + run.stderr
    assert run.returncode == 1, out
    assert "INTERNALERROR" not in out
    assert "1 failed, 1 passed" in out, out
