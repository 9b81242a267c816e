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
from massflat.profiles import (CubicSplinePiece, deep_well, flat,
                               schwarzschild, stripes)
from massflat.serialization import dumps_profile, loads_profile
from util import random_spline_profile

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

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
    # the least m_H' over the points _slope_extremes returns on a Hermite
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
    least = Fraction(float(piece._slope_extremes()[1].min()))

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
