"""Embedding a tubular neighborhood into Euclidean-product ambient space.

A graph over the flat annulus with slope bound Q embeds into the product
(annulus) x R, and the failure of that embedding to be distance preserving is
controlled by the slope: intrinsic distances exceed ambient ones by at most
C = 2 diam Q, and the standard almost-isometry defect is
S = sqrt(C (diam + C)).  This module provides those constants in both the
measured form (scanning the reconstruction) and the budget form (from the
slope bound alone), the exact intrinsic distance of the flat annulus with a
blocked inner disk, and the exact intrinsic distance of the tube itself.

The tube r >= r_in of a reconstruction is the warped product
ds^2 + r(s)^2 dtheta^2, whose geodesics keep Clairaut's constant
c = r^2 dtheta/dt (do Carmo, Differential Geometry of Curves and Surfaces,
sec. 4-4).  tube_distance shoots on c, adding up the swept angle of each
path from its legs, which the model integrates; a cheap Gauss estimate of
that angle picks the shots.
metric_embedding_check compares these distances with the ambient product's
on seeded pairs of nodes of an (s, theta) lattice over the window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainError, QuadratureError, checked_range, positive

__all__ = [
    "q_slope",
    "EmbeddingConstants",
    "embedding_constant_bound",
    "annulus_distance",
    "tube_distance",
    "metric_embedding_check",
]

_TWO_PI = 2.0 * math.pi
# the geodesic shooting stops once the swept angle is this close to its
# target (radians)
_ANGLE_TOL = 1e-10
_MAX_SHOTS = 100
# steps of the estimate alone before the first shot, and the relative
# offset of the probe that gives its slope (see _shoot)
_PREDICTOR_STEPS = 4
_PROBE = 2.0**-20
# a sampled distance is exact to this times the window's outer arclength
_CHECK_REL = 1e-9


def q_slope(delta: float, r: float, dimension: int) -> float:
    """Slope bound sqrt(2 delta / (r^(m-2) - 2 delta)) where m_H <= delta."""
    xi = float(r) ** (dimension - 2)
    if not (delta >= 0 and math.isfinite(delta)):
        raise DomainError(f"delta must be finite and nonnegative, got {delta}")
    gap = xi - 2.0 * delta
    if gap <= 0:
        raise DomainError(
            f"slope bound undefined at r={r}: sphere inside the horizon "
            f"scale of delta={delta}")
    return math.sqrt(2.0 * delta / gap)


@dataclass(frozen=True)
class EmbeddingConstants:
    """Distortion data for the graph-over-annulus embedding of a tube."""

    C_M_bound: float
    S_M: float
    diam_W_bound: float
    diam_M_bound: float
    sup_grad: float
    delta_F: float
    mode: str


def embedding_constant_bound(model, r_a, r_b: float) -> EmbeddingConstants:
    """Distortion constants for the reconstruction restricted to [r_a, r_b].

    sup_grad is the model's knot scan of F' (ManifoldModel.sup_grad), and
    the annulus diameter is bounded by the measured strip length plus pi r_b.
    C = 2 diam_W sup_grad is therefore an upper bound only where F' peaks at
    a knot or an end of the range; between knots it can read low.
    S_M = sqrt(C (diam_M + C)) where diam_M is bounded by
    diam_W sqrt(1 + sup_grad^2) plus the graph height.  An array of left
    ends r_a sharing r_b gives constants whose fields are arrays.  The strip
    length s(r_b) - s(r_a) and the rise F(r_b) - F(r_a) are read off the
    model's table, with no quadrature (ManifoldModel._F_and_s_rises), as
    flat_certificate and the GH bounds read them, bit for bit.
    """
    rise, strip = model._F_and_s_rises(r_a, r_b)
    return _measured_constants(model, r_a, r_b, rise, strip)


def _measured_constants(model, r_a, r_b: float, rise,
                        strip) -> EmbeddingConstants:
    """embedding_constant_bound from the rise of F and the strip length
    over each [r_a, r_b]: float fields for a scalar r_a, arrays for an
    array."""
    fields = _measured_fields(
        model, np.atleast_1d(np.asarray(r_a, dtype=float)), r_b,
        np.atleast_1d(rise), np.atleast_1d(strip))
    if np.ndim(r_a) == 0:
        fields = {k: float(v[0]) for k, v in fields.items()}
    return EmbeddingConstants(mode="measured", **fields)


def _measured_fields(model, r_a: np.ndarray, r_b: float, rise: np.ndarray,
                     strip: np.ndarray) -> dict:
    """embedding_constant_bound's fields, as arrays over the left ends r_a,
    from F(r_b) - F(r_a) (rise) and s(r_b) - s(r_a) (strip)."""
    sup_grad = model.sup_grad(r_a, r_b)
    diam_W_bound = strip + math.pi * r_b
    # sup_grad is infinite only on a boundary sphere, where diam_W > 0, so
    # the infinity carries through to diam_M, C and S
    diam_M = diam_W_bound * np.sqrt(1.0 + sup_grad**2) + rise
    C = 2.0 * diam_W_bound * sup_grad
    return {"C_M_bound": C, "S_M": np.sqrt(C * (diam_M + C)),
            "diam_W_bound": diam_W_bound,
            "diam_M_bound": diam_M, "sup_grad": sup_grad, "delta_F": rise}


def _budget_distortion(D: float, r0: float, Q: float):
    """(diam_W, C, S) from the slope budget Q alone, unchecked: the annulus
    diameter 2 D + pi r0 and its C and S."""
    diam_W = 2.0 * D + math.pi * r0
    C = 2.0 * diam_W * Q
    return diam_W, C, math.sqrt(C * (diam_W + C))


def _folded_angle(theta1, theta2) -> np.ndarray:
    """|theta1 - theta2| reduced to [0, pi]."""
    dth = np.abs(np.asarray(theta1, dtype=float)
                 - np.asarray(theta2, dtype=float)) % _TWO_PI
    return np.where(dth > math.pi, _TWO_PI - dth, dth)


def annulus_distance(r_in, r1, theta1, r2, theta2):
    """Intrinsic distance in the flat annulus with inner radius r_in.

    The straight chord when it clears the inner disk, otherwise the two
    tangent segments joined by the arc they subtend.  Polar inputs
    broadcast; angles are taken modulo 2 pi.
    """
    r_in = float(r_in)
    r1 = np.asarray(r1, dtype=float)
    r2 = np.asarray(r2, dtype=float)
    dth = _folded_angle(theta1, theta2)
    scalar = (np.ndim(r1) == 0 and np.ndim(r2) == 0 and np.ndim(dth) == 0)
    r1, r2, dth = np.atleast_1d(r1, r2, dth)
    r1, r2, dth = np.broadcast_arrays(r1, r2, dth)
    cos = np.cos(dth)
    chord = np.sqrt(np.maximum(r1 * r1 + r2 * r2 - 2.0 * r1 * r2 * cos, 0.0))
    out = chord.copy()
    if r_in > 0.0:
        with np.errstate(divide="ignore", invalid="ignore"):
            # foot of the perpendicular from the origin, as a chord fraction
            t = np.where(chord > 0, (r1 * r1 - r1 * r2 * cos) / (chord * chord),
                         0.5)
            d_perp = np.where(chord > 0, r1 * r2 * np.sin(dth) / chord, r1)
        blocked = (chord > 0) & (t > 0) & (t < 1) & (d_perp < r_in)
        if np.any(blocked):
            ra, rb, th = r1[blocked], r2[blocked], dth[blocked]
            tang = (np.sqrt(np.maximum(ra * ra - r_in * r_in, 0.0))
                    + np.sqrt(np.maximum(rb * rb - r_in * r_in, 0.0)))
            swing = th - np.arccos(np.clip(r_in / ra, -1.0, 1.0)) \
                - np.arccos(np.clip(r_in / rb, -1.0, 1.0))
            out[blocked] = tang + r_in * np.maximum(swing, 0.0)
    return float(out[0]) if scalar else out


def _legs(r1, r2, c, turning):
    """The legs of the geodesics with Clairaut constants c from radius r1 to
    r2 >= r1, as (path, lo, hi, times): r1 -> r2 for each path, and c -> r1,
    counted twice, for each ``turning`` path (the path runs down to its
    turning point c and back out past r1, and both integrands are even
    about c)."""
    t = np.nonzero(turning)[0]
    return (np.concatenate([np.arange(r1.size), t]),
            np.concatenate([r1, c[t]]), np.concatenate([r2, r1[t]]),
            np.repeat([1.0, 2.0], [r1.size, t.size]))


def _path_integrals(model, r1, r2, c, turning, length: bool):
    """Swept angle, or length, of the geodesics with Clairaut constants c
    from radius r1 to radius r2 >= r1: A(r1, r2) + 2 A(c, r1) where
    ``turning``, else A(r1, r2), with A the leg integral of
    ManifoldModel._leg_integrals.  That equals A(c, r1) + A(c, r2), and
    leaves the long leg out of the turning point's reach, where its cells
    bisect.  A path spiralling into a minimal boundary sphere has a leg of
    +inf.  The legs of a path share its tolerance group, so its value does
    not depend on the batch.  _shoot sums the paths that graze the inner
    circle (c = r_in) as A(r_in, r1) + A(r_in, r2) instead, from legs
    shared by the batch (_grazing_legs).
    """
    path, lo, hi, times = _legs(r1, r2, c, turning)
    legs = model._leg_integrals(lo, hi, c[path], not length, path)
    return np.bincount(path, times * legs, minlength=r1.size)


def _grazing_legs(r_in, r1, r2):
    """The legs of the paths from r1 to r2 >= r1 that graze the inner circle
    (c = r_in), as (lo, hi, c, index): A(r_in, r), one leg per distinct
    radius r of the paths, and index[0], index[1] the legs of each path's
    r1 and r2.  A grazing path sums its legs, r1's first.  Each leg is its
    own tolerance group, so its value depends only on r_in and r, and a
    path's only on its radii."""
    hi, index = np.unique(np.concatenate([r1, r2]), return_inverse=True)
    lo = np.full(hi.size, r_in)
    return lo, hi, lo, index.reshape(2, r1.size)


def _predicted_angles(model, r1, r2, c, turning):
    """A cheap estimate of the swept angle of _path_integrals, from the
    Gauss estimates of its legs (ManifoldModel._leg_estimates).  Each
    path's value depends only on that path.  It steers _shoot, which never
    returns it."""
    path, lo, hi, times = _legs(r1, r2, c, turning)
    legs = model._leg_estimates(lo, hi, c[path])
    return np.bincount(path, times * legs, minlength=r1.size)


def tube_distance(model, r_in: float, r1, theta1, r2, theta2):
    """Intrinsic distance in the tube r >= r_in of a reconstructed manifold.

    The tube is the warped product ds^2 + r(s)^2 dtheta^2, and a unit-speed
    geodesic keeps Clairaut's constant c = r^2 dtheta/dt.  The geodesics
    from radius r1 to r2 >= r1 are labelled by u, the angle that the
    straight segment between the two radii sweeps in the Euclidean plane:
    the segment passes at distance c from the origin, and the geodesic
    turns (at radius c) where the segment's closest point lies between its
    ends.  u = 0 is radial, and u_max grazes the inner circle (c = r_in).
    Since s' >= 1 the swept angle Theta(u) >= u, so min(phi, u_max)
    brackets the root of Theta(u) = phi from above.  _shoot solves it to
    _ANGLE_TOL by a predictor-corrector on a cheap Gauss estimate of Theta,
    every kept Theta a full adaptive one, and the distance is
    L + c (phi - Theta), exact to first order in the residual because
    dL/dTheta = c along the family.  When phi >= Theta(u_max) the shortest
    path hugs the inner circle: L(u_max) + r_in (phi - Theta(u_max)).  A
    grazing path's Theta(u_max) and L(u_max) sum one leg A(r_in, r) per
    end, shared by every grazing path of the batch with that radius.  On a
    minimal boundary sphere Theta(u_max) is infinite and no path hugs.
    Equal angles, or a point at the origin, give |s(r2) - s(r1)|.

    Theta is taken to increase with u, as it does on flat, conical, round
    and negatively curved tubes.  Polar inputs broadcast as in
    annulus_distance; a radius outside [r_in, r_cap], or r_in outside
    [r_min, r_cap], raises RangeError.
    """
    (r_in,), _ = checked_range(r_in, model.r_min, model.r_cap, "inner radius")
    ra, scalar_a = checked_range(r1, r_in, model.r_cap, "radius")
    rb, scalar_b = checked_range(r2, r_in, model.r_cap, "radius")
    phi = _folded_angle(theta1, theta2)
    scalar = scalar_a and scalar_b and phi.ndim == 0
    ra, rb, phi = np.broadcast_arrays(ra, rb, phi)
    shape = phi.shape
    lo_r = np.minimum(ra, rb).ravel()
    hi_r = np.maximum(ra, rb).ravel()
    phi = phi.ravel()
    out = np.zeros(phi.size)
    # a point at the origin has no angle
    radial = (phi == 0.0) | (lo_r == 0.0)
    if np.any(radial):
        out[radial] = np.abs(model.s(hi_r[radial]) - model.s(lo_r[radial]))
    i = np.nonzero(~radial)[0]
    if i.size:
        out[i] = _shoot(model, r_in, lo_r[i], hi_r[i], phi[i])
    return float(out[0]) if scalar else out.reshape(shape)


def _shoot(model, r_in, r1, r2, phi):
    """Distances for r1 <= r2 and folded angles phi > 0 (see tube_distance).

    A shot takes Theta(u) from the adaptive leg integrals (_path_integrals);
    the cheap estimate P(u) of _predicted_angles only picks the shots.
    Paths with phi >= u_max shoot u_max first, from one grazing leg per
    distinct radius (_grazing_legs), which tells the paths that hug from
    the rest and gives the defect d = Theta - P at u_max, kept
    where phi - d > 0; d = 0 on the other paths.  _PREDICTOR_STEPS
    steps on P alone from min(phi, u_max), a ratio step
    u <- u (phi - d) / P(u) and then secant steps, pick the first shot of
    the others and the second of those.  After the first shot, and after
    each that cut |Theta - phi| tenfold, the next solves
    P(u) + (Theta - P)(u_k) = phi by one secant step on P from the shot
    u_k, through u_k (1 - _PROBE).  The bracket of the root is kept all
    along, and the Anderson-Bjorck regula falsi step on it is taken where
    that step leaves it, is not finite, or follows a shot that did not cut
    |Theta - phi| tenfold, and the bracket's midpoint where that step
    fails too.  Shooting stops at |Theta - phi| <= _ANGLE_TOL, or on a
    bracket a few ulps wide.  Every step depends on its own path alone.
    The lengths take one run: the legs of each path that shot, and the
    grazing legs of the paths left at u_max.
    """
    n = phi.size
    # the straight line between the points, in the plane, sweeps u and
    # passes at distance c from the origin; u_max grazes the inner circle
    u_max = (np.arccos(np.minimum(r_in / r1, 1.0))
             + np.arccos(np.minimum(r_in / r2, 1.0)))

    def clairaut(sel, u):
        ra, rb = r1[sel], r2[sel]
        chord = np.hypot(rb - ra, 2.0 * np.sqrt(ra * rb) * np.sin(0.5 * u))
        # the foot of the perpendicular lies between the points: a turn
        turning = ra > rb * np.cos(u)
        with np.errstate(invalid="ignore"):  # 0/0 only where u = u_max = 0
            c = ra * rb * np.sin(u) / chord
        c = np.minimum(np.where(turning, np.maximum(c, r_in), c), ra)
        return np.where(u >= u_max[sel], r_in, c), turning

    # Theta(u_max) >= u_max, so only phi >= u_max may hug; the boundary
    # circle of a singular model is a closed geodesic, which paths from it
    # or around it approach by spiralling, and Theta(u_max) reads +inf
    theta_max = np.full(n, np.inf)
    check = phi >= u_max
    if np.any(check):
        lo, hi, c, (i1, i2) = _grazing_legs(r_in, r1[check], r2[check])
        legs = model._leg_integrals(lo, hi, c, True, np.arange(hi.size))
        theta_max[check] = legs[i1] + legs[i2]
    u, theta = u_max.copy(), theta_max.copy()
    active = phi < theta_max
    # the bracket, with Anderson-Bjorck's side of the last shot: Theta(0)
    # = 0, and Theta(u) >= u puts the root at or below phi; g_hi = +inf
    # stands for a positive value not shot
    lo, g_lo = np.zeros(n), -phi
    hi, g_hi = np.minimum(phi, u_max), theta_max - phi
    side = np.zeros(n)
    # |g| of the last shot, +inf before the first
    g_last = np.abs(g_hi)

    def bracketed(k, step):
        """step where it is finite and strictly inside the path's bracket,
        else the bracket's regula falsi step, else its midpoint."""
        a, b, ga, gb = lo[k], hi[k], g_lo[k], g_hi[k]
        with np.errstate(invalid="ignore", over="ignore"):
            rf = (a * gb - b * ga) / (gb - ga)
        rf = np.where(np.isfinite(rf) & (a < rf) & (rf < b), rf,
                      0.5 * (a + b))
        return np.where(np.isfinite(step) & (a < step) & (step < b), step, rf)

    x = np.full(n, np.nan)
    k = np.nonzero(active)[0]
    if k.size:
        xk, target = hi[k], phi[k]
        for step in range(_PREDICTOR_STEPS):
            p = _predicted_angles(model, r1[k], r2[k], *clairaut(k, xk))
            with np.errstate(invalid="ignore", divide="ignore"):
                if step == 0:
                    fixed = target - (theta_max[k] - p)
                    target = np.where(fixed > 0.0, fixed, target)
                nxt = xk * target / p
                if step:
                    sec = xk - (p - target) * (xk - u_p) / (p - p_p)
                    nxt = np.where(np.isfinite(sec) & (sec > 0.0), sec, nxt)
            u_p, p_p = xk, p
            xk = np.where(np.isfinite(nxt) & (nxt > 0.0),
                          np.minimum(nxt, hi[k]), xk)
        # the first shot lies inside the bracket: one ulp below hi = phi,
        # never shot, where the steps reached it, and on the regula falsi
        # step where they reached u_max, shot already
        x[k] = bracketed(k, np.where(check[k] | (xk < hi[k]), xk,
                                     np.nextafter(hi[k], 0.0)))
    for _ in range(_MAX_SHOTS):
        k = np.nonzero(active)[0]
        if k.size == 0:
            break
        xk = x[k]
        c, turning = clairaut(k, xk)
        th = _path_integrals(model, r1[k], r2[k], c, turning, False)
        g = th - phi[k]
        # the distance is read from the last shot with a finite angle
        fin = np.isfinite(th)
        u[k[fin]], theta[k[fin]] = xk[fin], th[fin]
        # Anderson-Bjorck: an end kept twice in a row has its value scaled
        a, b, ga, gb = lo[k], hi[k], g_lo[k], g_hi[k]
        up = g > 0.0
        with np.errstate(invalid="ignore", divide="ignore"):
            m_hi = 1.0 - g / gb
            m_lo = 1.0 - g / ga
        m_hi = np.where(np.isfinite(m_hi) & (m_hi > 0.0), m_hi, 0.5)
        m_lo = np.where(np.isfinite(m_lo) & (m_lo > 0.0), m_lo, 0.5)
        g_lo[k] = np.where(up, np.where(side[k] > 0, ga * m_hi, ga), g)
        g_hi[k] = np.where(up, g, np.where(side[k] < 0, gb * m_lo, gb))
        lo[k] = np.where(up, a, xk)
        hi[k] = np.where(up, xk, b)
        side[k] = np.where(up, 1.0, -1.0)
        done = (np.abs(g) <= _ANGLE_TOL) | (hi[k] - lo[k]
                                            <= 4.0 * np.spacing(xk))
        active[k[done]] = False
        go = ~done
        k, xk, g, c, turning = k[go], xk[go], g[go], c[go], turning[go]
        if k.size == 0:
            continue
        # the corrected step where the shot cut |g| tenfold, with P's slope
        # from P at xk and at a probe just below it (their difference is
        # exact)
        fresh = np.abs(g) <= 0.1 * g_last[k]
        g_last[k] = np.abs(g)
        j, xj = k[fresh], xk[fresh]
        probe = xj * (1.0 - _PROBE)
        p = _predicted_angles(model, r1[j].repeat(2), r2[j].repeat(2), *(
            np.stack(v, axis=1).ravel() for v in zip(
                (c[fresh], turning[fresh]), clairaut(j, probe))))
        cor = np.full(k.size, np.nan)
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            cor[fresh] = xj - g[fresh] * (xj - probe) / (p[0::2] - p[1::2])
        x[k] = bracketed(k, cor)
    else:
        j = int(np.nonzero(active)[0][0])
        raise QuadratureError(
            f"geodesic shooting from r={float(r1[j])!r} to "
            f"r={float(r2[j])!r} over angle {float(phi[j])!r} did not "
            f"converge in {_MAX_SHOTS} steps")
    # one length run: each other path's legs in its own group, then the
    # grazing paths' shared legs in groups past theirs
    graze = u >= u_max
    k = np.nonzero(~graze)[0]
    c, turning = clairaut(k, u[k])
    path, lo, hi, times = _legs(r1[k], r2[k], c, turning)
    g_lo, g_hi, g_c, index = _grazing_legs(r_in, r1[graze], r2[graze])
    legs = model._leg_integrals(
        np.concatenate([lo, g_lo]), np.concatenate([hi, g_hi]),
        np.concatenate([c[path], g_c]), False,
        np.concatenate([k[path], n + np.arange(g_hi.size)]))
    out = np.empty(n)
    out[k] = (np.bincount(path, times * legs[:path.size], minlength=k.size)
              + c * (phi[k] - theta[k]))
    legs = legs[path.size:][index]
    out[graze] = legs[0] + legs[1] + r_in * (phi[graze] - theta[graze])
    return out


def _pow2_at_least(x: float) -> int:
    return 1 << max(0, math.ceil(math.log2(max(x, 1.0))))


def metric_embedding_check(model, window, mesh_h: float, seed: int,
                           n_pairs: int = 2048,
                           S: Optional[float] = None) -> dict:
    """Sampled comparison of tube distances against the ambient product.

    Samples node pairs of an (s, theta) lattice of spacing about mesh_h over
    the window (a power of two of steps along s, and of at least 8 angles),
    takes their exact tube distances from tube_distance, and measures the
    excess over the ambient product distance (blocked-chord annulus plus
    graph height) after granting the almost-isometry allowance 2 S.  A pair
    violates when its excess clears _CHECK_REL s_plus, the accuracy of the
    distances.  Reports the worst excess and the violation count; a sound
    embedding bound produces zero violations.
    """
    h = positive(mesh_h, "mesh spacing h")
    if seed < 0:
        raise DomainError(f"seed must be >= 0, got {seed!r}")
    span = window.s_plus - window.s_minus
    n_seg = _pow2_at_least(min(span / h, 2.0**62))
    n_theta = _pow2_at_least(max(8.0, _TWO_PI * window.r_plus / h))
    n_nodes = (n_seg + 1) * n_theta
    if n_nodes > np.iinfo(np.int64).max:
        raise DomainError(f"a lattice of spacing {h!r} over the window has "
                          f"{n_seg + 1} x {n_theta} nodes, too many for int64 "
                          "indices; coarsen mesh_h")
    const = embedding_constant_bound(model, window.r_minus, window.r_plus)
    s_allow = const.S_M if S is None else float(S)
    if not math.isfinite(s_allow):
        raise DomainError("embedding defect is infinite on this window; "
                          "pass an explicit S")

    rng = np.random.default_rng(seed)
    n_src = min(32, n_nodes)
    n_tgt = min(max(1, math.ceil(n_pairs / n_src)), n_nodes)
    src = rng.choice(n_nodes, size=n_src, replace=False)
    tgt = rng.choice(n_nodes, size=n_tgt, replace=False)
    rows, cols = np.divmod(np.concatenate([src, tgt]), n_theta)
    # the lattice lies in the window; clip the few ulps the inversion of s
    # may overshoot by
    r = np.clip(model.r_of_s(window.s_minus + (span / n_seg) * rows),
                window.r_minus, window.r_plus)
    f = model.F(r)
    theta = (_TWO_PI / n_theta) * cols
    (rs, rt), (ts, tt), (fs, ft) = (np.split(x, [n_src])
                                    for x in (r, theta, f))
    d_tube = tube_distance(model, window.r_minus, rs[:, None], ts[:, None],
                           rt[None, :], tt[None, :])
    d_flat = annulus_distance(window.r_minus, rs[:, None], ts[:, None],
                              rt[None, :], tt[None, :])
    # the distance in (annulus) x R
    d_amb = np.hypot(d_flat, fs[:, None] - ft[None, :])

    excess = d_tube - d_amb - 2.0 * s_allow
    tol = _CHECK_REL * window.s_plus
    return {
        "c_m_bound": const.C_M_bound,
        "c_m_sampled": float(np.max(d_tube - d_amb)),
        "s_m": s_allow,
        "sup_grad": const.sup_grad,
        "mesh_h": h,
        "seed": int(seed),
        "n_pairs": int(n_src * n_tgt),
        "violations": int(np.sum(excess > tol)),
        "max_violation": float(max(0.0, np.max(excess))),
        "tol_min": float(tol),
    }
