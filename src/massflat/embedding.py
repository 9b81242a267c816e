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
sec. 4-4).  tube_distance shoots on c: each step is one batched adaptive
quadrature of the swept angle, through the same primitive as every other
integral of the package, over one or two outward legs in r whose cells end
where the model's own cells do.  metric_embedding_check compares these
distances with the ambient product's on seeded pairs of nodes of an
(s, theta) lattice over the window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainError, QuadratureError, checked_range, positive
from .geometry import _QUAD_REL, _adaptive_cells

__all__ = [
    "q_slope",
    "EmbeddingConstants",
    "embedding_constant_bound",
    "budget_embedding_constants",
    "annulus_distance",
    "tube_distance",
    "metric_embedding_check",
]

_TWO_PI = 2.0 * math.pi
# the geodesic shooting stops once the swept angle is this close to its
# target (radians)
_ANGLE_TOL = 1e-10
_MAX_SHOTS = 100
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
    C_M_sampled: Optional[float] = None


def embedding_constant_bound(model, r_a, r_b: float) -> EmbeddingConstants:
    """Distortion constants for the reconstruction restricted to [r_a, r_b].

    sup|grad F| is scanned on the range, and the annulus diameter is bounded
    by the measured strip length plus pi r_b.  S_M = sqrt(C (diam_M + C))
    where diam_M is bounded by diam_W sqrt(1 + sup_grad^2) plus the graph
    height.  An array of left ends r_a sharing r_b gives constants whose
    fields are arrays.
    """
    scalar = np.ndim(r_a) == 0
    r_a = np.atleast_1d(np.asarray(r_a, dtype=float))
    sup_grad = model.sup_grad(r_a, r_b)
    ends = np.append(r_a, r_b)
    s_ends = model.s(ends)
    diam_W_bound = (s_ends[-1] - s_ends[:-1]) + math.pi * r_b
    f_ends = model.F(ends)
    delta_f = f_ends[-1] - f_ends[:-1]
    # sup_grad is infinite only on a boundary sphere, where diam_W > 0, so
    # the infinity carries through to diam_M, C and S
    diam_M = diam_W_bound * np.sqrt(1.0 + sup_grad**2) + delta_f
    C = 2.0 * diam_W_bound * sup_grad
    fields = {"C_M_bound": C, "S_M": np.sqrt(C * (diam_M + C)),
              "diam_W_bound": diam_W_bound,
              "diam_M_bound": diam_M, "sup_grad": sup_grad, "delta_F": delta_f}
    if scalar:
        fields = {k: float(v[0]) for k, v in fields.items()}
    return EmbeddingConstants(mode="measured", **fields)


def budget_embedding_constants(dimension: int, D: float, r0: float,
                               Q: float) -> EmbeddingConstants:
    """Distortion constants from the slope budget Q alone."""
    D, r0 = positive(D, "D"), positive(r0, "r0")
    if not Q >= 0:
        raise DomainError(f"budget constants need Q >= 0, got {Q}")
    diam_W = 2.0 * D + math.pi * r0
    C = 2.0 * diam_W * Q
    S = math.sqrt(C * (diam_W + C))
    delta_f = 2.0 * D * Q
    diam_M = diam_W * math.sqrt(1.0 + Q * Q) + delta_f
    return EmbeddingConstants(
        C_M_bound=C, S_M=S, diam_W_bound=diam_W, diam_M_bound=diam_M,
        sup_grad=Q, delta_F=delta_f, mode="budget")


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


def _path_integrals(model, r1, r2, c, turning, length: bool):
    """Swept angle, or length, of the geodesics with Clairaut constants c
    from radius r1 to radius r2 >= r1, turning once at radius c where
    ``turning``.

    A path is integrated as outward legs: c -> r1 plus c -> r2 where it
    turns, r1 -> r2 where it does not.  On a leg, with v = sqrt(r^2 - c^2),
    the length is the integral of s'(r) dv and the angle that of
    c s'(r) / r^2 dv = s'(r) dalpha, alpha = arctan(v / c) being the angle
    the straight segment with Clairaut constant c sweeps in the plane; the
    angle's integrand stays bounded as c -> 0, where c / r^2 dv peaks.  Both
    integrands are even in v and in alpha, so the legs of a turning path
    add up to the integral through its turning point.  A leg's cells end at
    the model's cut radii.  On a singular model, below its substitution
    edge, where s' ~ (r - r_min)^(-1/2), a cell runs under w with
    r = max(c, r_min) + |c - r_min| sinh(w)^2, which leaves the bounded
    integrands 2 s' sqrt(r - r_min) r / sqrt(r + c) dw (length) and c / r^2
    times it (angle), again even in w.  The angle diverges as c -> r_min on
    a path that reaches r_min; such a path reads +inf.  Each path is its own
    tolerance group, so its value does not depend on the batch.
    """
    n = r1.size
    r_min = model.r_min
    t = np.nonzero(turning)[0]
    path = np.concatenate([np.arange(n), t])
    lo = np.concatenate([np.where(turning, c, r1), c[t]])
    hi = np.concatenate([np.where(turning, r1, r2), r2[t]])
    out = np.zeros(n)
    diverge = model._singular & (c == r_min) & (lo[:n] == r_min) & (r2 > r_min)
    out[diverge] = np.inf
    # each leg's cells, ascending; empty ones are dropped
    edges = np.column_stack([lo, np.clip(model._cuts, lo[:, None],
                                         hi[:, None]), hi])
    live = (edges[:, :-1] < edges[:, 1:]) & ~diverge[path][:, None]
    owner = np.broadcast_to(path[:, None], live.shape)[live]
    if owner.size == 0:
        return out
    cc = c[owner]
    eps = cc - r_min
    a, b = edges[:, :-1][live], edges[:, 1:][live]
    sub = (b <= model._sub_edge) & (eps != 0.0)

    def coordinate(r):
        x = np.sqrt((r - cc) * (r + cc))
        if not length:
            x = np.arctan2(x, cc)
        x[sub] = np.arcsinh(np.sqrt(
            (r[sub] - np.maximum(cc[sub], r_min)) / np.abs(eps[sub])))
        return x

    r_floor = np.nextafter(r_min, np.inf)

    def plain(x, c):  # in v (length) or alpha (angle)
        return model.s_prime(np.hypot(x, c) if length else c / np.cos(x))

    def absorbed(x, c):  # in w
        r = np.maximum(np.maximum(c, r_min)
                       + np.abs(c - r_min) * np.sinh(x) ** 2, r_floor)
        dl = 2.0 * model.s_prime(r) * np.sqrt(r - r_min) * r / np.sqrt(r + c)
        return dl * (1.0 if length else c / (r * r))

    def integrand(x, p):
        c, w = p[:, 0], p[:, 1] > 0.0
        if not np.any(w):
            return plain(x, c)
        y = np.empty_like(x)
        y[w] = absorbed(x[w], c[w])
        y[~w] = plain(x[~w], c[~w])
        return y

    vals = _adaptive_cells(integrand, coordinate(a), coordinate(b),
                           _QUAD_REL, owner, np.column_stack([cc, sub]))
    out += np.bincount(owner, weights=vals, minlength=n)
    return out


def tube_distance(model, r_in: float, r1, theta1, r2, theta2):
    """Intrinsic distance in the tube r >= r_in of a reconstructed manifold.

    The tube is the warped product ds^2 + r(s)^2 dtheta^2, and a unit-speed
    geodesic keeps Clairaut's constant c = r^2 dtheta/dt.  The geodesics
    from radius r1 to r2 >= r1 are labelled by u, the angle that the
    straight segment between the two radii sweeps in the Euclidean plane:
    the segment passes at distance c from the origin, and the geodesic
    turns (at radius c) where the segment's closest point lies between its
    ends.  u = 0 is radial, and u_max grazes the inner circle (c = r_in).
    Since s' >= 1 the swept angle Theta(u) >= u, so u = phi brackets the
    root of Theta(u) = phi from above; bracketed Anderson-Bjorck regula
    falsi solves it to _ANGLE_TOL, and the distance is L + c (phi - Theta),
    exact to first order in the residual because dL/dTheta = c along the
    family.  When phi >= Theta(u_max) the shortest path hugs the inner
    circle: L(u_max) + r_in (phi - Theta(u_max)).  On a minimal boundary
    sphere Theta(u_max) is infinite and no path hugs.  Equal angles, or a
    point at the origin, give |s(r2) - s(r1)|.

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
    """Distances for r1 <= r2 and folded angles phi > 0 (see tube_distance)."""
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

    def integrals(sel, u, length=False):
        c, turning = clairaut(sel, u)
        return _path_integrals(model, r1[sel], r2[sel], c, turning, length)

    # Theta(u_max) >= u_max, so only phi >= u_max may hug; the boundary
    # circle of a singular model is a closed geodesic, which paths from it
    # or around it approach by spiralling, and Theta(u_max) reads +inf
    theta_max = np.full(n, np.inf)
    check = phi >= u_max
    if np.any(check):
        theta_max[check] = integrals(check, u_max[check])
    u, theta = u_max.copy(), theta_max.copy()
    lo, g_lo = np.zeros(n), -phi
    hi, g_hi = u_max.copy(), theta_max - phi
    # the first shot is u = phi: an upper bracket, since s' >= 1 gives
    # Theta(u) >= u, and close to the root where s' is close to 1
    x = np.where(phi < u_max, phi, np.nan)
    side = np.zeros(n)
    active = phi < theta_max
    for _ in range(_MAX_SHOTS):
        k = np.nonzero(active)[0]
        if k.size == 0:
            break
        a, b, ga, gb = lo[k], hi[k], g_lo[k], g_hi[k]
        with np.errstate(invalid="ignore", over="ignore"):
            guess = np.where(np.isnan(x[k]), (a * gb - b * ga) / (gb - ga),
                             x[k])
        xk = np.where(np.isfinite(guess) & (a < guess) & (guess < b), guess,
                      0.5 * (a + b))
        x[k] = np.nan
        th = integrals(k, xk)
        g = th - phi[k]
        # the distance is read from the last shot with a finite angle
        fin = np.isfinite(th)
        u[k[fin]], theta[k[fin]] = xk[fin], th[fin]
        # Anderson-Bjorck: an end kept twice in a row has its value scaled
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
    else:
        j = int(np.nonzero(active)[0][0])
        raise QuadratureError(
            f"geodesic shooting from r={float(r1[j])!r} to "
            f"r={float(r2[j])!r} over angle {float(phi[j])!r} did not "
            f"converge in {_MAX_SHOTS} steps")
    every = np.ones(n, dtype=bool)
    return (integrals(every, u, length=True)
            + clairaut(every, u)[0] * (phi - theta))


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
    # the lattice lies in the window; clip what the inversion of s, good to
    # 1e-10 relative, may overshoot by
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
