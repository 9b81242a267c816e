"""Piecewise Hawking-mass profiles for rotationally symmetric manifolds.

A profile assigns to every areal radius r >= r_min a Hawking mass m_H(r).
Profiles are stored as contiguous pieces with exact closed-form evaluators,
so validation and quadrature are deterministic.  A profile is admissible when

* m_H is C1 and nondecreasing,
* m_H(r) < r^(m-2)/2 strictly for r > r_min,
* m_H(r_min) = r_min^(m-2)/2 when r_min > 0 (minimal boundary sphere), or
  m_H(0) = 0 when there is no boundary,
* the final piece is constant on [r_tail, inf) and equals the ADM mass.

Near-extremal profiles hug the admissibility wall r^(m-2)/2 so closely that
the gap r^(m-2) - 2 m_H(r) underflows when reconstructed from rounded m_H
values.  Every piece therefore returns the gap next to m_H from its
``mass_and_gap`` evaluator, in a cancellation-free form where the piece has
one; cubic-spline pieces may be parametrized directly by the gap function,
in which case m_H is the derived quantity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import DomainError, checked_range, positive

__all__ = [
    "unit_sphere_area",
    "sphere_radius",
    "ProfilePiece",
    "ConstantPiece",
    "PowerLawPiece",
    "CubicSplinePiece",
    "HawkingProfile",
    "ValidationIssue",
    "ValidationReport",
    "validate",
    "monotone_slopes",
    "flat",
    "schwarzschild",
    "deep_well",
    "deep_well_parameters",
    "stripes",
]

_TINY = 1e-300
# _BLOSSOM_B[i, j]: whether argument i of the blossom that gives a cubic's
# control point j on [u_a, u_b] is u_b (j of its three are)
_BLOSSOM_B = (np.arange(3)[:, None] >= 3 - np.arange(4))[:, :, None]


def unit_sphere_area(dimension: int) -> float:
    """Surface area of the unit (m-1)-sphere in Euclidean m-space."""
    m = dimension
    if not isinstance(m, (int, np.integer)) or m < 2:
        raise DomainError(f"dimension must be an integer >= 2, got {m!r}")
    try:
        # Gamma(m/2) overflows from m = 344 on
        return 2.0 * math.pi ** (m / 2.0) / math.gamma(m / 2.0)
    except OverflowError:
        raise DomainError(f"the unit sphere area in dimension {m} is not a "
                          f"finite double") from None


def sphere_radius(area: float, dimension: int) -> float:
    """Radius of the round Euclidean sphere of the given area."""
    return (area / unit_sphere_area(dimension)) ** (1.0 / (dimension - 1))


def _dimension(dimension) -> int:
    """dimension as an int; DomainError unless it is an integer >= 3."""
    if not isinstance(dimension, (int, np.integer)) or dimension < 3:
        raise DomainError(
            f"dimension must be an integer >= 3, got {dimension!r}")
    return int(dimension)


def _check_interval(r_lo: float, r_hi: float) -> tuple[float, float]:
    r_lo = float(r_lo)
    r_hi = float(r_hi)
    if not (r_lo >= 0.0 and math.isfinite(r_lo)):
        raise DomainError(f"piece lower bound must be finite and >= 0, got {r_lo}")
    if not r_hi > r_lo:
        raise DomainError(f"piece bounds must satisfy r_lo < r_hi, got [{r_lo}, {r_hi}]")
    return r_lo, r_hi


class ProfilePiece:
    """One closed-form segment of a Hawking-mass profile on [r_lo, r_hi]."""

    kind = "abstract"
    __slots__ = ("r_lo", "r_hi")

    def __init__(self, r_lo: float, r_hi: float):
        self.r_lo, self.r_hi = _check_interval(r_lo, r_hi)

    def mass_and_gap(self, r: np.ndarray, dimension: int):
        """m_H(r) and the wall gap r^(m-2) - 2 m_H(r) from one evaluation."""
        raise NotImplementedError

    def mass_prime(self, r: np.ndarray) -> np.ndarray:
        """Radial derivative m_H'(r)."""
        raise NotImplementedError

    def scaled(self, lam: float, dimension: int) -> "ProfilePiece":
        raise NotImplementedError

    def _cell_bounds(self, a: np.ndarray, b: np.ndarray, dimension: int):
        """Rigorous bounds over each cell [a_i, b_i] inside the piece (inside
        one knot interval of a spline): an upper bound on m_H, a lower bound
        on the wall gap, and whether the gap provably rises across the cell
        (its slope bound, m-2 times r^(m-3) minus twice an upper bound on
        m_H', is positive)."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}([{self.r_lo:g}, {self.r_hi:g}])"


class ConstantPiece(ProfilePiece):
    kind = "constant"
    __slots__ = ("value",)

    def __init__(self, r_lo: float, r_hi: float, value: float):
        super().__init__(r_lo, r_hi)
        value = float(value)
        if not (math.isfinite(value) and value >= 0.0):
            raise DomainError(f"constant piece value must be finite and >= 0, got {value}")
        self.value = value

    def mass_prime(self, r):
        return np.zeros_like(np.asarray(r, dtype=float))

    def mass_and_gap(self, r, dimension):
        k = dimension - 2
        r = np.asarray(r, dtype=float)
        mh = np.full_like(r, self.value)
        xi_lo = self.r_lo ** k
        if abs(xi_lo - 2.0 * self.value) <= 1e-9 * max(xi_lo, _TINY):
            # the piece starts on the wall (minimal boundary sphere); treat
            # the touch as exact and factor r^k - r_lo^k so the gap keeps
            # full relative accuracy arbitrarily close to r_lo
            if k == 1:
                return mh, r - self.r_lo
            # sum_j r^j r_lo^(k-1-j), the j = 0 and j = 1 terms written out
            lo = self.r_lo
            poly = lo ** (k - 1) + r * lo ** (k - 2)
            for j in range(2, k):
                poly = poly + r**j * lo ** (k - 1 - j)
            return mh, (r - lo) * poly
        return mh, r**k - 2.0 * mh

    def _cell_bounds(self, a, b, dimension):
        # m_H is constant and the gap rises with r: the left end is least
        return (np.full_like(a, self.value), self.mass_and_gap(a, dimension)[1],
                np.ones(a.shape, dtype=bool))

    def scaled(self, lam, dimension):
        return ConstantPiece(self.r_lo * lam, self.r_hi * lam, self.value * lam ** (dimension - 2))


class PowerLawPiece(ProfilePiece):
    """m_H(r) = coefficient * r^exponent."""

    kind = "power-law"
    __slots__ = ("coefficient", "exponent")

    def __init__(self, r_lo: float, r_hi: float, coefficient: float, exponent: float):
        super().__init__(r_lo, r_hi)
        self.coefficient = float(coefficient)
        self.exponent = float(exponent)
        if not math.isfinite(self.coefficient) or self.coefficient < 0.0:
            raise DomainError("power-law coefficient must be finite and >= 0")
        if not (self.exponent > 0.0 and math.isfinite(self.exponent)):
            raise DomainError("power-law exponent must be positive")

    def mass_prime(self, r):
        r = np.asarray(r, dtype=float)
        p = self.exponent
        return self.coefficient * p * r ** (p - 1.0)

    def mass_and_gap(self, r, dimension):
        r = np.asarray(r, dtype=float)
        xi = r ** (dimension - 2)
        rp = r ** self.exponent
        if self.exponent == dimension - 2:
            # the near-wall case; (1 - 2c) keeps full precision as c -> 1/2
            return self.coefficient * rp, (1.0 - 2.0 * self.coefficient) * xi
        return self.coefficient * rp, xi - 2.0 * self.coefficient * rp

    def _cell_bounds(self, a, b, dimension):
        k = dimension - 2
        c, p = self.coefficient, self.exponent
        if c == 0.0:
            return np.zeros_like(a), a**k, np.ones(a.shape, dtype=bool)
        # the gap is r^k (1 - 2c r^(p-k)) and its slope r^(k-1) (k - 2cp
        # r^(p-k)); each bracket is monotone in r, so least at an end
        t = np.stack([a, b]) ** (p - k)
        sign = (1.0 - 2.0 * c * t).min(axis=0)
        gap_lo = np.where(sign > 0.0, a**k, b**k) * sign
        return c * b**p, gap_lo, (k - 2.0 * c * p * t).min(axis=0) > 0.0

    def scaled(self, lam, dimension):
        c = self.coefficient * lam ** (dimension - 2 - self.exponent)
        return PowerLawPiece(self.r_lo * lam, self.r_hi * lam, c, self.exponent)


class CubicSplinePiece(ProfilePiece):
    """Hermite cubic in the substituted variable u = r^power.

    With ``gap_space=False`` the knot data are (m_H values, d m_H / dr).
    With ``gap_space=True`` the knot data describe g(u) = r^(m-2) - 2 m_H(r)
    instead, which keeps near-wall profiles exact; the power must then equal
    m - 2 (checked when the piece is attached to a profile).

    ``ride_knots`` lists the interior knots of a gap-space piece where the
    gap has a near-double root: u-slope 0, value g0 > 0, and a segment on
    ``side`` (-1 left, +1 right) rising as g0 + A d^2 + O(d^3) in
    d = |u - u_k|, A > 0.  Each entry is (knot, side, w) with
    w = sqrt(g0 / A), the width in u of the 1/sqrt(gap) peak there.
    """

    kind = "cubic-spline"
    __slots__ = ("knots", "values", "slopes", "power", "gap_space",
                 "ride_knots", "_u_knots", "_value_table", "_slope_table")

    def __init__(self, knots: Sequence[float], values: Sequence[float],
                 slopes: Sequence[float], power: float = 1.0,
                 gap_space: bool = False):
        knots = np.asarray(knots, dtype=float)
        values = np.asarray(values, dtype=float)
        slopes = np.asarray(slopes, dtype=float)
        if knots.ndim != 1 or knots.size < 2:
            raise DomainError("spline piece needs at least two knots")
        if values.shape != knots.shape or slopes.shape != knots.shape:
            raise DomainError("knots, values and slopes must have equal length")
        if not (knots[1:] > knots[:-1]).all():
            raise DomainError("spline knots must be strictly increasing")
        # increasing knots are finite where both ends are
        if not (math.isfinite(knots[0]) and math.isfinite(knots[-1])
                and np.isfinite(values).all() and np.isfinite(slopes).all()):
            raise DomainError("spline data must be finite")
        power = float(power)
        if not (power >= 1.0 and math.isfinite(power)):
            raise DomainError("spline power must be >= 1")
        super().__init__(knots[0], knots[-1])
        self.knots = knots
        self.values = values
        self.slopes = slopes
        self.power = power
        self.gap_space = bool(gap_space)
        self._u_knots = uk = knots**power
        dudr = power * knots ** (power - 1.0)
        if knots[0] == 0.0 and power > 1.0:
            # du/dr = 0 there, so only a zero slope maps to a finite one
            if slopes[0] != 0.0:
                raise DomainError(
                    "a knot at r=0 with power > 1 requires zero slope")
            dudr[0] = math.inf
        us = slopes / dudr
        # per interval: its ends and width in u, then the Bezier control
        # points of the value and of h times its u-derivative, rows filled
        # in place
        n = knots.size - 1
        self._value_table = vt = np.empty((7, n))
        self._slope_table = st = np.empty((6, n))
        vt[0], vt[1] = uk[:-1], uk[1:]
        h = np.subtract(uk[1:], uk[:-1], out=vt[2])
        v0, v1, s0, s1 = values[:-1], values[1:], us[:-1], us[1:]
        vt[3], vt[6] = v0, v1
        vt[4], vt[5] = v0 + h * s0 / 3.0, v1 - h * s1 / 3.0
        st[:3] = vt[:3]
        np.multiply(h, s0, out=st[3])
        st[4] = 3.0 * (v1 - v0) - h * (s0 + s1)
        np.multiply(h, s1, out=st[5])
        ride = []
        if self.gap_space:
            # Python floats: the same IEEE operations as numpy scalars
            r, v, s = knots.tolist(), values.tolist(), us.tolist()
            w = h.tolist()
            for i in range(1, n):
                if s[i] != 0.0 or not v[i] > 0.0:
                    continue
                # each neighbour segment's quadratic coefficient in
                # d = |u - u_k| from its width, far value and far slope
                # along d
                for side, width, far, slope in (
                        (-1, w[i - 1], v[i - 1], -s[i - 1]),
                        (1, w[i], v[i + 1], s[i + 1])):
                    A = (3.0 * (far - v[i]) - width * slope) / width**2
                    if A > 0.0:
                        ride.append((r[i], side, math.sqrt(v[i] / A)))
        self.ride_knots = tuple(ride)

    def _interval(self, r, table):
        """The columns of table for the interval holding each r, in one
        gather, with the first two rows (the interval's ends u_lo, u_hi)
        turned into the weights t = (u - u_lo) / h and s = (u_hi - u) / h
        of u = r^power.  s is not 1 - t: next to u_hi that difference would
        keep only the absolute accuracy of t."""
        u = r**self.power
        # the interval index, clamped to the end intervals without a clip
        i = self._u_knots[1:-1].searchsorted(u, side="right")
        rows = table.take(i, axis=1)
        u_lo, u_hi, h = rows[0], rows[1], rows[2]
        rows[0] = (u - u_lo) / h
        rows[1] = (u_hi - u) / h
        return rows

    def mass_prime(self, r):
        # de Casteljau on the Bezier form of the quadratic h dv/du
        r = np.asarray(r, dtype=float)
        t, s, h, q0, q1, q2 = self._interval(r, self._slope_table)
        c0 = s * q0 + t * q1
        c1 = s * q1 + t * q2
        dv = (s * c0 + t * c1) / h
        dudr = self.power * r ** (self.power - 1.0)
        if self.gap_space:
            return 0.5 * dudr * (1.0 - dv)
        return dv * dudr

    def _slope_extremes(self):
        """The radii of the knots and of each segment's interior vertex.

        On a segment h dv/du is the quadratic with Bezier points q0, q1, q2,
        so its extremes lie at the ends or at its vertex
        t* = (q0 - q1) / (q0 - 2 q1 + q2).  These points hold the least
        dv/du of a value-space piece and the greatest dg/du of a gap-space
        one, where m_H' = du/dr (1 - dg/du) / 2; as du/dr > 0, m_H' read
        there shows whether it turns negative anywhere on the piece.
        """
        u_lo, _, h, q0, q1, q2 = self._slope_table
        with np.errstate(divide="ignore", invalid="ignore"):
            t = (q0 - q1) / (q0 - 2.0 * q1 + q2)
        inside = (t > 0.0) & (t < 1.0)
        u = u_lo[inside] + t[inside] * h[inside]
        return np.concatenate([self.knots, u ** (1.0 / self.power)])

    def _cell_control(self, u_a, u_b):
        """The Bezier control points of the cubic on each cell [u_a, u_b]
        (in u, inside one knot interval), as four rows.

        They are its blossom at (t_a^(3-j), t_b^j), from de Casteljau steps
        at t_a and t_b; the convex weights keep positive points positive.
        Whole knot intervals read the table.
        """
        i = np.searchsorted(self._u_knots[1:-1], 0.5 * (u_a + u_b),
                            side="right")
        rows = self._value_table.take(i, axis=1)
        u_lo, u_hi, h, ctrl = rows[0], rows[1], rows[2], rows[3:]
        if (u_a == u_lo).all() and (u_b == u_hi).all():
            return ctrl
        ta, sa = (u_a - u_lo) / h, (u_hi - u_a) / h
        tb, sb = (u_b - u_lo) / h, (u_hi - u_b) / h
        A = sa * ctrl[:-1] + ta * ctrl[1:]
        B = sb * ctrl[:-1] + tb * ctrl[1:]
        AA = sa * A[:-1] + ta * A[1:]
        AB = sb * A[:-1] + tb * A[1:]
        BB = sb * B[:-1] + tb * B[1:]
        return np.stack([sa * AA[0] + ta * AA[1], sb * AA[0] + tb * AA[1],
                         sb * AB[0] + tb * AB[1], sb * BB[0] + tb * BB[1]])

    def _cell_bounds(self, a, b, dimension):
        u_a, u_b = a**self.power, b**self.power
        c = self._cell_control(u_a, u_b)
        w = u_b - u_a
        # w times the control points of the cell's u-slope
        q = 3.0 * (c[1:] - c[:-1])
        # a cubic's control point j on the cell is its blossom at
        # (u_a^(3-j), u_b^j); for u itself, their mean
        x = np.where(_BLOSSOM_B, u_b, u_a)
        u = x.sum(axis=0) / 3.0
        if self.gap_space:
            # g is its own hull, and m_H = (u - g)/2
            mass = 0.5 * (u - c)
            return mass.max(axis=0), c.min(axis=0), q.min(axis=0) > 0.0
        # for e = 1, 2, 3 the wall r^(m-2) = u^e is a cubic too, whose
        # control points are the e-th elementary symmetric means of the
        # blossom's arguments, so the gap's own are exact
        e = (dimension - 2) / self.power
        if e == 1.0:
            wall = u
        elif e == 2.0:
            wall = (x[0] * x[1] + x[0] * x[2] + x[1] * x[2]) / 3.0
        elif e == 3.0:
            wall = x.prod(axis=0)
        else:
            # the wall lies above a line: its tangent at u_a where convex
            # (e > 1), its chord where concave
            wall_a = u_a**e
            slope = (e * u_a ** (e - 1.0) if e > 1.0
                     else (u_b**e - wall_a) / w)
            wall = wall_a + slope * (u - u_a)
        # the wall's least slope on the cell, at u_a or at u_b
        least = e * (u_a if e >= 1.0 else u_b) ** (e - 1.0)
        return (c.max(axis=0), (wall - 2.0 * c).min(axis=0),
                least * w > 2.0 * q.max(axis=0))

    def mass_and_gap(self, r, dimension):
        # de Casteljau on the Bezier form of the cubic: monotone Hermite
        # data between positive values have positive control points, so
        # the convex recursion keeps the relative error near machine
        # precision even where the cubic runs many orders of magnitude
        # below its coefficients (the near-wall regime of gap-space pieces)
        r = np.asarray(r, dtype=float)
        t, s, _, b0, b1, b2, b3 = self._interval(r, self._value_table)
        c0 = s * b0 + t * b1
        c1 = s * b1 + t * b2
        c2 = s * b2 + t * b3
        d0 = s * c0 + t * c1
        d1 = s * c1 + t * c2
        v = s * d0 + t * d1
        if self.gap_space:
            return 0.5 * (r**self.power - v), v
        return v, r ** (dimension - 2) - 2.0 * v

    def scaled(self, lam, dimension):
        scale_v = lam ** (dimension - 2)
        return CubicSplinePiece(
            self.knots * lam,
            self.values * scale_v,
            self.slopes * lam ** (dimension - 3),
            power=self.power,
            gap_space=self.gap_space,
        )


def _end_slope(h0, h1, m0, m1) -> float:
    """One-sided three-point slope at an end knot, clipped to keep shape."""
    d = ((2.0 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


def monotone_slopes(knots: Sequence[float], values: Sequence[float]) -> np.ndarray:
    """Shape-preserving knot slopes for monotone data (the PCHIP rule).

    An interior knot takes the weighted harmonic mean of its two secants, or
    0 where either secant vanishes or they change sign; an end knot takes the
    one-sided three-point estimate (Moler, Numerical Computing with MATLAB,
    sec. 3.6).  Two knots share their secant.
    """
    x = np.asarray(knots, dtype=float)
    y = np.asarray(values, dtype=float)
    if x.ndim != 1 or x.size < 2 or y.shape != x.shape:
        raise DomainError("monotone_slopes needs two or more knots and one "
                          "value per knot")
    h = np.diff(x)
    if not np.all(h > 0):
        raise DomainError("monotone_slopes needs strictly increasing knots")
    m = np.diff(y) / h
    if m.size == 1:
        return np.full(2, m[0])
    sign = np.sign(m)
    zero = (sign[1:] != sign[:-1]) | (m[1:] == 0) | (m[:-1] == 0)
    w1 = 2.0 * h[1:] + h[:-1]
    w2 = h[1:] + 2.0 * h[:-1]
    out = np.empty(x.size)
    # the entries that divide by a zero secant are the ones set to 0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        harmonic = (w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)
        out[1:-1] = np.where(zero, 0.0, 1.0 / harmonic)
    out[0] = _end_slope(h[0], h[1], m[0], m[1])
    out[-1] = _end_slope(h[-1], h[-2], m[-1], m[-2])
    return out


@dataclass(frozen=True)
class HawkingProfile:
    """A full admissibility-candidate profile on [r_min, infinity)."""

    dimension: int
    r_min: float
    pieces: tuple

    def __post_init__(self):
        object.__setattr__(self, "dimension", _dimension(self.dimension))
        if not (math.isfinite(self.r_min) and self.r_min >= 0.0):
            raise DomainError(f"r_min must be finite and >= 0, got {self.r_min}")
        pieces = tuple(self.pieces)
        object.__setattr__(self, "pieces", pieces)
        if not pieces:
            raise DomainError("profile needs at least one piece")
        starts = [p.r_lo for p in pieces]
        if any(b <= a for a, b in zip(starts, starts[1:])):
            raise DomainError("pieces must be ordered by strictly increasing r_lo")
        last = pieces[-1]
        if not (isinstance(last, ConstantPiece) and math.isinf(last.r_hi)):
            raise DomainError("final piece must be a constant on [r_tail, infinity)")
        for p in pieces:
            if isinstance(p, CubicSplinePiece) and p.gap_space:
                if p.power != self.dimension - 2:
                    raise DomainError(
                        "gap-space spline pieces require power == dimension - 2")

    @property
    def adm_mass(self) -> float:
        return self.pieces[-1].value

    @cached_property
    def _starts(self) -> np.ndarray:
        return np.array([p.r_lo for p in self.pieces])

    def _dispatch(self, arr: np.ndarray, rows: int, evaluate):
        """Evaluate at each radius of a 1-D float array by the piece holding
        it, with no range check: the public methods check their radii, and
        quadrature nodes lie in range by construction.

        ``evaluate(piece, radii)`` returns a tuple of ``rows`` arrays; the
        result is the tuple of those rows over all of arr.  A radius below
        the first piece reads that piece.

        Each piece reads one contiguous slice of the radii.  Radii that
        arrive grouped by piece, as a table round's do (its cells run in
        order and every piece end is a knot), are read in place; others are
        first put in piece order by a stable sort, and their rows scattered
        back.  A value depends on its radius alone, so both read the same.
        """
        starts = self._starts[1:]
        first = starts.searchsorted(arr.min(initial=math.inf), side="right")
        last = starts.searchsorted(arr.max(initial=-math.inf), side="right")
        if first == last:
            # one piece holds every radius: no slices, gathers or scatters
            return tuple(evaluate(self.pieces[first], arr))
        flat = arr.reshape(-1)
        idx = starts.searchsorted(flat, side="right")
        order = None
        if (idx[1:] < idx[:-1]).any():
            # a stable sort of the narrowest integers runs as a radix sort
            order = idx.astype(np.min_scalar_type(last)).argsort(kind="stable")
            idx, flat = idx[order], flat[order]
        out = np.empty((rows, flat.size))
        lo = 0
        ends = idx.searchsorted(np.arange(first, last + 1), side="right")
        for piece, hi in zip(self.pieces[first:], ends.tolist()):
            if hi > lo:
                for row, v in zip(out, evaluate(piece, flat[lo:hi])):
                    row[lo:hi] = v
            lo = hi
        if order is not None:
            # row by row: a scatter into a 2-D array is slower
            rows_in_order, out = out, np.empty_like(out)
            for row, v in zip(out, rows_in_order):
                row[order] = v
        return tuple(out.reshape((rows,) + arr.shape))

    def _checked(self, r, evaluate):
        """evaluate(radii) on r after the range check; floats for a scalar r."""
        arr, scalar = checked_range(r, self.r_min, math.inf, "radius")
        out = evaluate(arr)
        return tuple(float(v[0]) for v in out) if scalar else out

    def _mass_and_gap(self, r: np.ndarray):
        """mass_and_gap on a 1-D float array of radii in range, unchecked."""
        m = self.dimension
        return self._dispatch(r, 2, lambda piece, x: piece.mass_and_gap(x, m))

    def _mass_prime(self, r: np.ndarray):
        """(m_H',) on a 1-D float array of radii in range, unchecked."""
        return self._dispatch(r, 1, lambda piece, x: (piece.mass_prime(x),))

    def mass_and_gap(self, r):
        """m_H(r) and the wall gap r^(m-2) - 2 m_H(r), cancellation-free,
        from one pass over the pieces."""
        return self._checked(r, self._mass_and_gap)

    def mass(self, r):
        """Hawking mass m_H(r)."""
        return self.mass_and_gap(r)[0]

    def wall_gap(self, r):
        """r^(m-2) - 2 m_H(r), evaluated cancellation-free."""
        return self.mass_and_gap(r)[1]

    def mass_prime(self, r):
        """Radial derivative m_H'(r)."""
        return self._checked(r, self._mass_prime)[0]

    def scale(self, lam: float) -> "HawkingProfile":
        """Rescaled profile: m_H -> lam^(m-2) m_H(r/lam) on radii lam*r."""
        lam = positive(lam, "scale factor")
        return HawkingProfile(
            self.dimension,
            self.r_min * lam,
            tuple(p.scaled(lam, self.dimension) for p in self.pieces),
        )


@dataclass(frozen=True)
class ValidationIssue:
    code: str
    where: Optional[float]
    detail: str

    def __str__(self) -> str:
        loc = "" if self.where is None else f" at r={self.where:.6g}"
        return f"{self.code}{loc}: {self.detail}"


@dataclass(frozen=True)
class ValidationReport:
    issues: tuple

    @property
    def ok(self) -> bool:
        return not self.issues

    def __bool__(self) -> bool:
        return self.ok

    def __str__(self) -> str:
        if self.ok:
            return "valid"
        return "\n".join(str(i) for i in self.issues)


# relative tolerance for piece ends, C1 joints and the boundary identities,
# and the allowed undershoot of m_H' below zero relative to its scale; every
# rule scales with the values it compares, with no absolute floor
_IDENTITY_REL = 1e-9
_MONOTONE_SLACK = 1e-12


# the wall and exceeds-adm rules halve a piece's undecided cells at most
# _SPLITS times, with at most _CELLS of them pending at once
_SPLITS = 60
_CELLS = 4096


def _own_points(profile: HawkingProfile, i: int, at_min: int) -> np.ndarray:
    """Where piece i is read: first its start, the radius where the next
    piece takes over (or the start again), r_min on the piece that reads it
    (or the start again); then its end, its knots and its slope vertices.
    A constant tail ends a short stretch past its start: its gap rises
    with r, so the stretch holds its least gap."""
    pieces = profile.pieces
    piece = pieces[i]
    lo, hi = piece.r_lo, piece.r_hi
    joint = min(pieces[i + 1].r_lo, hi) if i + 1 < len(pieces) else lo
    if math.isinf(hi):
        hi = lo + max(lo, 1.0, 2.0 * profile.r_min)
    x = [lo, joint, profile.r_min if i == at_min else lo, hi]
    if isinstance(piece, CubicSplinePiece):
        return np.concatenate([x, piece._slope_extremes()])
    return np.array(x)


def _cell_issues(piece: ProfilePiece, profile: HawkingProfile, x, mh, gap):
    """The wall and exceeds-adm issues of one piece, from the closed-form
    bounds of its cells, given its reads (radii x, m_H, gap) at its own
    points.

    The cells start as the piece's knot intervals (its own span for other
    kinds); each round splits every undecided cell at its midpoint and
    reads the piece there.  An issue is reported only where a read value
    breaks the rule, or at a cell still undecided after _SPLITS halvings or
    with more than _CELLS pending.  A cell from r_min on may start on the
    wall: a gap that rises across it clears it, provided the gap at the
    piece's start meets the boundary identity's tolerance.
    """
    m = profile.dimension
    r_min = profile.r_min
    rel = _IDENTITY_REL
    cap = profile.adm_mass * (1.0 + rel) + _TINY
    knots = piece.knots if isinstance(piece, CubicSplinePiece) else x[[0, 3]]
    a, b = knots[:-1], knots[1:]
    on_wall = gap[0] >= -rel * piece.r_lo ** (m - 2)
    wall = over = None
    for level in range(_SPLITS + 1):
        if wall is None and not gap.min() > 0.0:
            live = x > r_min
            if (live & (gap <= 0.0)).any():
                j = int(np.argmin(np.where(live, gap, np.inf)))
                wall = ValidationIssue(
                    "admissible/wall", float(x[j]),
                    f"m_H meets or exceeds r^(m-2)/2 (gap={float(gap[j])!r})")
        if over is None and mh.max() > cap:
            j = int(np.argmax(mh))
            over = ValidationIssue(
                "admissible/exceeds-adm", float(x[j]),
                f"m_H={float(mh[j])!r} exceeds the ADM mass "
                f"{profile.adm_mass!r}")
        if wall is not None and over is not None:
            break
        mass_hi, gap_lo, rising = piece._cell_bounds(a, b, m)
        if ((wall is not None or gap_lo.min() > 0.0)
                and (over is not None or mass_hi.max() <= cap)):
            break
        wall_open = over_open = np.zeros(a.shape, dtype=bool)
        if wall is None:
            wall_open = ~((gap_lo > 0.0) | (rising & ((a > r_min) | on_wall)))
        if over is None:
            over_open = ~(mass_hi <= cap)
        pending = wall_open | over_open
        if not pending.any():
            break
        if level == _SPLITS or np.count_nonzero(pending) > _CELLS:
            if wall_open.any():
                j = int(np.argmin(np.where(wall_open, gap_lo, np.inf)))
                wall = ValidationIssue(
                    "admissible/wall", float(a[j]),
                    f"the wall gap is not shown positive on "
                    f"[{float(a[j])!r}, {float(b[j])!r}] (its bound reads "
                    f"{float(gap_lo[j])!r})")
            if over_open.any():
                j = int(np.argmax(np.where(over_open, mass_hi, -np.inf)))
                over = ValidationIssue(
                    "admissible/exceeds-adm", float(a[j]),
                    f"m_H is not shown at most the ADM mass "
                    f"{profile.adm_mass!r} on [{float(a[j])!r}, "
                    f"{float(b[j])!r}] (its bound reads "
                    f"{float(mass_hi[j])!r})")
            break
        a, b = a[pending], b[pending]
        x = 0.5 * (a + b)
        mh, gap = piece.mass_and_gap(x, m)
        a, b = np.concatenate([a, x]), np.concatenate([x, b])
    return [i for i in (wall, over) if i is not None]


def validate(profile: HawkingProfile) -> ValidationReport:
    """Check admissibility of a profile; returns a report of all violations.

    Every piece is read once at its own points (see _own_points), which
    serve the boundary identities, the joints and the monotone rule; the
    wall and exceeds-adm rules bound the piece on cells in closed form
    (see _cell_issues).  A non-finite value is reported, not warned of.
    """
    rel = _IDENTITY_REL
    m = profile.dimension
    adm = profile.adm_mass
    issues = []

    def add(code, where, detail):
        issues.append(ValidationIssue(code, where, detail))

    pieces = profile.pieces

    # structural coverage
    start = pieces[0].r_lo
    if abs(start - profile.r_min) > rel * max(start, profile.r_min):
        add("structure/start", start,
            f"first piece starts at {start}, expected r_min={profile.r_min}")
    for left, right in zip(pieces, pieces[1:]):
        a, b = left.r_hi, right.r_lo
        slack = rel * max(a, b)
        if b > a + slack:
            add("structure/gap", a, f"gap between pieces: [{a}, {b}] uncovered")
        elif b < a - slack:
            add("structure/overlap", b, f"pieces overlap on [{b}, {a}]")

    # one read per piece, (radii, m_H, gap, m_H') at its own points; r_min
    # is read by the piece HawkingProfile._dispatch gives it
    at_min = int(np.searchsorted(profile._starts[1:], profile.r_min,
                                 side="right"))
    reads = []
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for i, piece in enumerate(pieces):
            x = _own_points(profile, i, at_min)
            reads.append((x, *piece.mass_and_gap(x, m), piece.mass_prime(x)))

    # boundary condition, read at slot 2 of the piece holding r_min
    _, mh, _, mp = reads[at_min]
    v0 = float(mh[2])
    if profile.r_min > 0.0:
        w0 = 0.5 * profile.r_min ** (m - 2)
        if abs(v0 - w0) > rel * max(w0, _TINY):
            add("boundary/horizon-mismatch", profile.r_min,
                f"m_H(r_min)={v0!r} but the minimal-sphere condition needs {w0!r}")
        else:
            cap = 0.5 * (m - 2) * profile.r_min ** (m - 3)
            if float(mp[2]) >= (1.0 - 1e-9) * cap:
                add("boundary/osculating-horizon", profile.r_min,
                    "m_H' at the boundary equals the wall slope; the graph "
                    "function would not be integrable")
    elif abs(v0) > rel * adm:
        add("boundary/origin-mass", 0.0,
            f"m_H(0)={v0!r}, expected 0 for a boundaryless profile")

    # C1 joints: the left piece's slot 1 against the right piece's start
    for (_, mh_l, _, mp_l), (_, mh_r, _, mp_r), right in zip(
            reads, reads[1:], pieces[1:]):
        rj = right.r_lo
        vl, vr = float(mh_l[1]), float(mh_r[0])
        scale_v = max(abs(vl), abs(vr), adm, _TINY)
        if abs(vl - vr) > rel * scale_v:
            add("joint/value", rj, f"m_H jumps from {vl!r} to {vr!r}")
        sl, sr = float(mp_l[1]), float(mp_r[0])
        scale_s = max(abs(sl), abs(sr), adm / max(rj, _TINY), _TINY)
        if abs(sl - sr) > rel * scale_s:
            add("joint/slope", rj, f"m_H' jumps from {sl!r} to {sr!r}")

    # per piece: m_H' at the own points, which hold a spline's exact slope
    # extremes, then the cells
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for piece, (x, mh, gap, mp) in zip(pieces, reads):
            if not (np.isfinite(mh).all() and np.isfinite(mp).all()):
                add("numeric/nonfinite", piece.r_lo,
                    f"{piece.kind} piece produced a non-finite value")
                continue
            least = mp.min()
            if least < 0.0 and least < -_MONOTONE_SLACK * np.abs(mp).max():
                k = int(np.argmin(mp))
                add("monotone/negative-slope", float(x[k]),
                    f"m_H'={float(mp[k])!r} below the monotone slack")
            issues.extend(_cell_issues(piece, profile, x, mh, gap))

    return ValidationReport(tuple(issues))


# ---------------------------------------------------------------------------
# generators


def flat(dimension: int) -> HawkingProfile:
    """The Euclidean profile m_H = 0 on [0, infinity)."""
    return HawkingProfile(dimension, 0.0,
                          (ConstantPiece(0.0, math.inf, 0.0),))


def schwarzschild(dimension: int, mass: float) -> HawkingProfile:
    """Constant Hawking mass starting at the minimal sphere."""
    dimension = _dimension(dimension)
    mass = positive(mass, "schwarzschild mass")
    r_min = (2.0 * mass) ** (1.0 / (dimension - 2))
    return HawkingProfile(dimension, r_min,
                          (ConstantPiece(r_min, math.inf, mass),))


def deep_well_parameters(dimension: int, delta: float, alpha0: float,
                         L: float) -> dict:
    """Geometry of the deep-well construction, shared with its tests.

    All breakpoints live in the substituted variable xi = r^(m-2), where the
    admissibility wall xi/2 is affine.  The steep wall is a constant-gap ride
    xi - 2 m_H = g0 between xi_w0 and xi_r; g0 = eps^2 xi_w0 with eps chosen
    so the ride alone is at least 2.1 L deep.  A shallow well, with
    eps^2 >= 1/8 (L at most sqrt(7) r_eps / 4.2), would ride at a gap g0 no
    below the descent's g_p = xi_w0/8 and is refused.
    """
    m = _dimension(dimension)
    delta = positive(delta, "delta")
    alpha0 = positive(alpha0, "alpha0")
    L = positive(L, "well depth L")
    k = m - 2
    r0 = sphere_radius(alpha0, m)
    delta_prime = min(0.5 * delta, 0.5 * r0**k)

    xi_r = 1.75 * delta_prime
    r_r = xi_r ** (1.0 / k)
    t = 4.2 * L / r_r
    eps = min(0.5, 1.0 / math.hypot(1.0, t))
    xi_w0 = xi_r / (1.1 * 2.0**k)
    g0 = eps * eps * xi_w0

    g_p = xi_w0 / 8.0
    if not g0 < g_p:
        raise DomainError(
            f"deep well too shallow: delta={delta!r}, L={L!r} and "
            f"r_eps={r_r!r} give eps^2={eps * eps!r} >= 1/8; L must exceed "
            f"sqrt(7) r_eps / 4.2 = {math.sqrt(7.0) * r_r / 4.2!r}")
    w_b = 2.0 * (g_p - g0)
    xi_p = xi_w0 - w_b
    xi_t = 4.0 * delta_prime + 2.0 * g0 - xi_r

    r_min = 0.25 * r_r
    xi_min = r_min**k
    xi_a = g_p + xi_min

    return {
        "dimension": m,
        "delta_prime": delta_prime,
        "r0": r0,
        "eps": eps,
        "g0": g0,
        "g_p": g_p,
        "xi_min": xi_min,
        "xi_a": xi_a,
        "xi_p": xi_p,
        "xi_w0": xi_w0,
        "xi_r": xi_r,
        "xi_t": xi_t,
        "r_min": r_min,
        "r_eps": r_r,
        "depth_bound": 0.5 * r_r * math.sqrt(1.0 - eps * eps) / eps,
    }


def _fc_monotone_ok(v0, v1, s0, s1, width) -> bool:
    """Sufficient Fritsch-Carlson box test for a monotone Hermite segment."""
    rise = v1 - v0
    if rise < 0 or s0 < 0 or s1 < 0:
        return False
    if rise == 0:
        return s0 == 0 and s1 == 0
    secant = rise / width
    return s0 <= 3.0 * secant and s1 <= 3.0 * secant


def deep_well(dimension: int, delta: float, alpha0: float, L: float,
              with_boundary: bool = True) -> HawkingProfile:
    """A profile whose symmetric spheres of area < alpha0 sit below a wall
    so steep that the sphere of area alpha0 is at least L deep inside.

    adm_mass = min(delta/2, r0^(m-2)/2) with r0 the radius of the alpha0
    sphere, so the output stays within any mass budget delta while the well
    depth is unconstrained.
    """
    p = deep_well_parameters(dimension, delta, alpha0, L)
    m = p["dimension"]
    k = m - 2
    dp = p["delta_prime"]
    g0, g_p = p["g0"], p["g_p"]
    xi_p, xi_w0, xi_r, xi_t = p["xi_p"], p["xi_w0"], p["xi_r"], p["xi_t"]

    def radius(xi):
        return xi ** (1.0 / k)

    r_p, r_w0, r_r, r_t = (radius(x) for x in (xi_p, xi_w0, xi_r, xi_t))
    v_p = 0.5 * (xi_p - g_p)

    # the core carries descent (gap g_p -> g0), the constant-gap ride, and the
    # release that lands exactly on m_H = delta_prime with zero slope; the
    # closed forms are quadratics in xi reproduced exactly by the Hermite
    core = CubicSplinePiece(
        knots=[r_p, r_w0, r_r, r_t],
        values=[g_p, g0, g0, g0 + 0.5 * (xi_t - xi_r)],
        slopes=[-1.0 * k * r_p ** (k - 1), 0.0, 0.0, 1.0 * k * r_t ** (k - 1)],
        power=k,
        gap_space=True,
    )
    tail = ConstantPiece(r_t, math.inf, dp)

    if with_boundary:
        r_min = p["r_min"]
        xi_min = p["xi_min"]
        xi_a = p["xi_a"]
        r_a = radius(xi_a)
        head = ConstantPiece(r_min, r_a, 0.5 * xi_min)
        # convex rise from slope 0 to slope 1 (in xi) with secant 1/2; the
        # curve stays below its chord, whose wall gap is the constant g_p
        rise = CubicSplinePiece(
            knots=[r_a, r_p],
            values=[0.5 * xi_min, v_p],
            slopes=[0.0, 1.0 * k * r_p ** (k - 1)],
            power=k,
        )
        pieces = (head, rise, core, tail)
    else:
        # the head m_H = c xi meets a Hermite fillet in xi on [xi_f, xi_p],
        # xi_f = 3/4 xi_p, with end slopes c and 1 and secant c.  As g_p =
        # xi_w0/8, xi_p = 3/4 xi_w0 + 2 g0 and 0 < g0 <= xi_w0/4, c = v_p/xi_p
        # lies in (5/12, 9/20], inside the Fritsch-Carlson box.  The fillet
        # is c xi - h (1 - c) t^2 (1 - t) <= c xi, with h = xi_p - xi_f and
        # t = (xi - xi_f)/h, so its wall gap is at least (1 - 2c) xi_f.
        r_min = 0.0
        c = v_p / xi_p
        xi_f = 0.75 * xi_p
        r_f = radius(xi_f)
        fillet = CubicSplinePiece(
            knots=[r_f, r_p],
            values=[c * xi_f, v_p],
            slopes=[c * k * r_f ** (k - 1), 1.0 * k * r_p ** (k - 1)],
            power=k,
        )
        head = PowerLawPiece(0.0, r_f, c, k)
        pieces = (head, fillet, core, tail)
    return HawkingProfile(m, r_min, pieces)


def stripes(radii: Iterable[float], delta: float,
            dimension: int = 3) -> HawkingProfile:
    """A 3-dimensional profile with round-sphere stripes.

    ``radii`` lists consecutive pairs (r_1, r_2), (r_3, r_4), ...; inside each
    pair the profile runs along the sphere curve m_H = K_j r^3/2 with
    K_j = 2 min(r_2j/2, delta)/r_2j^3, so every stripe carries constant
    positive sectional curvature.  The head from the origin and every
    stretch along a sphere curve are power-law pieces with coefficient K_j/2
    and exponent 3.  The ADM mass stays below delta.  A dimension other than
    3 is refused rather than ignored.
    """
    if dimension != 3:
        raise DomainError(f"stripes are 3-dimensional only, got dimension "
                          f"{dimension!r}")
    radii = [positive(r, "stripe radius") for r in radii]
    if len(radii) < 2 or len(radii) % 2 != 0:
        raise DomainError("stripes needs an even number of radii, at least 2")
    if any(b <= a for a, b in zip(radii, radii[1:])):
        raise DomainError("stripe radii must be strictly increasing")
    delta = positive(delta, "delta")
    if radii[0] < 0.5 * delta:
        raise DomainError("stripe radii must be at least delta/2")

    def h(r):
        return min(0.5 * r, delta)

    count = len(radii) // 2
    curvatures = []
    for j in range(count):
        r_out = radii[2 * j + 1]
        curvatures.append(2.0 * h(r_out) / r_out**3)

    def curve(K, r):
        return 0.5 * K * r**3

    def curve_slope(K, r):
        return 1.5 * K * r**2

    pieces = []
    a = radii[0]
    # head: follow the first sphere curve from the origin
    pieces.append(PowerLawPiece(0.0, a, 0.5 * curvatures[0], 3.0))

    for j in range(count):
        K = curvatures[j]
        r_out = radii[2 * j + 1]
        b = 0.5 * (a + r_out)
        pieces.append(PowerLawPiece(a, b, 0.5 * K, 3.0))
        if j + 1 == count:
            break
        K_next = curvatures[j + 1]
        if not K_next < K:
            raise DomainError("stripe curvatures must decrease outward")
        v_b = curve(K, b)
        s_b = curve_slope(K, b)
        r_out_next = radii[2 * j + 3]
        # a shoulder eases the stripe slope down to a plateau (keeping m_H
        # C1), and the plateau meets the next sphere curve near r_x; both
        # widths shrink together until the joint fits
        w1 = 0.25 * b
        joined = False
        while w1 >= 1e-9 * b and not joined:
            v_p = v_b + 0.5 * s_b * w1
            r_x = (2.0 * v_p / K_next) ** (1.0 / 3.0)
            w = min(r_x - (b + w1), r_out_next - r_x, 0.25 * r_x) / 2.0
            while w > 1e-9 * r_x:
                lo, hi = r_x - w, r_x + w
                v_hi = curve(K_next, hi)
                s_hi = curve_slope(K_next, hi)
                if (_fc_monotone_ok(v_p, v_hi, 0.0, s_hi, hi - lo)
                        and v_hi < 0.45 * lo and v_p < 0.45 * b):
                    joined = True
                    break
                w *= 0.5
            if not joined:
                w1 *= 0.5
        if not joined:
            raise DomainError("stripes construction failed to join "
                              f"stripes after r={b:.6g}")
        pieces.append(CubicSplinePiece(
            knots=[b, b + w1], values=[v_b, v_p], slopes=[s_b, 0.0]))
        if lo > b + w1:
            pieces.append(ConstantPiece(b + w1, lo, v_p))
        pieces.append(CubicSplinePiece(
            knots=[lo, hi], values=[v_p, v_hi], slopes=[0.0, s_hi]))
        a_next = max(radii[2 * j + 2], hi)
        if a_next > hi:
            pieces.append(PowerLawPiece(hi, a_next, 0.5 * K_next, 3.0))
        a = a_next

    # tail: flatten the last sphere curve to a constant below delta
    K_last = curvatures[-1]
    b_last = pieces[-1].r_hi
    v_last = curve(K_last, b_last)
    s_last = curve_slope(K_last, b_last)
    w = 0.25 * b_last
    while True:
        v_tail = v_last + 0.5 * s_last * w
        if v_tail < delta and v_tail < 0.45 * b_last:
            break
        w *= 0.5
        if w < 1e-12 * b_last:
            raise DomainError("stripes tail could not stay below delta")
    pieces.append(CubicSplinePiece(
        knots=[b_last, b_last + w], values=[v_last, v_tail],
        slopes=[s_last, 0.0]))
    pieces.append(ConstantPiece(b_last + w, math.inf, v_tail))

    return HawkingProfile(3, 0.0, tuple(pieces))
