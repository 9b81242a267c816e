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
values.  Every piece therefore exposes the gap through a dedicated
``wall_gap`` channel; cubic-spline pieces may be parametrized directly by the
gap function, in which case m_H is the derived quantity.
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
    "StripePiece",
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


def unit_sphere_area(dimension: int) -> float:
    """Surface area of the unit (m-1)-sphere in Euclidean m-space."""
    m = dimension
    if not isinstance(m, (int, np.integer)) or m < 2:
        raise DomainError(f"dimension must be an integer >= 2, got {m!r}")
    return 2.0 * math.pi ** (m / 2.0) / math.gamma(m / 2.0)


def sphere_radius(area: float, dimension: int) -> float:
    """Radius of the round Euclidean sphere of the given area."""
    return (area / unit_sphere_area(dimension)) ** (1.0 / (dimension - 1))


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

    def mass(self, r: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def mass_prime(self, r: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def wall_gap(self, r: np.ndarray, dimension: int) -> np.ndarray:
        """r^(m-2) - 2 m_H(r), overridable for cancellation-free forms."""
        return r ** (dimension - 2) - 2.0 * self.mass(r)

    def scaled(self, lam: float, dimension: int) -> "ProfilePiece":
        raise NotImplementedError

    def params(self) -> dict:
        """Kind-specific parameters for serialization."""
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

    def mass(self, r):
        return np.full_like(np.asarray(r, dtype=float), self.value)

    def mass_prime(self, r):
        return np.zeros_like(np.asarray(r, dtype=float))

    def wall_gap(self, r, dimension):
        k = dimension - 2
        r = np.asarray(r, dtype=float)
        xi_lo = self.r_lo ** k
        if abs(xi_lo - 2.0 * self.value) <= 1e-9 * max(xi_lo, _TINY):
            # the piece starts on the wall (minimal boundary sphere); treat
            # the touch as exact and factor r^k - r_lo^k so the gap keeps
            # full relative accuracy arbitrarily close to r_lo
            poly = sum(r**j * self.r_lo ** (k - 1 - j) for j in range(k))
            return (r - self.r_lo) * poly
        return super().wall_gap(r, dimension)

    def scaled(self, lam, dimension):
        return ConstantPiece(self.r_lo * lam, self.r_hi * lam, self.value * lam ** (dimension - 2))

    def params(self):
        return {"value": self.value}


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

    def mass(self, r):
        return self.coefficient * np.asarray(r, dtype=float) ** self.exponent

    def mass_prime(self, r):
        r = np.asarray(r, dtype=float)
        p = self.exponent
        return self.coefficient * p * r ** (p - 1.0)

    def wall_gap(self, r, dimension):
        r = np.asarray(r, dtype=float)
        xi = r ** (dimension - 2)
        if self.exponent == dimension - 2:
            # the near-wall case; (1 - 2c) keeps full precision as c -> 1/2
            return (1.0 - 2.0 * self.coefficient) * xi
        return xi - 2.0 * self.coefficient * r ** self.exponent

    def scaled(self, lam, dimension):
        c = self.coefficient * lam ** (dimension - 2 - self.exponent)
        return PowerLawPiece(self.r_lo * lam, self.r_hi * lam, c, self.exponent)

    def params(self):
        return {"coefficient": self.coefficient, "exponent": self.exponent}


class StripePiece(ProfilePiece):
    """m_H(r) = K r^3 / 2: a slice of the round 3-sphere of radius K^(-1/2)."""

    kind = "stripe"
    __slots__ = ("curvature",)

    def __init__(self, r_lo: float, r_hi: float, curvature: float):
        super().__init__(r_lo, r_hi)
        self.curvature = float(curvature)
        if not (self.curvature > 0.0 and math.isfinite(self.curvature)):
            raise DomainError("stripe curvature must be positive")

    def mass(self, r):
        r = np.asarray(r, dtype=float)
        return 0.5 * self.curvature * r**3

    def mass_prime(self, r):
        r = np.asarray(r, dtype=float)
        return 1.5 * self.curvature * r**2

    def wall_gap(self, r, dimension):
        r = np.asarray(r, dtype=float)
        # only valid in dimension 3, where xi = r
        return r * (1.0 - self.curvature * r**2)

    def scaled(self, lam, dimension):
        return StripePiece(self.r_lo * lam, self.r_hi * lam, self.curvature / lam**2)

    def params(self):
        return {"curvature": self.curvature}


def _lerp(a, b, t):
    # convex form: no cancellation when a and b share a sign
    return (1.0 - t) * a + t * b


def _hermite(t, h, v0, v1, s0, s1):
    """Cubic Hermite value on [0,1] via de Casteljau on the Bezier form.

    Monotone Hermite data between positive values have positive control
    points, so the convex recursion keeps the relative error near machine
    precision even where the cubic runs many orders of magnitude below its
    coefficients (the near-wall regime of gap-space pieces).
    """
    b1 = v0 + h * s0 / 3.0
    b2 = v1 - h * s1 / 3.0
    c0 = _lerp(v0, b1, t)
    c1 = _lerp(b1, b2, t)
    c2 = _lerp(b2, v1, t)
    return _lerp(_lerp(c0, c1, t), _lerp(c1, c2, t), t)


def _hermite_du(t, h, v0, v1, s0, s1):
    """Derivative of the cubic Hermite with respect to u."""
    q0 = h * s0
    q1 = 3.0 * (v1 - v0) - h * (s0 + s1)
    q2 = h * s1
    return _lerp(_lerp(q0, q1, t), _lerp(q1, q2, t), t) / h


class CubicSplinePiece(ProfilePiece):
    """Hermite cubic in the substituted variable u = r^power.

    With ``gap_space=False`` the knot data are (m_H values, d m_H / dr).
    With ``gap_space=True`` the knot data describe g(u) = r^(m-2) - 2 m_H(r)
    instead, which keeps near-wall profiles exact; the power must then equal
    m - 2 (checked when the piece is attached to a profile).
    """

    kind = "cubic-spline"
    __slots__ = ("knots", "values", "slopes", "power", "gap_space",
                 "_u_knots", "_u_slopes")

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
        if not np.all(np.diff(knots) > 0):
            raise DomainError("spline knots must be strictly increasing")
        if not (np.all(np.isfinite(knots)) and np.all(np.isfinite(values))
                and np.all(np.isfinite(slopes))):
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
        self._u_knots = knots**power
        dudr = power * knots ** (power - 1.0)
        if knots[0] == 0.0 and power > 1.0:
            # du/dr = 0 there, so only a zero slope maps to a finite one
            if slopes[0] != 0.0:
                raise DomainError(
                    "a knot at r=0 with power > 1 requires zero slope")
            dudr[0] = math.inf
        self._u_slopes = slopes / dudr

    def _segment(self, r):
        r = np.asarray(r, dtype=float)
        u = r**self.power
        uk = self._u_knots
        i = np.clip(np.searchsorted(uk, u, side="right") - 1, 0, uk.size - 2)
        h = uk[i + 1] - uk[i]
        t = (u - uk[i]) / h
        return i, h, t

    def _eval(self, r):
        i, h, t = self._segment(r)
        v = _hermite(t, h, self.values[i], self.values[i + 1],
                     self._u_slopes[i], self._u_slopes[i + 1])
        return v

    def _eval_du(self, r):
        i, h, t = self._segment(r)
        return _hermite_du(t, h, self.values[i], self.values[i + 1],
                           self._u_slopes[i], self._u_slopes[i + 1])

    def _dudr(self, r):
        r = np.asarray(r, dtype=float)
        return self.power * r ** (self.power - 1.0)

    def mass(self, r):
        if self.gap_space:
            r = np.asarray(r, dtype=float)
            return 0.5 * (r**self.power - self._eval(r))
        return self._eval(r)

    def mass_prime(self, r):
        if self.gap_space:
            return 0.5 * self._dudr(r) * (1.0 - self._eval_du(r))
        return self._eval_du(r) * self._dudr(r)

    def wall_gap(self, r, dimension):
        if self.gap_space:
            return self._eval(r)
        return super().wall_gap(r, dimension)

    def scaled(self, lam, dimension):
        scale_v = lam ** (dimension - 2)
        return CubicSplinePiece(
            self.knots * lam,
            self.values * scale_v,
            self.slopes * lam ** (dimension - 3),
            power=self.power,
            gap_space=self.gap_space,
        )

    def params(self):
        out = {"knots": [float(x) for x in self.knots], "power": self.power}
        if self.gap_space:
            out["gap_values"] = [float(x) for x in self.values]
            out["gap_slopes"] = [float(x) for x in self.slopes]
        else:
            out["values"] = [float(x) for x in self.values]
            out["slopes"] = [float(x) for x in self.slopes]
        return out


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
        if not isinstance(self.dimension, (int, np.integer)) or self.dimension < 3:
            raise DomainError(f"dimension must be an integer >= 3, got {self.dimension!r}")
        object.__setattr__(self, "dimension", int(self.dimension))
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

    def _dispatch(self, r, method: str, dimension_arg: bool = False):
        arr, scalar = checked_range(r, self.r_min, math.inf, "radius")
        out = np.empty_like(arr)
        idx = np.clip(np.searchsorted(self._starts, arr, side="right") - 1,
                      0, len(self.pieces) - 1)
        for k, piece in enumerate(self.pieces):
            sel = idx == k
            if np.any(sel):
                fn = getattr(piece, method)
                if dimension_arg:
                    out[sel] = fn(arr[sel], self.dimension)
                else:
                    out[sel] = fn(arr[sel])
        return float(out[0]) if scalar else out

    def mass(self, r):
        """Hawking mass m_H(r)."""
        return self._dispatch(r, "mass")

    def mass_prime(self, r):
        """Radial derivative m_H'(r)."""
        return self._dispatch(r, "mass_prime")

    def wall_gap(self, r):
        """r^(m-2) - 2 m_H(r), evaluated cancellation-free."""
        return self._dispatch(r, "wall_gap", dimension_arg=True)

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


# relative tolerance for C1 joints and the boundary identities, and the
# allowed undershoot of m_H' below zero relative to its scale
_IDENTITY_REL = 1e-9
_MONOTONE_SLACK = 1e-12


def _piece_samples(piece: ProfilePiece, profile: HawkingProfile, n: int) -> np.ndarray:
    a = piece.r_lo
    b = piece.r_hi
    if math.isinf(b):
        # admissibility on a constant tail is worst at its left end; a short
        # stretch is enough to catch a tail placed above the wall
        b = a + max(a, 1.0, 2.0 * profile.r_min)
    xs = [np.linspace(a, b, n)]
    if a > 0 and b / a > 10.0:
        xs.append(np.geomspace(a, b, n // 2))
    elif a == 0.0:
        xs.append(b * np.linspace(0.0, 1.0, n // 2) ** 2)
    if a == profile.r_min:
        # cluster near the boundary where admissibility is tight
        xs.append(a + (b - a) * np.linspace(0.0, 1.0, n // 4) ** 2)
    out = np.unique(np.concatenate(xs))
    return out


def validate(profile: HawkingProfile) -> ValidationReport:
    """Check admissibility of a profile; returns a report of all violations."""
    rel = _IDENTITY_REL
    m = profile.dimension
    adm = profile.adm_mass
    issues = []

    def add(code, where, detail):
        issues.append(ValidationIssue(code, where, detail))

    pieces = profile.pieces

    # structural coverage
    start = pieces[0].r_lo
    if abs(start - profile.r_min) > rel * max(1.0, profile.r_min):
        add("structure/start", start,
            f"first piece starts at {start}, expected r_min={profile.r_min}")
    for left, right in zip(pieces, pieces[1:]):
        a, b = left.r_hi, right.r_lo
        slack = rel * max(1.0, abs(a))
        if b > a + slack:
            add("structure/gap", a, f"gap between pieces: [{a}, {b}] uncovered")
        elif b < a - slack:
            add("structure/overlap", b, f"pieces overlap on [{b}, {a}]")
    for piece in pieces:
        if isinstance(piece, StripePiece) and m != 3:
            add("structure/stripe-dimension", piece.r_lo,
                "stripe pieces are only defined in dimension 3")

    # boundary condition
    if profile.r_min > 0.0:
        v0 = float(profile.mass(profile.r_min))
        w0 = 0.5 * profile.r_min ** (m - 2)
        if abs(v0 - w0) > rel * max(w0, _TINY):
            add("boundary/horizon-mismatch", profile.r_min,
                f"m_H(r_min)={v0!r} but the minimal-sphere condition needs {w0!r}")
        else:
            s0 = float(profile.mass_prime(profile.r_min))
            cap = 0.5 * (m - 2) * profile.r_min ** (m - 3)
            if s0 >= (1.0 - 1e-9) * cap:
                add("boundary/osculating-horizon", profile.r_min,
                    "m_H' at the boundary equals the wall slope; the graph "
                    "function would not be integrable")
    else:
        v0 = float(profile.mass(0.0))
        if abs(v0) > rel * max(adm, 1.0e-12):
            add("boundary/origin-mass", 0.0,
                f"m_H(0)={v0!r}, expected 0 for a boundaryless profile")

    # C1 joints
    for left, right in zip(pieces, pieces[1:]):
        rj = right.r_lo
        vl = float(left.mass(np.array([min(rj, left.r_hi)]))[0])
        vr = float(right.mass(np.array([rj]))[0])
        scale_v = max(abs(vl), abs(vr), adm, _TINY)
        if abs(vl - vr) > rel * scale_v:
            add("joint/value", rj, f"m_H jumps from {vl!r} to {vr!r}")
        sl = float(left.mass_prime(np.array([min(rj, left.r_hi)]))[0])
        sr = float(right.mass_prime(np.array([rj]))[0])
        scale_s = max(abs(sl), abs(sr), adm / max(rj, _TINY), _TINY)
        if abs(sl - sr) > rel * scale_s:
            add("joint/slope", rj, f"m_H' jumps from {sl!r} to {sr!r}")

    # per-piece sampling
    for piece in pieces:
        xs = _piece_samples(piece, profile, 1024)
        mh = piece.mass(xs)
        mp = piece.mass_prime(xs)
        gap = piece.wall_gap(xs, m)
        if not (np.all(np.isfinite(mh)) and np.all(np.isfinite(mp))):
            add("numeric/nonfinite", piece.r_lo,
                f"{piece.kind} piece produced a non-finite value")
            continue
        slope_scale = max(1.0, float(np.max(np.abs(mp)))) if mp.size else 1.0
        neg = mp < -_MONOTONE_SLACK * slope_scale
        if np.any(neg):
            k = int(np.argmin(mp))
            add("monotone/negative-slope", float(xs[k]),
                f"m_H'={float(mp[k])!r} below the monotone slack")
        interior = xs > profile.r_min
        bad = interior & (gap <= 0.0)
        if np.any(bad):
            k = int(np.argmin(np.where(interior, gap, np.inf)))
            add("admissible/wall", float(xs[k]),
                f"m_H meets or exceeds r^(m-2)/2 (gap={float(gap[k])!r})")
        over = mh > adm * (1.0 + rel) + _TINY
        if np.any(over):
            k = int(np.argmax(mh))
            add("admissible/exceeds-adm", float(xs[k]),
                f"m_H={float(mh[k])!r} exceeds the ADM mass {adm!r}")

    return ValidationReport(tuple(issues))


# ---------------------------------------------------------------------------
# generators


def flat(dimension: int) -> HawkingProfile:
    """The Euclidean profile m_H = 0 on [0, infinity)."""
    return HawkingProfile(dimension, 0.0,
                          (ConstantPiece(0.0, math.inf, 0.0),))


def schwarzschild(dimension: int, mass: float) -> HawkingProfile:
    """Constant Hawking mass starting at the minimal sphere."""
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
    so the ride alone is at least 2.1 L deep.
    """
    m = int(dimension)
    if m < 3:
        raise DomainError("dimension must be >= 3")
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
        profile = HawkingProfile(m, r_min, pieces)
    else:
        c = v_p / xi_p
        shrink = 0.75
        while True:
            xi_f = shrink * xi_p
            r_f = radius(xi_f)
            width = xi_p - xi_f
            v_f = c * xi_f
            ok = _fc_monotone_ok(v_f, v_p, c, 1.0, width)
            if ok:
                # numeric wall-margin check on the fillet itself
                fillet = CubicSplinePiece(
                    knots=[r_f, r_p],
                    values=[v_f, v_p],
                    slopes=[c * k * r_f ** (k - 1), 1.0 * k * r_p ** (k - 1)],
                    power=k,
                )
                rs = np.linspace(r_f, r_p, 257)
                if np.all(fillet.wall_gap(rs, m) > 0.2 * (1.0 - 2.0 * c) * xi_f):
                    break
            shrink = 0.5 * (shrink + 1.0)
            if 1.0 - shrink < 1e-6:
                raise DomainError("deep well construction failed to place "
                                  "its origin fillet")
        head = PowerLawPiece(0.0, r_f, c, k)
        pieces = (head, fillet, core, tail)
        profile = HawkingProfile(m, 0.0, pieces)

    return profile


def stripes(radii: Iterable[float], delta: float) -> HawkingProfile:
    """A 3-dimensional profile with round-sphere stripes.

    ``radii`` lists consecutive pairs (r_1, r_2), (r_3, r_4), ...; inside each
    pair the profile runs along the sphere curve m_H = K_j r^3/2 with
    K_j = 2 min(r_2j/2, delta)/r_2j^3, so every stripe carries constant
    positive sectional curvature.  The ADM mass stays below delta.
    """
    radii = [float(r) for r in radii]
    if len(radii) < 2 or len(radii) % 2 != 0:
        raise DomainError("stripes needs an even number of radii, at least 2")
    if any(r <= 0 for r in radii):
        raise DomainError("stripe radii must be positive")
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
        pieces.append(StripePiece(a, b, K))
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
