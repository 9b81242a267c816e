"""Certified upper bounds on the intrinsic flat distance to Euclidean space.

The tubular neighborhood of the alpha0 sphere is compared with the same tube
in flat space by cutting away a small-area core (the well cut), filling the
region between the graph and the annulus, and collecting the volumes of every
excess region.  The certificate stores the table-read volume of each
region together with the coarser closed-form over-bounds, and the budget
solver inverts the construction: given a target epsilon it produces a delta
such that any admissible profile with ADM mass below delta certifies at
epsilon.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, NamedTuple, Optional

from .embedding import _budget_distortion, _measured_constants, q_slope
from .errors import CertificateError, positive
from .geometry import (ManifoldModel, TubularWindow, euclidean_annulus_volume,
                       tubular_window)
from .profiles import _dimension, sphere_radius, unit_sphere_area

__all__ = [
    "WellCut",
    "well_cut",
    "FlatCertificate",
    "flat_certificate",
    "switch_bounds",
    "DeltaBudget",
    "delta_budget",
]


def _power(x: float, p: float) -> float:
    """x ** p, or +inf where that overflows the double range."""
    try:
        return x ** p
    except OverflowError:
        return math.inf


class WellCut(NamedTuple):
    alpha_eps: float
    r_eps_prime: float


def well_cut(epsilon: float, D: float, alpha0: float, m: int) -> WellCut:
    """Cut area small enough that everything below it is negligible.

    alpha_eps = min(eps/(16 D), (omega eps / 8)^(m/(m-1)), alpha0), and
    r_eps_prime is the Euclidean radius of a sphere with that area.  The
    middle term reads +inf where it overflows, as alpha0 then binds.
    """
    epsilon = positive(epsilon, "epsilon")
    D = positive(D, "D")
    alpha0 = positive(alpha0, "alpha0")
    m = _dimension(m)
    omega = unit_sphere_area(m)
    alpha_eps = min(epsilon / (16.0 * D),
                    _power(omega * epsilon / 8.0, m / (m - 1.0)),
                    alpha0)
    r_eps_prime = sphere_radius(alpha_eps, m)
    return WellCut(alpha_eps=alpha_eps, r_eps_prime=r_eps_prime)


@dataclass(frozen=True)
class FlatCertificate:
    """Region-volume breakdown of the flat-distance upper bound."""

    epsilon: float
    D: float
    alpha0: float
    dimension: int
    mass: float
    r0: float
    r_minus: float
    r_plus: float
    alpha_eps: float
    r_eps_prime: float
    r_eps: float
    a2_variant: str
    vol_A0: float
    vol_A1: float
    vol_A2: float
    vol_A31: float
    vol_A32: float
    vol_A33: float
    vol_B1: float
    vol_B2: float
    C_M: float
    S_M: float
    total: float
    total_scalable: float
    bounds: dict = field(compare=False)

    def volumes(self) -> dict:
        return {"A0": self.vol_A0, "A1": self.vol_A1, "A2": self.vol_A2,
                "A31": self.vol_A31, "A32": self.vol_A32, "A33": self.vol_A33,
                "B1": self.vol_B1, "B2": self.vol_B2}


def _delta_eff(adm: float, xi_eps: float) -> Optional[float]:
    """A mass level separating the profile tail from the wall at r_eps.

    Needs adm <= delta_eff and 2 delta_eff < xi_eps for the closed-form
    slope chains to apply; None when the ADM mass leaves no room.
    """
    if adm == 0.0:
        return 0.0
    if 4.0 * adm < xi_eps:
        return 2.0 * adm
    if adm < 0.5 * xi_eps:
        return 0.5 * (adm + 0.5 * xi_eps)
    return None


def flat_certificate(model: ManifoldModel, alpha0: float, D: float,
                     epsilon: float) -> FlatCertificate:
    """Assemble the flat-distance certificate for the (alpha0, D) tube.

    The window's radii come from tubular_window, and every integral the
    certificate reads from one read of the model's table, with no
    quadrature (ManifoldModel._window_volumes): the region volumes, and the
    rise of F and the strip length behind the embedding constants, which
    equal embedding_constant_bound(model, r_eps, r_plus) bit for bit.
    """
    epsilon = positive(epsilon, "epsilon")
    m = model.dimension
    omega = model.omega
    window = tubular_window(model, alpha0, D)
    cut = well_cut(epsilon, D, alpha0, m)
    deep = cut.r_eps_prime > window.r_minus
    r_eps = max(cut.r_eps_prime, window.r_minus)
    r_plus = window.r_plus

    inner = max(window.r0 - D, 0.0)
    # one table read; the deep shell [r_minus, r_eps] is empty unless the
    # cut lies inside the window
    shell, vol_b1, vol_a1, rise, strip = model._window_volumes(
        window.r_minus, r_eps, r_plus)
    consts = _measured_constants(model, r_eps, r_plus, rise, strip)
    s_m, c_m = consts.S_M, consts.C_M_bound
    vol_a2 = euclidean_annulus_volume(m, inner, r_eps)
    vol_a0 = euclidean_annulus_volume(m, r_plus, window.r0 + D)
    vol_b2 = s_m * shell
    vol_a31 = s_m * omega * r_plus ** (m - 1)
    vol_a32 = s_m * omega * r_eps ** (m - 1)
    vol_a33 = omega * r_plus ** (m - 1) * consts.delta_F

    vol_a = vol_a0 + vol_a1 + vol_a2 + vol_a31 + vol_a32 + vol_a33
    vol_b = vol_b1 + vol_b2
    total = vol_a + vol_b
    total_scalable = vol_b ** (1.0 / (m + 1)) + vol_a ** (1.0 / m)

    adm = model.adm_mass
    d_eff = _delta_eff(adm, r_eps ** (m - 2))
    cap = omega * (window.r0 + D) ** (m - 1)
    if d_eff is None:
        bounds = {"delta_eff": None, "Q": None, "A0": None, "A1": None,
                  "A2": None, "A31": None, "A32": None, "A33": None,
                  "B1": None, "B2": None}
    else:
        q_eps = q_slope(d_eff, r_eps, m)
        q_zero = q_slope(d_eff, window.r0, m)
        bounds = {
            "delta_eff": d_eff,
            "Q": q_eps,
            "A0": D * q_zero * cap,
            "A1": epsilon / 8.0,
            "A2": epsilon / 8.0 if deep
            else D * q_eps * omega * window.r0 ** (m - 1),
            "A31": s_m * cap,
            "A32": s_m * cap,
            "A33": 2.0 * D * q_eps * cap,
            "B1": 4.0 * D * D * q_eps * cap,
            "B2": s_m * 2.0 * D * (1.0 + q_eps) * cap,
        }

    return FlatCertificate(
        epsilon=epsilon, D=D, alpha0=alpha0, dimension=m, mass=adm,
        r0=window.r0, r_minus=window.r_minus, r_plus=r_plus,
        alpha_eps=cut.alpha_eps, r_eps_prime=cut.r_eps_prime, r_eps=r_eps,
        a2_variant="deep" if deep else "shallow",
        vol_A0=vol_a0, vol_A1=vol_a1, vol_A2=vol_a2, vol_A31=vol_a31,
        vol_A32=vol_a32, vol_A33=vol_a33, vol_B1=vol_b1, vol_B2=vol_b2,
        C_M=c_m, S_M=s_m, total=total, total_scalable=total_scalable,
        bounds=bounds)


def switch_bounds(model: ManifoldModel, window: TubularWindow,
                  delta: float) -> dict:
    """Closed-form over-bounds for the two boundary-mismatch regions.

    A0_bound covers the outer mismatch annulus (r_plus, r0 + D); A22_bound
    covers the inner mismatch (r0 - D, r_minus) when the cut sits below the
    window.  They are flat_certificate's bounds["A0"] and shallow
    bounds["A2"] formulas, evaluated at the caller's delta instead of the
    certificate's delta_eff.  What the certificate does not do, this does:
    it raises CertificateError unless m_ADM < delta and
    (2 delta)^(1/(m-2)) < r0/2, and unless each bound dominates its exact
    volume; the certificate only reports its bounds next to the volumes.
    """
    m = model.dimension
    omega = model.omega
    adm = model.adm_mass
    if not adm < delta:
        raise CertificateError(
            f"switch_bounds needs m_ADM < delta, got {adm} >= {delta}")
    if not (2.0 * delta) ** (1.0 / (m - 2)) < window.r0 / 2.0:
        raise CertificateError(
            "switch_bounds needs (2 delta)^(1/(m-2)) < r0/2")
    a0_actual = euclidean_annulus_volume(m, window.r_plus, window.r0 + window.D)
    a0_bound = window.D * q_slope(delta, window.r0, m) \
        * omega * (window.r0 + window.D) ** (m - 1)
    # the gates' relative rule: 1e-12 of the bound, at every scale
    if a0_actual > a0_bound * (1.0 + 1e-12):
        raise CertificateError(
            f"A0 volume {a0_actual} exceeds its bound {a0_bound}")
    inner = max(window.r0 - window.D, 0.0)
    a22_actual = euclidean_annulus_volume(m, inner, window.r_minus)
    if window.r_minus ** (m - 2) > 2.0 * delta:
        a22_bound = window.D * q_slope(delta, window.r_minus, m) \
            * omega * window.r0 ** (m - 1)
        if a22_actual > a22_bound * (1.0 + 1e-12):
            raise CertificateError(
                f"A22 volume {a22_actual} exceeds its bound {a22_bound}")
    else:
        # the window bottom is inside the wall scale of delta; the shallow
        # variant cannot occur there and the bound degenerates
        a22_bound = math.inf
    return {"A0_bound": a0_bound, "A0_actual": a0_actual,
            "A22_bound": a22_bound, "A22_actual": a22_actual}


@dataclass(frozen=True)
class DeltaBudget:
    """A mass budget delta certifying flat distance below epsilon."""

    epsilon: float
    D: float
    alpha0: float
    m: int
    r_eps_prime: float
    alpha_eps: float
    delta: float
    slack: List[dict]


_BUDGET_CONDITIONS = tuple(f"choose-delta-{k}" for k in range(1, 7))


def _budget_thresholds(epsilon: float, r0: float, r_eps_prime: float,
                       m: int) -> tuple:
    """What each budget condition's left-hand side must stay below."""
    xi_cap = min(r_eps_prime ** (m - 2), (r0 / 2.0) ** (m - 2))
    return (xi_cap, epsilon / 8.0, epsilon / 8.0, epsilon / 8.0,
            epsilon / 12.0, epsilon / 12.0)


def _budget_lhs(delta: float, q: float, s: float, D: float, r0: float,
                m: int) -> tuple:
    """The six budget conditions' left-hand sides at delta, its slope bound q
    and distortion s.  Past the first, each is a constant times q, s or s q,
    so at q = s = 1 they are the conditions' coefficients.  A ring area
    that overflows reads +inf, whose coefficients bound q to 0."""
    omega = unit_sphere_area(m)
    ring0 = omega * _power(r0, m - 1)
    ring1 = omega * _power(r0 + D, m - 1)
    return (2.0 * delta, D * q * ring0, 4.0 * D * D * ring1 * q,
            s * 2.0 * D * ring1 * q, s * ring1, ring1 * q)


def _budget_conditions(delta: float, epsilon: float, D: float, r0: float,
                       r_eps_prime: float, m: int) -> List[dict]:
    q = s = math.inf
    if 2.0 * delta < r_eps_prime ** (m - 2):
        q = q_slope(delta, r_eps_prime, m)
        s = _budget_distortion(D, r0, q)[2]
    return [{"condition": name, "lhs": lhs, "threshold": threshold,
             "ok": bool(lhs < threshold)}
            for name, lhs, threshold in zip(
                _BUDGET_CONDITIONS,
                _budget_lhs(delta, q, s, D, r0, m),
                _budget_thresholds(epsilon, r0, r_eps_prime, m))]


def _budget_slopes(thresholds: tuple, D: float, r0: float, m: int) -> tuple:
    """The largest slope bound q that each of conditions 2-6 allows.

    2, 3 and 6 are linear in q.  By _budget_distortion s^2 = 2 diam_W^2 q
    (1 + 2 q), so 5 reads q (1 + 2 q) < u5^2 / 2, solved by the root that
    does not cancel, and 4 reads q^3 (1 + 2 q) < t4, solved by Newton's
    method from the upper bound min(t4^(1/3), (t4/2)^(1/4)): the left side
    is convex and increasing, so q falls until a step no longer lowers it.
    """
    _, k2, k3, k4, k5, k6 = _budget_lhs(0.0, 1.0, 1.0, D, r0, m)
    diam_w = _budget_distortion(D, r0, 0.0)[0]
    # each threshold over its coefficient; one that underflows bounds nothing
    q2, q3, u4, u5, q6 = (t / k if k > 0.0 else math.inf for t, k in zip(
        thresholds[1:], (k2, k3, k4 * diam_w, k5 * diam_w, k6)))
    t4 = 0.5 * u4 * u4
    q4 = min(t4 ** (1.0 / 3.0), (0.5 * t4) ** 0.25)
    while q4 > 0.0:
        q = q4 - (q4 * (1.0 + 2.0 * q4) - t4 / (q4 * q4)) / (3.0 + 8.0 * q4)
        if not q < q4:
            break
        q4 = q
    q5 = u5 * u5 / (1.0 + math.hypot(1.0, 2.0 * u5))
    return q2, q3, q4, q5, q6


def delta_budget(epsilon: float, D: float, alpha0: float,
                 m: int) -> DeltaBudget:
    """Largest-practical mass budget for the (epsilon, D, alpha0) target:
    0.9 delta*, where delta* is condition 1's cap or, if smaller, the delta
    at which q_slope reaches the least of _budget_slopes.  CertificateError
    where that underflows."""
    cut = well_cut(epsilon, D, alpha0, m)  # checks the parameters
    r0 = sphere_radius(alpha0, m)
    thresholds = _budget_thresholds(epsilon, r0, cut.r_eps_prime, m)
    # from q = 1e5 on, q^2 / (1 + q^2) > 1 - 1e-9 puts the root past the cap:
    # q stops there, keeping q^2 finite and passing over an infinite u5's nan
    q = min(1e5, *_budget_slopes(thresholds, D, r0, m))
    xi = cut.r_eps_prime ** (m - 2)
    delta = 0.9 * min(xi * q * q / (2.0 * (1.0 + q * q)),
                      (1.0 - 1e-9) * 0.5 * thresholds[0])
    if not delta > 0.0:
        raise CertificateError(f"the mass budget underflows at epsilon="
                               f"{epsilon!r}, D={D!r}, alpha0={alpha0!r}")
    slack = _budget_conditions(delta, epsilon, D, r0, cut.r_eps_prime, m)
    return DeltaBudget(epsilon=epsilon, D=D, alpha0=alpha0, m=m,
                       r_eps_prime=cut.r_eps_prime, alpha_eps=cut.alpha_eps,
                       delta=delta, slack=slack)
