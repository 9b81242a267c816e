"""Certified upper bounds on the intrinsic flat distance to Euclidean space.

The tubular neighborhood of the alpha0 sphere is compared with the same tube
in flat space by cutting away a small-area core (the well cut), filling the
region between the graph and the annulus, and collecting the volumes of every
excess region.  The certificate stores the exact quadrature volume of each
region together with the coarser closed-form over-bounds, and the budget
solver inverts the construction: given a target epsilon it produces a delta
such that any admissible profile with ADM mass below delta certifies at
epsilon.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, NamedTuple, Optional

import numpy as np

from .embedding import (budget_embedding_constants, embedding_constant_bound,
                        q_slope)
from .errors import CertificateError, DomainError, positive
from .geometry import (ManifoldModel, TubularWindow, euclidean_annulus_volume,
                       tubular_window, window_bracket)
from .profiles import sphere_radius, unit_sphere_area

__all__ = [
    "WellCut",
    "well_cut",
    "FlatCertificate",
    "flat_certificate",
    "switch_bounds",
    "DeltaBudget",
    "delta_budget",
]


class WellCut(NamedTuple):
    alpha_eps: float
    r_eps_prime: float


def well_cut(epsilon: float, D: float, alpha0: float, m: int) -> WellCut:
    """Cut area small enough that everything below it is negligible.

    alpha_eps = min(eps/(16 D), (omega eps / 8)^(m/(m-1)), alpha0), and
    r_eps_prime is the Euclidean radius of a sphere with that area.
    """
    epsilon = positive(epsilon, "epsilon")
    D = positive(D, "D")
    alpha0 = positive(alpha0, "alpha0")
    if m < 3:
        raise DomainError(f"dimension must be at least 3, got {m}")
    omega = unit_sphere_area(m)
    alpha_eps = min(epsilon / (16.0 * D),
                    (omega * epsilon / 8.0) ** (m / (m - 1.0)),
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
    """Assemble the flat-distance certificate for the (alpha0, D) tube."""
    epsilon = positive(epsilon, "epsilon")
    m = model.dimension
    omega = model.omega
    # On a horizon s' is infinite, so the guard runs before the window's
    # quadrature.  The bracket is at most 2 D wide; on the test and benchmark
    # models it is at most 1.6 times as wide as the window's (r_eps, r_plus],
    # so 128 samples keep the spacing below (r_plus - r_eps) / 64.
    _, r_lo, r_hi = window_bracket(model, alpha0, D)
    xs = np.linspace(r_lo, r_hi, 129)[1:]
    gap = model.profile.wall_gap(xs)
    if np.any(gap <= 0):
        k = int(np.argmax(gap <= 0))
        raise CertificateError(
            "horizon inside the certificate window: "
            f"wall_gap({float(xs[k])!r}) = {float(gap[k])!r} <= 0 in the "
            f"radius bracket ({r_lo!r}, {r_hi!r}]; the profile cannot be "
            "admissible")
    window = tubular_window(model, alpha0, D)
    cut = well_cut(epsilon, D, alpha0, m)
    deep = cut.r_eps_prime > window.r_minus
    r_eps = max(cut.r_eps_prime, window.r_minus)
    r_plus = window.r_plus

    consts = embedding_constant_bound(model, r_eps, r_plus)
    s_m, c_m = consts.S_M, consts.C_M_bound

    inner = max(window.r0 - D, 0.0)
    vol_a1 = model.shell_volume(window.r_minus, r_eps) if deep else 0.0
    vol_a2 = euclidean_annulus_volume(m, inner, r_eps)
    vol_a0 = euclidean_annulus_volume(m, r_plus, window.r0 + D)
    vol_b1 = model.graph_excess(r_eps, r_plus)
    shell = model.shell_volume(r_eps, r_plus)
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
    window.  Both are verified against the exact volumes before returning.
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


def _budget_conditions(delta: float, epsilon: float, D: float, r0: float,
                       r_eps_prime: float, m: int) -> List[dict]:
    omega = unit_sphere_area(m)
    xi_cap = min(r_eps_prime ** (m - 2), (r0 / 2.0) ** (m - 2))
    out = [{"condition": "choose-delta-1", "lhs": 2.0 * delta,
            "threshold": xi_cap}]
    if 2.0 * delta < r_eps_prime ** (m - 2):
        q = q_slope(delta, r_eps_prime, m)
        s = budget_embedding_constants(m, D, r0, q).S_M
    else:
        q = math.inf
        s = math.inf
    ring0 = omega * r0 ** (m - 1)
    ring1 = omega * (r0 + D) ** (m - 1)
    out.append({"condition": "choose-delta-2", "lhs": D * q * ring0,
                "threshold": epsilon / 8.0})
    out.append({"condition": "choose-delta-3", "lhs": 4.0 * D * D * ring1 * q,
                "threshold": epsilon / 8.0})
    out.append({"condition": "choose-delta-4", "lhs": s * 2.0 * D * ring1 * q,
                "threshold": epsilon / 8.0})
    out.append({"condition": "choose-delta-5", "lhs": s * ring1,
                "threshold": epsilon / 12.0})
    out.append({"condition": "choose-delta-6", "lhs": ring1 * q,
                "threshold": epsilon / 12.0})
    for entry in out:
        entry["ok"] = bool(entry["lhs"] < entry["threshold"])
    return out


def delta_budget(epsilon: float, D: float, alpha0: float,
                 m: int) -> DeltaBudget:
    """Largest-practical mass budget for the (epsilon, D, alpha0) target.

    All condition left-hand sides increase with delta, so the feasible set is
    an interval (0, delta*); a log-space bisection locates delta* to 1e-9
    relative and 0.9 delta* is returned.
    """
    cut = well_cut(epsilon, D, alpha0, m)  # checks the parameters
    r0 = sphere_radius(alpha0, m)

    def feasible(delta: float) -> bool:
        conds = _budget_conditions(delta, epsilon, D, r0, cut.r_eps_prime, m)
        return all(entry["ok"] for entry in conds)

    hi = (1.0 - 1e-9) * 0.5 * min(cut.r_eps_prime ** (m - 2),
                                  (r0 / 2.0) ** (m - 2))
    if feasible(hi):
        delta_star = hi
    else:
        t_hi = math.log(hi)
        t_lo = t_hi - 250.0
        for _ in range(8):
            if feasible(math.exp(t_lo)):
                break
            t_lo -= 250.0
        else:
            raise CertificateError(
                "no feasible delta found; parameters out of range")
        while t_hi - t_lo > 1e-9:
            t_mid = 0.5 * (t_lo + t_hi)
            if feasible(math.exp(t_mid)):
                t_lo = t_mid
            else:
                t_hi = t_mid
        delta_star = math.exp(t_lo)
    delta = 0.9 * delta_star
    slack = _budget_conditions(delta, epsilon, D, r0, cut.r_eps_prime, m)
    return DeltaBudget(epsilon=epsilon, D=D, alpha0=alpha0, m=m,
                       r_eps_prime=cut.r_eps_prime, alpha_eps=cut.alpha_eps,
                       delta=delta, slack=slack)
