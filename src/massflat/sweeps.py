"""Family sweeps: one certificate pipeline run per family member.

Each row builds the profile, reconstructs the manifold, and reports the flat
certificate for the (alpha0, D) tube next to a full-depth Gromov-Hausdorff
bound.  The GH bound needs a window deep enough to contain the well, so a
second model is built with D_gh = 1.05 s(r0) and a correspondingly larger
r_cap.  Rows are computed one after another and returned in input order;
failures are caught per row and recorded in the status column.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from .certificates import flat_certificate
from .errors import MassflatError, positive
from .geometry import ManifoldModel, tubular_window
from .ghdist import _best_and_segment_bounds
from .profiles import deep_well, schwarzschild, sphere_radius, stripes
from .serialization import read_profile

__all__ = ["SWEEP_COLUMNS", "run_sweep", "write_sweep_csv"]

SWEEP_COLUMNS = (
    "family", "parameter", "mass", "delta_used",
    "total", "total_scalable", "gh_total", "well_depth", "rho", "rho_prime",
    "vol_A0", "vol_A1", "vol_A2", "vol_A31", "vol_A32", "vol_A33",
    "vol_B1", "vol_B2", "status",
)

_FAMILIES = ("schwarzschild", "deep-well", "stripes", "file")


def _make_profile(family: str, value, dimension: int, alpha0: float,
                  well_depth: float, radii: Sequence[float]):
    if family == "schwarzschild":
        return schwarzschild(dimension, float(value))
    if family == "deep-well":
        return deep_well(dimension, float(value), alpha0, well_depth)
    if family == "stripes":
        return stripes(tuple(radii), float(value), dimension)
    return read_profile(value)


def _blank_row(family: str, value) -> dict:
    row = {name: None for name in SWEEP_COLUMNS}
    row["family"] = family
    row["parameter"] = value if isinstance(value, str) else float(value)
    return row


def _sweep_row(family: str, value, dimension: int, alpha0: float, D: float,
               epsilon: float, well_depth: float, radii: Sequence[float],
               r_cap: Optional[float]) -> dict:
    row = _blank_row(family, value)
    try:
        profile = _make_profile(family, value, dimension, alpha0,
                                well_depth, radii)
        r0 = sphere_radius(alpha0, profile.dimension)
        cap = r_cap if r_cap is not None else 4.0 * (r0 + D)
        model = ManifoldModel(profile, cap)
        cert = flat_certificate(model, alpha0, D, epsilon)
        s0 = float(model.s(r0))

        d_gh = 1.05 * s0
        model_gh = ManifoldModel(profile, 4.0 * (r0 + d_gh))
        window_gh = tubular_window(model_gh, alpha0, d_gh)
        gh, seg = _best_and_segment_bounds(model_gh, window_gh)

        row.update({
            "mass": profile.adm_mass,
            "delta_used": row["parameter"],
            "total": cert.total,
            "total_scalable": cert.total_scalable,
            "gh_total": gh.total,
            "well_depth": s0,
            "rho": seg.rho,
            "rho_prime": seg.rho_prime,
            "vol_A0": cert.vol_A0, "vol_A1": cert.vol_A1,
            "vol_A2": cert.vol_A2, "vol_A31": cert.vol_A31,
            "vol_A32": cert.vol_A32, "vol_A33": cert.vol_A33,
            "vol_B1": cert.vol_B1, "vol_B2": cert.vol_B2,
            "status": "ok",
        })
    except (MassflatError, ValueError, OSError) as exc:
        row["status"] = f"error: {exc}"
    return row


def run_sweep(family: str, values: Sequence, alpha0: float, D: float,
              epsilon: float, dimension: int = 3, well_depth: float = 10.0,
              radii: Sequence[float] = (1.0, 2.0),
              r_cap: Optional[float] = None) -> List[dict]:
    """Certificate rows for every member of a profile family, input order.

    alpha0, D and epsilon must be finite and positive (DomainError before
    any row runs); a failure within a row is recorded in its status.
    """
    if family not in _FAMILIES:
        raise MassflatError(f"unknown family {family!r}; pick from "
                            f"{', '.join(_FAMILIES)}")
    values = list(values)
    if not values:
        raise MassflatError("sweep needs at least one parameter value")
    alpha0, D = positive(alpha0, "alpha0"), positive(D, "D")
    epsilon = positive(epsilon, "epsilon")
    return [_sweep_row(family, value, dimension, alpha0, D, epsilon,
                       well_depth, radii, r_cap) for value in values]


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value.replace(",", ";")
    if isinstance(value, float):
        return "%.17g" % value
    return str(value)


def write_sweep_csv(rows: Sequence[dict], fh) -> None:
    fh.write(",".join(SWEEP_COLUMNS) + "\n")
    for row in rows:
        fh.write(",".join(_cell(row.get(name)) for name in SWEEP_COLUMNS)
                 + "\n")
