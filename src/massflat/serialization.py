"""JSON round-tripping for profiles and canonical output formatting.

Profile schema:

    {
      "dimension": 3,
      "r_min": 0.2,
      "adm_mass": 0.1,        # optional on read; verified when present
      "pieces": [
        {"kind": "constant", "from": 0.2, "to": "inf",
         "params": {"value": 0.1}},
        ...
      ]
    }

"to" is a number or the string "inf".  Cubic-spline params carry either
values/slopes or gap_values/gap_slopes (the near-wall parametrization).
Unknown keys anywhere are format errors: profiles are certificates' inputs
and silent key drift must not pass.  Canonical JSON output is
json.dumps(sort_keys=True, indent=2), which round-trips doubles bit-exactly.
"""

from __future__ import annotations

import json
import math
from typing import Union

from .errors import ProfileFormatError
from .profiles import (ConstantPiece, CubicSplinePiece, HawkingProfile,
                       PowerLawPiece)

__all__ = [
    "profile_to_dict",
    "profile_from_dict",
    "dumps_profile",
    "loads_profile",
    "read_profile",
    "write_profile",
    "canonical_json",
]

# kind -> (piece class, parameters after from/to, in constructor order):
# the only list of each kind's parameter names, for writing and reading
_PIECES = {
    "constant": (ConstantPiece, ("value",)),
    "power-law": (PowerLawPiece, ("coefficient", "exponent")),
    "cubic-spline": (CubicSplinePiece, None),
}
# a cubic spline's value and slope keys, by its gap_space flag
_SPLINE_DATA = {False: ("values", "slopes"), True: ("gap_values", "gap_slopes")}


def _edge(value: Union[float, str], where: str) -> float:
    if value == "inf":
        return math.inf
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ProfileFormatError(f"{where} must be a number or \"inf\"")
    return float(value)


def _number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ProfileFormatError(f"{where} must be a number")
    return float(value)


def _number_list(value, where: str) -> list:
    if not isinstance(value, list) or not value:
        raise ProfileFormatError(f"{where} must be a nonempty list of numbers")
    return [_number(x, f"{where}[{k}]") for k, x in enumerate(value)]


def _params(piece) -> dict:
    names = _PIECES[piece.kind][1]
    if names is not None:
        return {n: getattr(piece, n) for n in names}
    vkey, skey = _SPLINE_DATA[piece.gap_space]
    return {"knots": piece.knots.tolist(), "power": piece.power,
            vkey: piece.values.tolist(), skey: piece.slopes.tolist()}


def profile_to_dict(profile: HawkingProfile) -> dict:
    pieces = []
    for p in profile.pieces:
        to = "inf" if math.isinf(p.r_hi) else p.r_hi
        pieces.append({"kind": p.kind, "from": p.r_lo, "to": to,
                       "params": _params(p)})
    return {"dimension": profile.dimension, "r_min": profile.r_min,
            "adm_mass": profile.adm_mass, "pieces": pieces}


def _parse_piece(entry, where: str):
    if not isinstance(entry, dict):
        raise ProfileFormatError(f"{where} must be an object")
    expected = {"kind", "from", "to", "params"}
    extra = set(entry) - expected
    if extra:
        raise ProfileFormatError(f"{where} has unknown keys {sorted(extra)}")
    missing = expected - set(entry)
    if missing:
        raise ProfileFormatError(f"{where} is missing keys {sorted(missing)}")
    kind = entry["kind"]
    if not isinstance(kind, str) or kind not in _PIECES:
        raise ProfileFormatError(f"{where}.kind {kind!r} is not recognized")
    lo = _number(entry["from"], f"{where}.from")
    hi = _edge(entry["to"], f"{where}.to")
    params = entry["params"]
    if not isinstance(params, dict):
        raise ProfileFormatError(f"{where}.params must be an object")
    keyset = set(params)
    cls, names = _PIECES[kind]
    if names is not None:
        if keyset != set(names):
            raise ProfileFormatError(
                f"{where}.params for {kind} must have keys "
                f"{sorted(names)}, got {sorted(keyset)}")
        return cls(lo, hi, *(_number(params[n], f"{where}.params.{n}")
                             for n in names))
    # power is optional in both parametrizations
    if not any(keyset - {"power"} == {"knots", *data}
               for data in _SPLINE_DATA.values()):
        raise ProfileFormatError(
            f"{where}.params for cubic-spline must be knots with either "
            f"values/slopes or gap_values/gap_slopes, got {sorted(keyset)}")
    knots = _number_list(params["knots"], f"{where}.params.knots")
    power = _number(params.get("power", 1.0), f"{where}.params.power")
    gap_space = "gap_values" in params
    vkey, skey = _SPLINE_DATA[gap_space]
    piece = cls(
        knots,
        _number_list(params[vkey], f"{where}.params.{vkey}"),
        _number_list(params[skey], f"{where}.params.{skey}"),
        power=power, gap_space=gap_space)
    if piece.r_lo != lo or piece.r_hi != hi:
        raise ProfileFormatError(
            f"{where}: from/to ({lo}, {hi}) disagree with the knot range "
            f"({piece.r_lo}, {piece.r_hi})")
    return piece


def profile_from_dict(data) -> HawkingProfile:
    if not isinstance(data, dict):
        raise ProfileFormatError("profile document must be a JSON object")
    expected = {"dimension", "r_min", "pieces"}
    optional = {"adm_mass"}
    extra = set(data) - expected - optional
    if extra:
        raise ProfileFormatError(f"unknown top-level keys {sorted(extra)}")
    missing = expected - set(data)
    if missing:
        raise ProfileFormatError(f"missing top-level keys {sorted(missing)}")
    dimension = data["dimension"]
    if isinstance(dimension, bool) or not isinstance(dimension, int):
        raise ProfileFormatError("dimension must be an integer")
    r_min = _number(data["r_min"], "r_min")
    if not isinstance(data["pieces"], list) or not data["pieces"]:
        raise ProfileFormatError("pieces must be a nonempty list")
    pieces = tuple(_parse_piece(entry, f"pieces[{k}]")
                   for k, entry in enumerate(data["pieces"]))
    profile = HawkingProfile(dimension=dimension, r_min=r_min, pieces=pieces)
    if "adm_mass" in data:
        declared = _number(data["adm_mass"], "adm_mass")
        actual = profile.adm_mass
        # the gates' relative rule: no absolute floor, so a tiny mass is
        # checked as closely as a large one
        if not abs(declared - actual) <= 1e-12 * abs(actual):
            raise ProfileFormatError(
                f"declared adm_mass {declared} disagrees with the final "
                f"piece value {actual}")
    return profile


def _finite_safe(obj):
    """Replace non-finite floats with strings so the JSON stays standard."""
    if isinstance(obj, float):
        if math.isnan(obj):
            return "nan"
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        return obj
    if isinstance(obj, dict):
        return {k: _finite_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_safe(v) for v in obj]
    return obj


def canonical_json(data) -> str:
    return json.dumps(_finite_safe(data), indent=2, sort_keys=True)


def dumps_profile(profile: HawkingProfile) -> str:
    return canonical_json(profile_to_dict(profile))


def loads_profile(text: str) -> HawkingProfile:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ProfileFormatError(f"not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ProfileFormatError("JSON nested too deeply to parse") from exc
    return profile_from_dict(data)


def read_profile(path) -> HawkingProfile:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ProfileFormatError(f"not UTF-8 text: {exc}") from exc
    return loads_profile(text)


def write_profile(profile: HawkingProfile, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_profile(profile) + "\n")
