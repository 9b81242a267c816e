"""Round-trip and format-rejection tests for profile JSON."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from massflat.errors import ProfileFormatError
from massflat.profiles import deep_well, flat, schwarzschild, stripes
from massflat.serialization import (
    canonical_json,
    dumps_profile,
    loads_profile,
    profile_from_dict,
    profile_to_dict,
    read_profile,
    write_profile,
)

from util import random_spline_profile


FAMILIES = (
    flat(3),
    schwarzschild(3, 0.1),
    deep_well(3, 0.05, 4.0 * math.pi, 1.0),
    stripes((1.0, 2.0, 3.0, 4.0), 0.1),
)


@pytest.mark.parametrize("profile", FAMILIES,
                         ids=["flat", "schwarzschild", "deep-well", "stripes"])
def test_roundtrip_is_byte_identical(profile):
    text = dumps_profile(profile)
    back = loads_profile(text)
    assert dumps_profile(back) == text
    assert back.dimension == profile.dimension
    assert back.r_min == profile.r_min
    assert back.adm_mass == profile.adm_mass
    for r in np.linspace(profile.r_min + 1e-6, profile.r_min + 5.0, 40):
        assert back.mass(r) == profile.mass(r)


def test_roundtrip_random_profiles():
    rng = np.random.default_rng(77)
    for _ in range(10):
        profile = random_spline_profile(rng, 3)
        text = dumps_profile(profile)
        assert dumps_profile(loads_profile(text)) == text


def test_canonical_json_is_stable():
    text = dumps_profile(schwarzschild(3, 0.1))
    again = canonical_json(json.loads(text))
    assert again == text
    # keys come out sorted
    doc = json.loads(text)
    assert list(doc) == sorted(doc)


def test_canonical_json_nonfinite():
    assert json.loads(canonical_json({"a": math.inf})) == {"a": "inf"}
    assert json.loads(canonical_json({"a": -math.inf})) == {"a": "-inf"}
    assert json.loads(canonical_json([math.nan])) == ["nan"]


def test_declared_adm_mass_is_verified():
    doc = profile_to_dict(schwarzschild(3, 0.1))
    doc["adm_mass"] = 0.11
    with pytest.raises(ProfileFormatError, match="adm_mass"):
        profile_from_dict(doc)
    doc.pop("adm_mass")
    assert profile_from_dict(doc).adm_mass == 0.1


def test_declared_adm_mass_is_checked_relative_to_the_mass():
    tiny = stripes((1.0, 2.0), 1e-17)
    doc = profile_to_dict(tiny)
    assert 0.0 < doc["adm_mass"] < 1e-17
    doc["adm_mass"] = 5e-13
    with pytest.raises(ProfileFormatError, match="adm_mass"):
        profile_from_dict(doc)
    doc["adm_mass"] = tiny.adm_mass * (1.0 + 1e-13)
    assert profile_from_dict(doc).adm_mass == tiny.adm_mass
    doc = profile_to_dict(flat(3))
    doc["adm_mass"] = 1e-300
    with pytest.raises(ProfileFormatError, match="adm_mass"):
        profile_from_dict(doc)


def test_unknown_keys_rejected_everywhere():
    doc = profile_to_dict(schwarzschild(3, 0.1))
    doc["comment"] = "hi"
    with pytest.raises(ProfileFormatError, match="unknown top-level"):
        profile_from_dict(doc)
    doc.pop("comment")
    doc["pieces"][0]["note"] = 1
    with pytest.raises(ProfileFormatError, match="unknown keys"):
        profile_from_dict(doc)
    doc["pieces"][0].pop("note")
    doc["pieces"][0]["params"]["extra"] = 2.0
    with pytest.raises(ProfileFormatError, match="params"):
        profile_from_dict(doc)


def test_missing_and_type_errors():
    with pytest.raises(ProfileFormatError, match="JSON object"):
        profile_from_dict([1, 2])
    with pytest.raises(ProfileFormatError, match="missing top-level"):
        profile_from_dict({"dimension": 3})
    doc = profile_to_dict(flat(3))
    doc["dimension"] = 3.0
    with pytest.raises(ProfileFormatError, match="integer"):
        profile_from_dict(doc)
    doc["dimension"] = True
    with pytest.raises(ProfileFormatError, match="integer"):
        profile_from_dict(doc)
    doc = profile_to_dict(flat(3))
    doc["pieces"] = []
    with pytest.raises(ProfileFormatError, match="nonempty"):
        profile_from_dict(doc)
    doc = profile_to_dict(flat(3))
    doc["pieces"][0]["to"] = "infinity"
    with pytest.raises(ProfileFormatError, match='"inf"'):
        profile_from_dict(doc)
    doc["pieces"][0]["to"] = "inf"
    doc["pieces"][0]["kind"] = "parabola"
    with pytest.raises(ProfileFormatError, match="not recognized"):
        profile_from_dict(doc)
    with pytest.raises(ProfileFormatError, match="not valid JSON"):
        loads_profile("{nope")
    with pytest.raises(ProfileFormatError, match="nested too deeply"):
        loads_profile("[" * 100000 + "]" * 100000)


def test_non_utf8_file_is_a_format_error(tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(dumps_profile(flat(3)).replace('"constant"', '"caf\xe9"')
                     .encode("latin-1"))
    with pytest.raises(ProfileFormatError, match="not UTF-8 text"):
        read_profile(path)


def test_retired_stripe_kind_is_refused():
    # a stripe of curvature K is the power law with coefficient K/2 and
    # exponent 3; the old kind has no read alias
    doc = profile_to_dict(stripes((1.0, 2.0), 0.1))
    stripe = doc["pieces"][1]
    assert stripe["params"] == {"coefficient": 0.0125, "exponent": 3.0}
    stripe.update(kind="stripe", params={"curvature": 0.025})
    with pytest.raises(ProfileFormatError,
                       match=r"pieces\[1\]\.kind 'stripe' is not recognized"):
        profile_from_dict(doc)


@pytest.mark.parametrize("kind", [["constant"], {"a": 1}, 3, None])
def test_non_string_kind_is_a_format_error(kind):
    doc = profile_to_dict(flat(3))
    doc["pieces"][0]["kind"] = kind
    with pytest.raises(ProfileFormatError, match="not recognized"):
        profile_from_dict(doc)


def test_spline_params_must_pick_one_parametrization():
    doc = profile_to_dict(deep_well(3, 0.05, 4.0 * math.pi, 1.0))
    spline = next(p for p in doc["pieces"] if p["kind"] == "cubic-spline")
    keys = set(spline["params"])
    assert ("gap_values" in keys) != ("values" in keys)
    # mixing the two parametrizations must not parse
    if "gap_values" in keys:
        spline["params"]["values"] = spline["params"]["gap_values"]
    else:
        spline["params"]["gap_values"] = spline["params"]["values"]
    with pytest.raises(ProfileFormatError, match="cubic-spline"):
        profile_from_dict(doc)


def test_from_to_must_match_knot_range():
    rng = np.random.default_rng(5)
    profile = random_spline_profile(rng, 3)
    doc = profile_to_dict(profile)
    spline = next(p for p in doc["pieces"] if p["kind"] == "cubic-spline")
    spline["from"] = spline["from"] - 0.01
    with pytest.raises(ProfileFormatError, match="disagree"):
        profile_from_dict(doc)


def test_file_roundtrip(tmp_path):
    profile = deep_well(4, 0.02, 2.0 * math.pi ** 2, 2.0)
    path = tmp_path / "well.json"
    write_profile(profile, path)
    text = path.read_text(encoding="utf-8")
    assert text.endswith("\n")
    back = read_profile(path)
    assert dumps_profile(back) == text.rstrip("\n")
