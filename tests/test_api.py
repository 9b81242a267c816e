"""The public API: what README's "Python API" paragraph names is exported."""

from __future__ import annotations

import re
from pathlib import Path

import massflat

_README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_api_names() -> set:
    text = _README.read_text(encoding="utf-8")
    section = text.split("\n## Python API\n", 1)[1].split("\n## ", 1)[0]
    prose = re.sub(r"```.*?```", "", section, flags=re.S)
    return set(re.findall(r"`([A-Za-z_]\w*)`", prose))


def test_readme_api_names_are_exported():
    names = _readme_api_names()
    assert len(names) >= 30, sorted(names)
    assert sorted(names - set(massflat.__all__)) == []


def test_every_exported_name_resolves():
    assert [n for n in massflat.__all__ if not hasattr(massflat, n)] == []
