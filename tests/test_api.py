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


def test_the_package_exports_the_union_of_the_module_lists():
    modules = (massflat.certificates, massflat.embedding, massflat.errors,
               massflat.geometry, massflat.ghdist, massflat.profiles,
               massflat.serialization, massflat.sweeps)
    union = set().union(*(module.__all__ for module in modules))
    assert massflat.__all__ == sorted(union)
    # errors lists its exception classes and not its two input gates
    assert sorted(massflat.errors.__all__) == sorted(
        name for name, value in vars(massflat.errors).items()
        if isinstance(value, type) and issubclass(value, Exception))
