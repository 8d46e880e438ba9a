"""The package root re-exports exactly what ``__all__`` lists."""
from __future__ import annotations

import pathlib
import re
import types

import pseudoeuclid

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_all_names_resolve_once():
    assert len(pseudoeuclid.__all__) == len(set(pseudoeuclid.__all__))
    for name in pseudoeuclid.__all__:
        assert hasattr(pseudoeuclid, name), name


def test_every_public_attribute_is_listed():
    public = {name for name, value in vars(pseudoeuclid).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public <= set(pseudoeuclid.__all__), public - set(pseudoeuclid.__all__)


def test_readme_tour_imports_from_the_root():
    block = re.search(r"from pseudoeuclid import \(([^)]*)\)", README.read_text()).group(1)
    names = block.replace(",", " ").split()
    assert names
    for name in names:
        assert hasattr(pseudoeuclid, name), name
