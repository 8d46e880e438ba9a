"""The package root re-exports exactly what ``__all__`` lists, each public name is
declared once, in the ``__all__`` of the module that defines it, nothing is defined
unread, there is one type per shape of record, only ``_value._rebuild`` sets a slot
through ``object.__setattr__``, importing the CLI loads none of ``dataclasses``,
``inspect``, ``hypothesis``, ``mpmath`` and ``logging``, the forward-path kernels
compare instead of calling ``min`` or ``max``, and the trusted constructors run only
where their values need no check."""
from __future__ import annotations

import ast
import importlib
import pathlib
import re
import subprocess
import sys
import types

import pseudoeuclid
from pseudoeuclid._value import _Value

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
PACKAGE = pathlib.Path(pseudoeuclid.__file__).parent


def test_all_names_resolve_once():
    assert len(pseudoeuclid.__all__) == len(set(pseudoeuclid.__all__))
    for name in pseudoeuclid.__all__:
        assert hasattr(pseudoeuclid, name), name


def test_every_public_attribute_is_listed():
    public = {name for name, value in vars(pseudoeuclid).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public <= set(pseudoeuclid.__all__), public - set(pseudoeuclid.__all__)


def test_each_public_name_is_declared_once():
    # the root star-imports each module and concatenates their lists; a name
    # is listed by the module that binds it, never by one that imports it
    root = ast.parse((PACKAGE / "__init__.py").read_text())
    imports = [node for node in root.body if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert all(isinstance(node, ast.ImportFrom) and node.level == 1
               and [alias.name for alias in node.names] == ["*"] for node in imports)
    modules = [node.module for node in imports]
    assert modules
    literals = {node.value for node in ast.walk(root)
                if isinstance(node, ast.Constant) and isinstance(node.value, str)
                and node.value.isidentifier()}
    assert literals == {"__version__"}
    combined = []
    for name in modules:
        tree = ast.parse((PACKAGE / f"{name}.py").read_text())
        bound = set()
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                bound.add(node.name)
            elif isinstance(node, ast.Assign):
                bound |= {target.id for target in node.targets if isinstance(target, ast.Name)}
        listed = getattr(importlib.import_module(f"pseudoeuclid.{name}"), "__all__", None)
        assert listed, name
        assert set(listed) <= bound, (name, sorted(set(listed) - bound))
        combined += listed
    assert len(combined) == len(set(combined))
    assert pseudoeuclid.__all__ == combined + ["__version__"]


def test_readme_tour_imports_from_the_root():
    block = re.search(r"from pseudoeuclid import \(([^)]*)\)", README.read_text()).group(1)
    names = block.replace(",", " ").split()
    assert names
    for name in names:
        assert hasattr(pseudoeuclid, name), name


def test_every_constant_is_read():
    # a module-level ALL_CAPS name that nothing loads is dead configuration
    constants, read = set(), set()
    for path in PACKAGE.glob("*.py"):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, ast.Assign):
                constants |= {t.id for t in node.targets if isinstance(t, ast.Name)
                              and re.fullmatch(r"[A-Z][A-Z0-9_]*", t.id)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    assert constants
    assert constants <= read, sorted(constants - read)


def test_no_two_value_classes_share_their_fields():
    # two classes with the same fields are one type kept twice, with hand
    # conversions between them
    classes = {v for mod in vars(pseudoeuclid).values() if isinstance(mod, types.ModuleType)
               for v in vars(mod).values() if isinstance(v, type) and issubclass(v, _Value)
               and v is not _Value}
    assert classes == set(_Value.__subclasses__())
    assert len(classes) == 9
    by_fields: dict[tuple, list[str]] = {}
    for cls in classes:
        assert cls._fields and set(cls._fields) <= set(cls.__slots__), cls
        by_fields.setdefault(cls._fields, []).append(cls.__name__)
    assert len(by_fields) >= 8
    assert all(len(names) == 1 for names in by_fields.values()), by_fields


def test_only_rebuild_sets_a_slot_through_object_setattr():
    # every record writes its fields through the bound slot setters of
    # _value._setters; only unpickling and copying set slots by name
    found = set()
    for path in PACKAGE.glob("*.py"):
        tree = ast.parse(path.read_text())
        owner = {id(inner): node.name for node in ast.walk(tree)
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                 for inner in ast.walk(node)}
        found |= {(path.name, owner.get(id(node))) for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr == "__setattr__"
                  and isinstance(node.value, ast.Name) and node.value.id == "object"}
    assert found == {("_value.py", "_rebuild")}


def test_the_cli_imports_none_of_dataclasses_inspect_hypothesis_mpmath_logging():
    # importing any of them costs every CLI process start-up time (logging alone
    # about 5-6 ms), and the last three are no runtime dependencies; only a
    # fresh interpreter shows what importing the CLI pulls in
    code = ("import sys, pseudoeuclid.cli; print(sorted({'dataclasses', 'inspect', "
            "'hypothesis', 'mpmath', 'logging'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, timeout=60).stdout
    assert out == "[]\n"


def test_no_function_body_reads_a_klein_member_through_the_class():
    # on CPython 3.11 KleinIndex.P1 costs several times a read of the module
    # alias angle._P1; signature defaults and module-level code run once
    members = {k.name for k in pseudoeuclid.KleinIndex}
    found = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found |= {f"{path.name}:{inner.lineno}" for stmt in node.body
                          for inner in ast.walk(stmt)
                          if isinstance(inner, ast.Attribute) and inner.attr in members
                          and isinstance(inner.value, ast.Name)
                          and inner.value.id == "KleinIndex"}
    assert not found, sorted(found)


# the forward-path kernels, by module and qualified name
COMPARING_KERNELS = {
    "angle.py": {"KleinIndex.__mul__", "cosh_sinh", "cosh_e", "sinh_e", "_angle_of", "from_point"},
    "tol.py": {"rescaled", "is_null_xy"},
    "triangle.py": {"Triangle.__post_init__", "Triangle.elements", "Triangle._sine_products",
                    "Triangle.law_of_sines_residual", "Triangle.law_of_cosines_check",
                    "Triangle.angle_sum"},
    "hyperbola.py": {"circumscribed"},
    "selftest.py": {"_check_circum"},
}


def test_forward_path_kernels_compare_instead_of_calling_min_or_max():
    # on CPython 3.11 min(a, b) costs several times b if b < a else a, a
    # lookup on a tuple key builds and hashes the tuple, and a loop over a
    # tuple display builds it on every call; these kernels run thousands of
    # times per run_selftest
    found, seen = set(), set()
    for name, kernels in COMPARING_KERNELS.items():
        tree = ast.parse((PACKAGE / name).read_text())
        scopes = [("", node) for node in tree.body]
        scopes += [(f"{node.name}.", inner) for node in tree.body if isinstance(node, ast.ClassDef)
                   for inner in node.body]
        for prefix, node in scopes:
            if not (isinstance(node, ast.FunctionDef) and prefix + node.name in kernels):
                continue
            seen.add(f"{name}:{prefix}{node.name}")
            # the body alone: an annotation such as tuple[float, float] runs once
            for inner in [inner for stmt in node.body for inner in ast.walk(stmt)]:
                if (isinstance(inner, ast.Call) and isinstance(inner.func, ast.Name)
                        and inner.func.id in ("min", "max")):
                    found.add(f"{name}:{inner.lineno} calls {inner.func.id}")
                if isinstance(inner, ast.Subscript) and isinstance(inner.slice, ast.Tuple):
                    found.add(f"{name}:{inner.lineno} looks up a tuple key")
                if isinstance(inner, ast.For) and isinstance(inner.iter, (ast.Tuple, ast.List)):
                    found.add(f"{name}:{inner.lineno} loops over a display")
    assert seen == {f"{name}:{k}" for name, kernels in COMPARING_KERNELS.items() for k in kernels}
    assert not found, sorted(found)


# the sites allowed to call each trusted constructor, by module and qualified
# name: each builds from values finite by construction and says why there
TRUSTED_SITES = {
    "_make_angle": {"angle.py:_angle_of", "selftest.py:random_angle", "selftest.py:random_motion"},
    "_make_number": {"hypnum.py:euler", "selftest.py:random_triangle", "selftest.py:random_motion",
                     "selftest.py:_check_polar_roundtrip", "triangle.py:_place",
                     "hyperbola.py:circumscribed"},
}


def _owners(tree: ast.Module) -> dict[int, str]:
    """The qualified name of the innermost function around each node, by node id."""
    owners: dict[int, str] = {}

    def visit(node: ast.AST, prefix: str, owner: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, f"{prefix}{child.name}.", prefix + child.name)
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.", owner)
            else:
                if owner is not None:
                    owners[id(child)] = owner
                visit(child, prefix, owner)

    visit(tree, "", None)
    return owners


def test_trusted_constructors_are_called_only_from_their_sites():
    # _make_angle and _make_number skip __post_init__, so every public
    # constructor and function validates; any other mention of either, a
    # call, an alias or a string that getattr could read, fails here
    found = {name: set() for name in TRUSTED_SITES}
    for path in PACKAGE.glob("*.py"):
        tree = ast.parse(path.read_text())
        owners = _owners(tree)
        called = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.Constant):
                name = node.value
            else:
                continue
            if name in found and not (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)):
                site = f"{path.name}:{owners.get(id(node), '<module>')}"
                found[name].add(site if id(node) in called else f"{site} without a call")
    assert found == TRUSTED_SITES


def test_no_import_inside_a_function():
    # an import in a function body runs on every call and hides a cycle
    # between modules; every import is at module level
    found = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found |= {f"{path.name}:{inner.lineno}" for stmt in node.body
                          for inner in ast.walk(stmt)
                          if isinstance(inner, (ast.Import, ast.ImportFrom))}
    assert not found, sorted(found)


def test_every_import_is_read():
    # an imported name that nothing reads is a leftover of deleted code; the
    # module's own __all__ and a line marked "noqa: F401" re-export on purpose
    root = PACKAGE.parents[1]
    unread = []
    for path in sorted([*PACKAGE.glob("*.py"), *(root / "tests").glob("*.py"),
                        *(root / "bench").glob("*.py")]):
        source = path.read_text()
        lines = source.splitlines()
        tree = ast.parse(source)
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        exported = {elt.value for node in tree.body if isinstance(node, ast.Assign)
                    and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
                    for elt in ast.walk(node.value) if isinstance(elt, ast.Constant)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if (alias.name == "*" or bound in read or bound in exported
                        or "# noqa: F401" in lines[alias.lineno - 1]):
                    continue
                unread.append(f"{path.relative_to(root)}:{alias.lineno} {bound}")
    assert not unread, unread
