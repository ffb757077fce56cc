"""The package namespace: every public name resolves, on first access, to
the object its defining submodule holds."""

import ast
import importlib
from pathlib import Path

import pytest

import symfock

INIT = Path(symfock.__file__)


def _top_level_names(source: str) -> set[str]:
    """Names a module's source binds at top level by def, class or assignment."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {t.id for t in targets if isinstance(t, ast.Name)}
    return names


@pytest.mark.parametrize("name", symfock.__all__)
def test_public_name_is_its_defining_modules_object(name):
    module = symfock._SOURCES[name]
    assert name in _top_level_names((INIT.parent / f"{module}.py").read_text())
    assert getattr(symfock, name) is getattr(importlib.import_module(f"symfock.{module}"), name)


def test_the_lookup_table_lists_each_name_once():
    # a name listed under two modules would resolve silently to the last one
    table = next(
        node.value for node in ast.parse(INIT.read_text()).body
        if isinstance(node, ast.Assign) and node.targets[0].id == "_SOURCES"
    )
    listed = [c for t in ast.walk(table) if isinstance(t, ast.Tuple) for c in t.elts if isinstance(c, ast.Constant)]
    assert len(listed) == len(symfock._SOURCES)


def test_dir_lists_every_public_name():
    assert set(symfock.__all__) <= set(dir(symfock))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'schur_function'"):
        getattr(symfock, "schur_function")
    assert not hasattr(symfock, "_private")


def test_submodules_import_from_the_package():
    from symfock import verify

    assert verify is importlib.import_module("symfock.verify") and "verify" not in symfock.__all__
