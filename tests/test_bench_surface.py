"""The benchmark's use of the package, read from its source.

``perfbench/workloads.py`` drives the package through imports, a device
(``engine``) and ``Platform`` arguments; its traced path calls the
``NodeRef`` adapters, which only a benchmark run would otherwise reach.
These checks read the file with ``ast``, so a name deleted from the
package fails here rather than in a two-minute smoke run.
"""

import ast
import importlib
from pathlib import Path

from treepcr import Platform, TreeTpm

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def _tree():
    return ast.parse(WORKLOADS.read_text(), filename=str(WORKLOADS))


def _engine_attributes(tree):
    """Attributes read off a name ``engine`` or an ``.engine`` attribute."""
    return {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and (
            (isinstance(node.value, ast.Name) and node.value.id == "engine")
            or (isinstance(node.value, ast.Attribute) and node.value.attr == "engine")
        )
    }


def _platform_attributes(tree):
    """Attributes read off a function argument annotated ``Platform``."""
    found = set()
    for function in ast.walk(tree):
        if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        arguments = function.args.posonlyargs + function.args.args + function.args.kwonlyargs
        names = {a.arg for a in arguments if a.annotation is not None and ast.unparse(a.annotation) == "Platform"}
        found |= {
            node.attr
            for node in ast.walk(function)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in names
        }
    return found


def test_every_package_import_resolves():
    imports = [
        (node.module, alias.name)
        for node in ast.walk(_tree())
        if isinstance(node, ast.ImportFrom) and node.module and node.module.split(".")[0] == "treepcr"
        for alias in node.names
    ]
    assert imports
    missing = [f"{module}.{name}" for module, name in imports if not hasattr(importlib.import_module(module), name)]
    assert missing == []


def test_every_engine_and_platform_attribute_exists():
    tree = _tree()
    engine, platform = _engine_attributes(tree), _platform_attributes(tree)
    assert len(engine) >= 7 and len(platform) >= 17  # what the file reads today
    assert sorted(a for a in engine if not hasattr(TreeTpm(), a)) == []
    assert sorted(a for a in platform if not hasattr(Platform(2), a)) == []
