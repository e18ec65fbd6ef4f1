"""Every name a module of the package exports in ``__all__`` exists, every
name it imports is used, and no module reads the environment."""

import ast
import importlib
import importlib.util
import pkgutil

import pytest

import contagion

MODULES = ["contagion"] + [
    f"contagion.{info.name}" for info in pkgutil.iter_modules(contagion.__path__)
]


def test_modules_are_found():
    assert {"contagion.harness", "contagion.metrics"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)


# Imported but never read in its module, kept on purpose. The benchmark's
# tracer wraps ``clear`` where the harness looks it up, so the harness keeps
# that name bound.
UNUSED_IMPORTS_ALLOWED = {("contagion.harness", "clear")}


def _syntax_tree(name):
    path = importlib.util.find_spec(name).origin
    with open(path, encoding="utf-8") as fh:
        return ast.parse(fh.read(), filename=path)


@pytest.mark.parametrize("name", MODULES)
def test_every_imported_name_is_used(name):
    # No linter runs on the package; this is its unused-import rule. A name
    # counts as used when the module reads it or lists it in ``__all__``.
    tree = _syntax_tree(name)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used.update(getattr(importlib.import_module(name), "__all__", ()))
    unused = {n for n in imported - used if (name, n) not in UNUSED_IMPORTS_ALLOWED}
    assert sorted(unused) == []


# The ``os`` names that read environment variables.
ENVIRONMENT_READERS = {"environ", "environb", "getenv"}


@pytest.mark.parametrize("name", MODULES)
def test_no_environment_variable_is_read(name):
    # Callers set every option through arguments and spec files; a knob
    # read from the environment would change results unseen.
    reads = []
    for node in ast.walk(_syntax_tree(name)):
        if (isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT_READERS
                and isinstance(node.value, ast.Name) and node.value.id == "os"):
            reads.append(f"os.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            reads += [f"os.{a.name}" for a in node.names if a.name in ENVIRONMENT_READERS]
    assert reads == []
