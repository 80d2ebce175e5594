"""Every name the package exports has a caller in the program itself, and
the physics layers import none of the modules that judge or write them."""

import ast
import importlib
from pathlib import Path

import pytest

import susywell
from susywell import errors

PACKAGE = Path(susywell.__file__).parent


def exported() -> list[str]:
    """The names that susywell/__init__.py imports from its modules."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return [alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names]


def referenced(tree) -> set[str]:
    """The names of the Name and Attribute nodes of tree, each counted only
    outside the function or class that defines that name."""
    found = set()

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inside = inside | {node.name}
        elif isinstance(node, ast.Name) and node.id not in inside:
            found.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr not in inside:
            found.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(tree, frozenset())
    return found


def error_classes(module) -> set[str]:
    """The names of the exception classes that module defines or holds."""
    return {name for name, value in vars(module).items()
            if isinstance(value, type) and issubclass(value, BaseException)}


def test_one_error_class_per_way_a_run_ends():
    # ConvergenceFailure exits 2, ConfigError and any other SusywellError 3
    assert error_classes(errors) == {"SusywellError", "ConvergenceFailure", "ConfigError"}
    assert error_classes(susywell) == error_classes(errors)
    for path in sorted(PACKAGE.glob("*.py")):
        module = importlib.import_module(f"susywell.{path.stem}".removesuffix(".__init__"))
        defined = {name for name in error_classes(module)
                   if getattr(module, name).__module__ == module.__name__}
        assert defined <= (error_classes(errors) if module is errors else set()), path.name


def test_every_export_has_a_caller_outside_init():
    # a public name that only its own unit test calls is deleted, not kept
    used = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "__init__.py":
            used |= referenced(ast.parse(path.read_text()))
    assert [name for name in exported() if name not in used] == []


def package_imports(tree) -> set[str]:
    """The susywell modules that tree imports anywhere, by their short names,
    whether relatively (from .x, from . import x) or by the package name."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            dotted = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ["susywell" if node.level else "", node.module]))
            dotted = [module] + [f"{module}.{alias.name}" for alias in node.names]
        else:
            continue
        found |= {name.split(".")[1] for name in dotted if name.startswith("susywell.")}
    return found


@pytest.mark.parametrize("layer", ["susy_core", "states", "spectral", "scattering"])
def test_layers_return_results_and_write_no_files(layer):
    # gates judges the layers' results and cli renders them into files
    tree = ast.parse((PACKAGE / f"{layer}.py").read_text())
    assert package_imports(tree) & {"serialize", "gates", "cli"} == set()
