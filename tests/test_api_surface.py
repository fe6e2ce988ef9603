"""Every public name in ``src/fgt`` has a caller in the package or its scripts.

A helper that only tests call is a second API beside the one the package
uses.  The check parses ``src/fgt/*.py`` and ``scripts/*.py`` with ``ast``:
each public module-level function or class, and each public method, must be
referenced somewhere outside its own definition: a module-level name as
``f`` (the package and scripts import names, not modules), a method as
``x.f`` on any object.  Imports do not count as references.  Module-level
names in ``fgt.__all__`` are the package's exported API and are exempt.

The option surface is pinned too, so that adding a knob is a visible test
change: the fields of ``Budget`` and the option strings of the CLI.
"""

from __future__ import annotations

import argparse
import ast
import dataclasses
from pathlib import Path

import fgt
from fgt.cli import _build_parser
from fgt.config import Budget

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "fgt").glob("*.py"))
SOURCES = PACKAGE + sorted((ROOT / "scripts").glob("*.py"))


def _public_definitions(tree: ast.Module):
    """(qualified name, reference kind, node) of each public module-level function or class and each public method."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        yield node.name, ("module", node.name), node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", ("attribute", item.name), item


def _references(tree: ast.Module):
    """(reference kind, line) of every name read in the module: ``f`` names a module-level definition, ``x.f`` a method."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield ("module", node.id), node.lineno
        elif isinstance(node, ast.Attribute):
            yield ("attribute", node.attr), node.lineno


def unreferenced_public_names(package=PACKAGE, sources=SOURCES) -> list[str]:
    """The public names defined in ``package`` that no file of ``sources`` reads outside their definition."""
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in sources}
    refs: dict[tuple[str, str], list[tuple[Path, int]]] = {}
    for path, tree in trees.items():
        for kind, line in _references(tree):
            refs.setdefault(kind, []).append((path, line))
    missing = []
    for path in package:
        for qualified, kind, node in _public_definitions(trees[path]):
            if kind[0] == "module" and kind[1] in fgt.__all__:
                continue
            # every reference lies inside the definition itself
            if all(p == path and node.lineno <= line <= node.end_lineno for p, line in refs.get(kind, [])):
                missing.append(f"{path.stem}.{qualified}")
    return missing


def test_every_public_name_has_a_caller_in_the_package_or_scripts():
    missing = unreferenced_public_names()
    assert not missing, "no caller in src/fgt or scripts: " + ", ".join(missing)


def test_the_check_flags_names_read_only_inside_their_own_definition(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text(
        "def used():\n    return 1\n\n\n"
        "def recursive(n):\n    return recursive(n - 1) if n else used()\n\n\n"
        "class Box:\n    def read(self):\n        return self.read\n\n    def open(self):\n        return 0\n"
    )
    user = tmp_path / "user.py"
    user.write_text("from mod import Box, recursive\n\nBox().open()\n")
    assert unreferenced_public_names([mod], [mod, user]) == ["mod.recursive", "mod.Box.read"]


def test_the_budget_has_exactly_two_knobs():
    assert {f.name for f in dataclasses.fields(Budget)} == {"order_cap", "max_subgroups"}


def _option_strings(parser: argparse.ArgumentParser, path: str = "") -> dict[str, set[str]]:
    """The option strings of ``parser`` and of each subcommand, keyed by command path (``"catalog list"``)."""
    found = {path: set()}
    for action in parser._actions:
        found[path].update(action.option_strings)
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                found |= _option_strings(sub, f"{path} {name}".strip())
    return found


def test_the_cli_options_are_exactly_the_documented_set():
    help_only = {"-h", "--help"}
    budget = help_only | {"--order-cap", "--max-subgroups"}
    assert _option_strings(_build_parser()) == {
        "": help_only,
        "catalog": help_only,
        "catalog list": budget,
        "group": help_only,
        "group info": budget,
        "lattice": budget | {"--dot"},
        "predicate": budget | {"--subgroup"},
        "check": budget | {"--all", "--report", "--json", "--parallelism"},
        "search": budget | {"--universe"},
    }
