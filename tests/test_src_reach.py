"""Every public top-level name of the package is read somewhere in the
package: a function, class or constant that only tests reach belongs to the
tests.  Likewise every config key is read by the program: a key that no run
reads is an option that changes nothing.  The names kept anyway are listed
with their reason."""

import ast
import pathlib
from dataclasses import fields, is_dataclass
from typing import get_args, get_type_hints

import gexplab
from gexplab.config import Config

SRC = pathlib.Path(gexplab.__file__).parent

KEPT = {
    "__version__": "the package version, read by packaging tools",
    "apply_semigroup": "the semigroup the heat-kernel acceptance criterion tests",
    "PHI_IDENTITY": "the composition under which the energy identity reduces to the weak form",
    "g_function": "reserved for a test of the sublinear expectation (ROADMAP: adapted controls)",
    "capacity_estimate": "reserved for a test of the sublinear expectation (ROADMAP: adapted "
                         "controls)",
    "check_linear_transport": "reserved for the Z half of the representation (ROADMAP)",
}


KEPT_FIELDS = {
    "schema_version": "checked on load; version 1 is the only schema",
}


def source_trees() -> list:
    return [ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))]


def unread_public_names() -> set:
    trees = source_trees()
    read = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name)
    defined = set()
    for tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined.update(t.id for t in targets if isinstance(t, ast.Name))
    public = {n for n in defined if not n.startswith("_") or n.startswith("__")}
    return public - read


def test_every_public_name_is_read_in_the_package_or_kept_with_a_reason():
    # A kept name that gains a caller leaves the list.
    assert unread_public_names() == set(KEPT)


def config_sections() -> set:
    """``Config`` and every dataclass its field types name, recursively."""
    found, todo = set(), [Config]
    while todo:
        tp = todo.pop()
        if isinstance(tp, type) and is_dataclass(tp):
            if tp not in found:
                found.add(tp)
                todo.extend(get_type_hints(tp, include_extras=True).values())
        else:
            todo.extend(get_args(tp))
    return found


def unread_config_fields() -> set:
    """Fields of a config section that no attribute read in the package
    names; the match is by name, whatever the object."""
    read = {node.attr for tree in source_trees() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    return {f.name for cls in config_sections() for f in fields(cls)} - read


def test_every_config_field_is_read_in_the_package_or_kept_with_a_reason():
    # The walk reaches the nested sections; a kept field that gains a reader
    # leaves the list.
    assert {"GspdeSection", "BdsdeSection", "RegressionBasis", "InitialLaw", "SpatialGrid",
            "ComparisonCase"} <= {cls.__name__ for cls in config_sections()}
    assert unread_config_fields() == set(KEPT_FIELDS)
