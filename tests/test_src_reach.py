"""Every public name of the package is reached from its command line: a
function, class or constant that only tests reach belongs to the tests, and
so does a public method or property of a package class.  Reach is
transitive, so a name read only inside names that nothing reaches counts as
unread.  Likewise every config key is read by the program: a key that no
run reads is an option that changes nothing.  The names kept anyway are
listed with their reason."""

import ast
import importlib
import pathlib
import tomllib
from dataclasses import dataclass, fields, is_dataclass
from typing import get_args, get_type_hints

import gexplab
from gexplab.config import Config, Experiment

SRC = pathlib.Path(gexplab.__file__).parent
TESTS = pathlib.Path(__file__).parent

KEPT = {
    "__version__": "the package version, read by packaging tools",
}


KEPT_FIELDS = {
    "schema_version": "checked on load; version 1 is the only schema",
    "threads": "read by nothing, but perfbench/workloads.py writes it into every workload "
               "config, so it goes only with a change to the benchmark (ROADMAP item 10)",
}

# Fields of the package's other dataclasses that no attribute read in the
# package names, kept anyway.
KEPT_REPORT_FIELDS = {}


def source_trees() -> list:
    return [ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))]


def entry_points() -> set:
    """The functions the console scripts of ``pyproject.toml`` name."""
    scripts = tomllib.loads((SRC.parents[1] / "pyproject.toml").read_text())["project"]["scripts"]
    return {target.split(":")[1] for target in scripts.values()}


def reads(nodes) -> tuple:
    """The names that ``nodes`` read as a plain name and as an attribute."""
    names, attrs = set(), set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                names.add(sub.id)
            elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
                attrs.add(sub.attr)
    return names, attrs


@dataclass
class Definition:
    name: str          # "name" at top level, "Class.name" for a member
    member: bool       # reached only by an attribute read
    names: set         # what its body reads
    attrs: set


def definitions(trees) -> tuple:
    """The top-level functions, classes and constants of ``trees`` and the
    public methods and properties of their classes, each with what it reads,
    and what the module-level statements that define no name read.  A
    class's own body, bases, decorators and private and dunder methods go
    with the class: they run when it is used."""
    defs, root_names, root_attrs = [], set(), set()
    for tree in trees:
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                members = [m for m in node.body
                           if isinstance(m, ast.FunctionDef) and not m.name.startswith("_")]
                own = [m for m in node.body if m not in members]
                defs.append(Definition(node.name, False,
                                       *reads(own + node.bases + node.decorator_list)))
                defs.extend(Definition(f"{node.name}.{m.name}", True, *reads([m]))
                            for m in members)
            elif isinstance(node, ast.FunctionDef):
                defs.append(Definition(node.name, False, *reads([node])))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defs.extend(Definition(t.id, False, *reads([node])) for t in targets)
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                names, attrs = reads([node])
                root_names |= names
                root_attrs |= attrs
    return defs, root_names, root_attrs


def unreached(trees, entries) -> set:
    """Top-level names and members of ``trees`` that neither the ``entries``
    nor the module-level statements reach.  A top-level name is reached by a
    plain read or an attribute read of its name in reached code, a member by
    an attribute read of its name; the match is by name, whatever the
    object."""
    defs, names, attrs = definitions(trees)
    names |= set(entries)
    todo = list(defs)
    while True:
        now = [d for d in todo
               if d.name.rsplit(".", 1)[-1] in attrs or (not d.member and d.name in names)]
        if not now:
            break
        for d in now:
            names |= d.names
            attrs |= d.attrs
        todo = [d for d in todo if d not in now]
    return {d.name for d in todo
            if not d.name.rsplit(".", 1)[-1].startswith("_") or d.name.startswith("__")}


def test_every_public_name_is_reached_or_kept_with_a_reason():
    # A kept name that gains a caller leaves the list.
    assert {n for n in unreached(source_trees(), entry_points()) if "." not in n} == set(KEPT)


def test_every_public_member_of_a_package_class_is_reached():
    # A method or property that only tests call belongs to the tests.
    assert {n for n in unreached(source_trees(), entry_points()) if "." in n} == set()


def test_reach_is_transitive():
    # ``helper`` is read, but only inside ``orphan``, which nothing reads;
    # ``Box.size`` is read only by ``orphan``; ``Box.used`` by the entry.
    tree = ast.parse("""
def main():
    return Box().used
def orphan():
    return helper() + Box().size
def helper():
    return 1
class Box:
    def used(self):
        return 0
    @property
    def size(self):
        return 2
TABLE = {"run": main}
""")
    assert unreached([tree], {"main"}) == {"orphan", "helper", "Box.size", "TABLE"}
    # A module-level statement reaches what it reads.
    tree.body.append(ast.parse("if __name__ == '__main__':\n    TABLE['run']()").body[0])
    assert unreached([tree], set()) == {"orphan", "helper", "Box.size"}


def test_no_module_of_the_package_imports_from_the_tests():
    test_modules = {"tests"} | {path.stem for path in TESTS.glob("*.py")}
    for tree in source_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                imported = [node.module]
            else:
                continue
            assert not {name.split(".")[0] for name in imported} & test_modules, imported


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


def package_dataclasses() -> set:
    """Every dataclass that a module of the package defines."""
    modules = [importlib.import_module(f"gexplab.{path.stem}") for path in sorted(SRC.glob("*.py"))]
    return {obj for mod in modules for obj in vars(mod).values()
            if isinstance(obj, type) and is_dataclass(obj) and obj.__module__ == mod.__name__}


def test_every_dataclass_field_is_read_in_the_package_or_kept_with_a_reason():
    # A field that no attribute read names is carried for nothing; the match
    # is by name, whatever the object.  The config sections are among the
    # dataclasses, with their kept fields.
    read = {node.attr for tree in source_trees() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    classes = package_dataclasses()
    assert config_sections() <= classes
    assert ({f.name for cls in classes for f in fields(cls)} - read
            == set(KEPT_FIELDS) | set(KEPT_REPORT_FIELDS))


def test_every_field_experiment_adds_is_read_in_the_package():
    # The built objects are read off the experiment by the runners and
    # ``constants_report``; one that nothing reads is carried for nothing.
    added = {f.name for f in fields(Experiment)} - {f.name for f in fields(Config)}
    read = {node.attr for tree in source_trees() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
            and isinstance(node.value, ast.Name) and node.value.id in ("exp", "self")}
    assert "gspde_problem" in added
    assert added - read == set()
