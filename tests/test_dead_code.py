"""No ``src/`` function or class is reached only from its own tests, or
from nothing, no ``src/`` module imports a name it never uses, and no field
of a live, health or engine ``*Config`` dataclass is set only by tests.

A function or class counts as used when its name occurs in code under
``src/``, ``benchmarks/`` or ``examples/``, outside its own definition, as a
``Name`` or an ``Attribute``; so does a component of a ``module:qualname``
string under ``benchmarks/`` (the suite's trace targets, which CI requires
to exist).  Import statements, ``__all__`` entries, docstrings and comments
do not count, and dunders are called by the language.  Anything that fails
here is either a leftover to delete or wants a caller outside ``tests/``.
"""

import ast
import collections
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
CALLER_DIRS = ("src", "benchmarks", "examples")
TRACE_TARGET = re.compile(r"^[\w.]+:([\w.]+)$")

# Qualified names kept with no caller outside tests, each with its reason.
ALLOWED = {
    # The slow exact oracle the batched kernel is pinned to (DESIGN.md).
    "IkaSST.scores_reference",
}


def _definitions(tree):
    """``(node, qualname)`` for every function and class in ``tree``."""
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                found.append((child, prefix + child.name))
                visit(child, prefix + child.name + ".")
            else:
                visit(child, prefix)

    visit(tree, "")
    return found


def _uses():
    """Every place a name is used: ``name -> [(path, line), ...]``."""
    uses = collections.defaultdict(list)
    for directory in CALLER_DIRS:
        for path in (ROOT / directory).rglob("*.py"):
            where = path.relative_to(ROOT)
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    uses[node.id].append((where, node.lineno))
                elif isinstance(node, ast.Attribute):
                    uses[node.attr].append((where, node.end_lineno))
                elif (directory == "benchmarks"
                      and isinstance(node, ast.Constant)
                      and isinstance(node.value, str)):
                    target = TRACE_TARGET.match(node.value)
                    for part in target.group(1).split(".") if target else ():
                        uses[part].append((where, node.lineno))
    return uses


def test_every_src_function_has_a_caller():
    uses = _uses()
    dead = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        where = path.relative_to(ROOT)
        for node, qualname in _definitions(ast.parse(path.read_text())):
            name = node.name
            if (name.startswith("__") and name.endswith("__")
                    or qualname in ALLOWED):
                continue
            first = min([node.lineno]
                        + [d.lineno for d in node.decorator_list])
            if not any(used_in != where or not first <= line <= node.end_lineno
                       for used_in, line in uses[name]):
                dead.append("%s:%s" % (where, qualname))
    assert not dead, "defined but never used:\n" + "\n".join(dead)


def _bound_names(node):
    """The names a module-level import binds (``import a.b`` binds ``a``)."""
    if isinstance(node, ast.ImportFrom) and node.module == "__future__":
        return []
    return [alias.asname or alias.name.split(".")[0]
            for alias in node.names if alias.name != "*"]


def test_no_src_module_imports_a_name_it_never_uses():
    """Module-level imports outside ``__init__.py`` re-exports are used:
    their name appears as a ``Name`` node or in a string constant (an
    ``__all__`` entry, a quoted annotation)."""
    unused = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        names, strings = set(), []
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif (isinstance(node, ast.Constant)
                  and isinstance(node.value, str)):
                strings.append(node.value)
        text = "\n".join(strings)
        for node in tree.body:
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            for name in _bound_names(node):
                if name not in names and not re.search(
                        r"\b%s\b" % re.escape(name), text):
                    unused.append("%s:%d %s" % (path.relative_to(ROOT),
                                                node.lineno, name))
    assert not unused, "imported but never used:\n" + "\n".join(unused)



CONFIG_DIRS = ("live", "obs", "engine")


def _is_config_dataclass(node):
    return (isinstance(node, ast.ClassDef) and node.name.endswith("Config")
            and any("dataclass" in ast.unparse(d)
                    for d in node.decorator_list))


def test_every_config_field_has_a_caller():
    """A config field is set somewhere outside ``tests/``: passed as a
    keyword argument or named as a dict key in ``src/``, ``benchmarks/``
    or ``examples/`` (the declaring dataclass does not count).  A field no
    caller sets has one value in use and belongs in a constant."""
    fields = []
    for directory in CONFIG_DIRS:
        for path in (ROOT / "src" / "repro" / directory).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if _is_config_dataclass(node):
                    fields += [(node.name, item.target.id)
                               for item in node.body
                               if isinstance(item, ast.AnnAssign)
                               and isinstance(item.target, ast.Name)]
    set_names = set()
    for directory in CALLER_DIRS:
        for path in (ROOT / directory).rglob("*.py"):
            tree = ast.parse(path.read_text())
            inside = {id(inner) for node in ast.walk(tree)
                      if _is_config_dataclass(node)
                      for inner in ast.walk(node)}
            for node in ast.walk(tree):
                if id(node) in inside:
                    continue
                if isinstance(node, ast.keyword) and node.arg:
                    set_names.add(node.arg)
                elif isinstance(node, ast.Dict):
                    set_names.update(
                        key.value for key in node.keys
                        if isinstance(key, ast.Constant)
                        and isinstance(key.value, str))
    unset = sorted("%s.%s" % field for field in fields
                   if field[1] not in set_names)
    assert not unset, ("config fields no caller outside tests sets:\n"
                       + "\n".join(unset))
