"""No ``src/`` function is reached only from its own tests, or from nothing,
no ``src/`` module imports a name it never uses, and no field of a live,
health or engine ``*Config`` dataclass is set only by tests.

A function counts as called when its name appears as a whole word in
``src/``, ``benchmarks/`` or ``examples/`` more often than it is defined
there; dunders are called by the language.  Anything that fails here is
either a leftover to delete or wants a caller outside ``tests/``.
"""

import ast
import collections
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
CALLER_DIRS = ("src", "benchmarks", "examples")


def test_every_src_function_has_a_caller():
    words = collections.Counter()
    for directory in CALLER_DIRS:
        for path in (ROOT / directory).rglob("*.py"):
            words.update(re.findall(r"\w+", path.read_text()))
    defined = collections.defaultdict(list)
    for path in sorted((ROOT / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not (node.name.startswith("__")
                             and node.name.endswith("__"))):
                defined[node.name].append(
                    "%s:%s" % (path.relative_to(ROOT), node.name))
    dead = sorted(where for name, places in defined.items()
                  if words[name] <= len(places) for where in places)
    assert not dead, "defined but never called:\n" + "\n".join(dead)


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
