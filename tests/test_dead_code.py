"""No ``src/`` function or class is reached only from its own tests, or
from nothing, no ``src/`` module imports a name it never uses, and no
``src/`` value is settable that only tests set.

A function or class counts as used when its name occurs in code under
``src/``, ``benchmarks/`` or ``examples/``, outside its own definition, as a
``Name`` load or an ``Attribute``; so does a component of a
``module:qualname`` string under ``benchmarks/`` (the suite's trace
targets, which CI requires to exist).  A ``Name`` whose name a function (or
lambda, or comprehension) around it binds itself — a parameter, an
assigned name, a ``for`` or ``with`` target — is that local, not a use;
a local import or a nested definition still counts.  Import statements,
``__all__`` entries, docstrings and comments do not count, and dunders
are called by the language.  Anything that fails
here is either a leftover to delete or wants a caller outside ``tests/``.

Two rules keep a knob with one value in use from coming back, both over
calls in ``src/``, ``benchmarks/`` and ``examples/``:

* **Fields.**  A field of a ``*Config``, ``*Params``, ``*Spec`` or
  ``*Policy`` dataclass is set by a keyword argument outside its class,
  by a keyword argument to ``cls(...)`` in one of the class's own
  classmethods (``DetectorSpec.create`` sets ``options``), or by a call
  by the class name that reaches it positionally or passes ``*``/``**``.
* **Parameters.**  A defaulted parameter of a ``src/`` function is passed
  by a keyword argument of its name outside its own definition, or by a
  call by the function's name (the class name for ``__init__``) that
  reaches it positionally or passes ``*``/``**``.

A value neither rule finds is a constant: delete it, put the value it
always had in the body or a module constant, and rewrite or delete the
tests that set it.  ``ALLOWED`` and ``ALLOWED_KNOBS`` name what stays
anyway, each with its written reason; a knob qualifies only as a paper
parameter ROADMAP item 1 sweeps, DESIGN.md's paper-ambiguity variant, a
determinism hook golden files pin, or part of a module ROADMAP deletes
whole.
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


def _parsed(directories):
    """``(path relative to the root, module tree)`` of every file."""
    for directory in directories:
        for path in sorted((ROOT / directory).rglob("*.py")):
            yield path.relative_to(ROOT), ast.parse(path.read_text())


def _definitions(tree):
    """``(node, enclosing class or None, qualname)`` for every function
    and class in ``tree``."""
    found = []

    def visit(node, cls, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                found.append((child, cls, prefix + child.name))
                visit(child, child if isinstance(child, ast.ClassDef)
                      else None, prefix + child.name + ".")
            else:
                visit(child, cls, prefix)

    visit(tree, None, "")
    return found


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ListComp,
           ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _local_names(scope):
    """The names a function (or lambda, or comprehension) binds itself:
    its arguments, and every name it assigns or takes as a ``for`` /
    ``with`` target outside the scopes nested in it.  Imports and nested
    definitions are left out, so a use of them still counts; so is a
    name the scope declares ``global`` or ``nonlocal``."""
    names, shared = set(), set()
    if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        args = scope.args
        names.update(arg.arg for arg in args.posonlyargs + args.args
                     + args.kwonlyargs + [args.vararg, args.kwarg] if arg)
        pending = (list(scope.body) if isinstance(scope.body, list)
                   else [scope.body])
    else:
        pending = list(ast.iter_child_nodes(scope))
    while pending:
        node = pending.pop()
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            shared.update(node.names)
        if not isinstance(node, _SCOPES + (ast.ClassDef,)):
            pending.extend(ast.iter_child_nodes(node))
    return names - shared


def _uses():
    """Every place a name is used: ``name -> [(path, line), ...]``.

    A ``Name`` bound locally in a scope that encloses it (a parameter or
    local variable that happens to share a definition's name) is not a
    use of that definition."""
    uses = collections.defaultdict(list)
    for where, tree in _parsed(CALLER_DIRS):
        pending = [(tree, frozenset())]
        while pending:
            node, bound = pending.pop()
            if isinstance(node, _SCOPES):
                bound = bound | _local_names(node)
            pending.extend((child, bound)
                           for child in ast.iter_child_nodes(node))
            if isinstance(node, ast.Name):
                if isinstance(node.ctx, ast.Load) and node.id not in bound:
                    uses[node.id].append((where, node.lineno))
            elif isinstance(node, ast.Attribute):
                uses[node.attr].append((where, node.end_lineno))
            elif (where.parts[0] == "benchmarks"
                  and isinstance(node, ast.Constant)
                  and isinstance(node.value, str)):
                target = TRACE_TARGET.match(node.value)
                for part in target.group(1).split(".") if target else ():
                    uses[part].append((where, node.lineno))
    return uses


def test_every_src_function_has_a_caller():
    uses = _uses()
    dead = []
    for where, tree in _parsed(["src"]):
        for node, _, qualname in _definitions(tree):
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
    for where, tree in _parsed(["src"]):
        if where.name == "__init__.py":
            continue
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
                    unused.append("%s:%d %s" % (where, node.lineno, name))
    assert not unused, "imported but never used:\n" + "\n".join(unused)


KNOB_SUFFIXES = ("Config", "Params", "Spec", "Policy")

_SWEPT = "a paper parameter ROADMAP item 1 sweeps"
_GOLDEN = "a determinism hook the golden run-artifact files pin"

# Knobs kept with no setter outside tests: qualified name -> reason.
ALLOWED_KNOBS = {
    "ImprovedSSTParams.eta": _SWEPT,
    "ChangeDeclarationPolicy.score_threshold": _SWEPT,
    "ChangeDeclarationPolicy.persistence": _SWEPT,
    "ChangeDeclarationPolicy.deviation_sigmas": _SWEPT,
    "CorpusSpec.ramp_duration": _SWEPT,
    "ImprovedSSTParams.future_directions":
        "DESIGN.md's paper-ambiguity variant (Eq. 8's literal smallest "
        "eigenvalues); only the production kernel computes it",
    "write_run_artifacts.run_id": _GOLDEN,
    "write_run_artifacts.unix_time": _GOLDEN,
    "BaselineStatsCache.__init__.max_entries":
        "ROADMAP item 6 deletes the baseline cache module whole",
}


def _called_name(call):
    if isinstance(call.func, ast.Name):
        return call.func.id
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return None


def _calls_and_keywords():
    """Every call by the name it is made through, and every keyword
    argument by its name, in code under ``src/``, ``benchmarks/`` and
    ``examples/``."""
    calls = collections.defaultdict(list)
    keywords = collections.defaultdict(list)
    for _, tree in _parsed(CALLER_DIRS):
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                calls[_called_name(node)].append(node)
                for keyword in node.keywords:
                    if keyword.arg:
                        keywords[keyword.arg].append(keyword)
    return calls, keywords


def _reach(calls):
    """``(positional arguments passed at most, any ``*``/``**``)``."""
    positional = max([sum(not isinstance(arg, ast.Starred)
                          for arg in call.args) for call in calls] or [0])
    starred = any(isinstance(arg, ast.Starred) for call in calls
                  for arg in call.args) or any(
        keyword.arg is None for call in calls for keyword in call.keywords)
    return positional, starred


def _is_knob_dataclass(node):
    return (isinstance(node, ast.ClassDef)
            and node.name.endswith(KNOB_SUFFIXES)
            and any("dataclass" in ast.unparse(d)
                    for d in node.decorator_list))


def test_every_config_field_has_a_caller():
    """Every field of a ``*Config``, ``*Params``, ``*Spec`` or
    ``*Policy`` dataclass under ``src/`` is set outside ``tests/``: by a
    keyword argument anywhere but in its own class, by a keyword
    argument to ``cls(...)`` in one of its own classmethods, or by a
    call by the class name that passes it positionally (or passes
    ``*``/``**``).  A field no caller sets has one value in use and
    belongs in a constant."""
    calls, keywords = _calls_and_keywords()
    unset = []
    for _, tree in _parsed(["src"]):
        for node in ast.walk(tree):
            if not _is_knob_dataclass(node):
                continue
            inside = {id(inner) for inner in ast.walk(node)}
            constructors = [
                inner for method in node.body
                if isinstance(method, ast.FunctionDef)
                and any(ast.unparse(d) == "classmethod"
                        for d in method.decorator_list)
                for inner in ast.walk(method)
                if isinstance(inner, ast.Call) and _called_name(inner) == "cls"]
            own = {id(keyword) for call in constructors
                   for keyword in call.keywords}
            positional, starred = _reach(calls[node.name] + constructors)
            fields = [item.target.id for item in node.body
                      if isinstance(item, ast.AnnAssign)
                      and isinstance(item.target, ast.Name)]
            for index, field in enumerate(fields):
                qualname = "%s.%s" % (node.name, field)
                if (starred or index < positional
                        or qualname in ALLOWED_KNOBS
                        or any(id(k) not in inside or id(k) in own
                               for k in keywords[field])):
                    continue
                unset.append(qualname)
    assert not unset, ("knob fields no caller outside tests sets:\n"
                       + "\n".join(sorted(unset)))


def test_every_defaulted_parameter_has_a_caller():
    """Every defaulted parameter of a ``src/`` function is passed outside
    ``tests/``: its name is a keyword argument somewhere outside the
    function's own definition, or a call by the function's name (the
    class name for ``__init__``) passes at least that many positional
    arguments, or passes ``*``/``**``.  A parameter nobody passes has
    one value in use and belongs in the body as a constant."""
    calls, keywords = _calls_and_keywords()
    unpassed = []
    for where, tree in _parsed(["src"]):
        for node, cls, qualname in _definitions(tree):
            if isinstance(node, ast.ClassDef):
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            bound = cls is not None and not any(
                ast.unparse(d) == "staticmethod"
                for d in node.decorator_list)
            name = cls.name if node.name == "__init__" else node.name
            reach, starred = _reach(calls[name])
            inside = {id(inner) for inner in ast.walk(node)}
            defaulted = [(parameter, positional.index(parameter) - bound)
                         for parameter in positional[
                             len(positional) - len(args.defaults):]]
            defaulted += [(parameter, None) for parameter, default
                          in zip(args.kwonlyargs, args.kw_defaults)
                          if default is not None]
            for parameter, index in defaulted:
                full = "%s.%s" % (qualname, parameter.arg)
                if (starred or index is not None and index < reach
                        or full in ALLOWED_KNOBS
                        or any(id(k) not in inside
                               for k in keywords[parameter.arg])):
                    continue
                unpassed.append("%s:%s" % (where, full))
    assert not unpassed, ("defaulted parameters no caller outside tests "
                          "passes:\n" + "\n".join(unpassed))
