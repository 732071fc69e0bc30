"""No ``src/`` function is reached only from its own tests, or from nothing.

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
