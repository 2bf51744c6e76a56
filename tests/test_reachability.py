"""Every top-level function and class in `src/haarwords` is reached from a
subcommand or from the benchmark, not from tests alone.

Names are followed with `ast`, by identifier: a definition is reached
when a root or a reached body mentions its name, bare or as an
attribute.  The roots are the functions of `cli` and the module-level
code of every module, the names `bench/cases.py` uses, and the targets
`bench/tracing.py` traces by name.  The bench files are read, never
imported.  A definition that only tests reach belongs in
`tests/oracles.py`, or in the one test file that uses it.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "haarwords"
BENCH = ROOT / "bench"


def _mentioned(node):
    """Every identifier that `node` mentions as a name or an attribute."""
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            yield child.id
        elif isinstance(child, ast.Attribute):
            yield child.attr


def _traced():
    """The top-level name of every `Target(module, path)` in TARGETS."""
    tree = ast.parse((BENCH / "tracing.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets):
            for call in node.value.elts:
                yield call.args[1].value.split(".")[0]


def unreached():
    """`module.name` of every top-level function or class no root reaches."""
    definitions = {}     # name -> [(module, node)]
    roots = set(_mentioned(ast.parse((BENCH / "cases.py").read_text())))
    traced = set(_traced())
    assert traced, "no TARGETS found in bench/tracing.py"
    roots |= traced
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                definitions.setdefault(node.name, []).append((path.stem, node))
                if path.stem == "cli":
                    roots.add(node.name)
            else:
                roots.update(_mentioned(node))
    reached, todo = set(), list(roots)
    while todo:
        name = todo.pop()
        if name in reached or name not in definitions:
            continue
        reached.add(name)
        for _, node in definitions[name]:
            todo.extend(_mentioned(node))
    return sorted(f"{module}.{name}" for name, defs in definitions.items()
                  if name not in reached for module, _ in defs)


def test_every_definition_is_reached_from_a_subcommand_or_the_bench():
    assert unreached() == [], (
        "only tests reach these: move them to tests/oracles.py or to the test that uses them")
