"""Every top-level function and class in `src/haarwords`, and every method
of those classes, is reached from a subcommand or from the benchmark, not
from tests alone.

Names are followed with `ast`, by identifier.  A top-level definition is
reached when a root or a reached body mentions its name, bare or as an
attribute.  A method is reached when a reached body mentions its name as
an attribute, whatever the object, or when its class's own body binds it
to another name (`__radd__ = __add__`).  Reaching a class follows its
bases, decorators, class-level statements and dunder methods, which
Python calls without naming them; its other methods are followed only
once they are reached themselves.  The roots are the functions of `cli`
and the module-level code of every module, the names `bench/cases.py`
uses, and the targets `bench/tracing.py` traces by name.  The bench files
are read, never imported.  A definition that only tests reach belongs in
`tests/oracles.py`, or in the one test file that uses it.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "haarwords"
BENCH = ROOT / "bench"


def _mentioned(node):
    """(name, is_attribute) for every identifier that `node` mentions."""
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            yield child.id, False
        elif isinstance(child, ast.Attribute):
            yield child.attr, True


def _traced():
    """(name, is_attribute) for each part of the path of every
    `Target(module, path)` in TARGETS: the first part is a top-level name,
    the others are attributes."""
    tree = ast.parse((BENCH / "tracing.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets):
            for call in node.value.elts:
                first, *rest = call.args[1].value.split(".")
                yield first, False
                yield from ((part, True) for part in rest)


def _is_method(node):
    return (isinstance(node, ast.FunctionDef)
            and not (node.name.startswith("__") and node.name.endswith("__")))


def _class_mentions(node):
    """What reaching a class follows: everything but its named methods.
    A bare name in a class-level statement is an attribute of the class."""
    for part in node.bases + node.keywords + node.decorator_list:
        yield from _mentioned(part)
    for child in node.body:
        if isinstance(child, ast.FunctionDef):
            if not _is_method(child):
                yield from _mentioned(child)
        else:
            yield from ((name, True) for name, _ in _mentioned(child))


def unreached():
    """`module.name` of every top-level function or class, and
    `module.Class.method` of every method of a reached class, that no root
    reaches."""
    definitions = {}     # name -> [(module, node)]
    methods = {}         # method name -> [(module, class name, node)]
    roots = set(_mentioned(ast.parse((BENCH / "cases.py").read_text())))
    traced = set(_traced())
    assert traced, "no TARGETS found in bench/tracing.py"
    roots |= traced
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                definitions.setdefault(node.name, []).append((path.stem, node))
                if path.stem == "cli":
                    roots.add((node.name, False))
                if isinstance(node, ast.ClassDef):
                    for child in filter(_is_method, node.body):
                        methods.setdefault(child.name, []).append((path.stem, node.name, child))
            else:
                roots.update(_mentioned(node))
    reached, reached_methods, todo = set(), set(), list(roots)
    while todo:
        name, attribute = todo.pop()
        if name in definitions and name not in reached:
            reached.add(name)
            for _, node in definitions[name]:
                todo.extend(_class_mentions(node) if isinstance(node, ast.ClassDef)
                            else _mentioned(node))
        if attribute and name in methods and name not in reached_methods:
            reached_methods.add(name)
            for _, _, node in methods[name]:
                todo.extend(_mentioned(node))
    missing = [f"{module}.{name}" for name, defs in definitions.items()
               if name not in reached for module, _ in defs]
    missing += [f"{module}.{cls}.{name}" for name, defs in methods.items()
                if name not in reached_methods
                for module, cls, _ in defs if cls in reached]
    return sorted(missing)


def test_every_definition_is_reached_from_a_subcommand_or_the_bench():
    assert unreached() == [], (
        "only tests reach these: move them to tests/oracles.py or to the test that uses them")
