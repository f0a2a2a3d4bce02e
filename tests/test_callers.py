"""Every definition has a caller and every setting a reader.

A top-level function or class under ``src/repro`` must be named by the
program itself (``src/``, ``examples/``, ``benchmarks/``, ``bench/`` apart
from its tests, or the CI workflow), not only by tests; and a dataclass field must be read
somewhere besides its declaration. Code that only tests exercise, and a
setting nothing reads, are deleted rather than kept green.

Python files are read as syntax trees: a name counts where it appears as a
name, an attribute, an imported name or a word of a string that is not a
docstring (registries and entry points name code in strings). The CI
workflow is matched word by word. A field counts as read where any
attribute of its name is loaded, where a string equals its name
(``getattr``, a payload key), or where its class serializes itself with
``asdict(self)``. Names are matched without types, so the checks can miss
an unused definition that shares its name with a used one.
"""

import ast
import re
from collections import Counter
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parents[1]
ROOT = SRC.parent
PROGRAM = ("src", "examples", "benchmarks", "bench")
WORD = re.compile(r"\w+")


def _program_files():
    for top in PROGRAM:
        for path in sorted((ROOT / top).rglob("*.py")):
            if "tests" not in path.relative_to(ROOT).parts:
                yield path


def _docstrings(tree):
    docs = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docs.add(id(first.value))
    return docs


def _names(node, docs):
    """Every name ``node`` mentions (see the module docstring)."""
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr
        elif isinstance(n, ast.alias):
            yield n.name.rsplit(".", 1)[-1]
        elif (isinstance(n, ast.Constant) and isinstance(n.value, str)
              and id(n) not in docs):
            yield from WORD.findall(n.value)


def _parsed():
    trees = {}
    for path in _program_files():
        tree = ast.parse(path.read_text())
        trees[path] = (tree, _docstrings(tree))
    return trees


def _module(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _repro_modules(trees):
    for path, parsed in trees.items():
        if path.is_relative_to(SRC / "repro"):
            yield path, parsed


def _is_dataclass(cls: ast.ClassDef) -> bool:
    for deco in cls.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        name = target.id if isinstance(target, ast.Name) else getattr(target, "attr", "")
        if name == "dataclass":
            return True
    return False


def _serializes_itself(cls: ast.ClassDef) -> bool:
    return any(
        isinstance(n, ast.Call) and getattr(n.func, "id", None) == "asdict"
        and n.args and isinstance(n.args[0], ast.Name) and n.args[0].id == "self"
        for n in ast.walk(cls)
    )


def test_every_definition_has_a_caller_outside_tests():
    trees = _parsed()
    mentions = Counter()
    for tree, docs in trees.values():
        mentions.update(_names(tree, docs))
    for workflow in sorted((ROOT / ".github" / "workflows").glob("*.yml")):
        mentions.update(WORD.findall(workflow.read_text()))
    unused = []
    for path, (tree, docs) in _repro_modules(trees):
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                continue
            own = Counter(_names(node, docs))[node.name]
            if mentions[node.name] - own <= 0:
                unused.append(f"{_module(path)}.{node.name}")
    assert not unused, "only tests use: " + ", ".join(unused)


def test_every_dataclass_field_is_read():
    trees = _parsed()
    reads = Counter()
    for tree, docs in trees.values():
        for n in ast.walk(tree):
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
                reads[n.attr] += 1
            elif (isinstance(n, ast.Constant) and isinstance(n.value, str)
                  and id(n) not in docs):
                reads[n.value] += 1
    unread = []
    for path, (tree, _docs) in _repro_modules(trees):
        for cls in ast.walk(tree):
            if not (isinstance(cls, ast.ClassDef) and _is_dataclass(cls)):
                continue
            if _serializes_itself(cls):
                continue
            for stmt in cls.body:
                if not (isinstance(stmt, ast.AnnAssign)
                        and isinstance(stmt.target, ast.Name)):
                    continue
                if "ClassVar" in ast.dump(stmt.annotation):
                    continue
                if reads[stmt.target.id] == 0:
                    unread.append(f"{_module(path)}.{cls.name}.{stmt.target.id}")
    assert not unread, "never read: " + ", ".join(unread)
