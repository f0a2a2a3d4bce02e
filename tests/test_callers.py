"""Every definition has a caller, every parameter a passer and every
setting a reader.

A top-level function or class under ``src/repro``, and a method or
property of a class there, must be named by the program itself (``src/``,
``examples/``, ``benchmarks/``, ``bench/`` apart from its tests, or the CI
workflow), not only by tests; a parameter with a default must be passed
by some call in the program, or the default is the only value it ever
takes; and a dataclass field must be read somewhere besides its
declaration. Code that only tests exercise, and a setting nothing reads,
are deleted rather than kept green: a value only tests pass becomes a
constant. Special methods (``__init__``, ``__eq__``, ...) are called by
Python itself and are not checked; the parameters of ``__init__`` are.

Python files are read as syntax trees: a name counts where it appears as a
name, an attribute, an imported name or a word of a string that is not a
docstring (registries and entry points name code in strings). The CI
workflow is matched word by word. A method counts as called more
narrowly: where an attribute of its name is read on an object other than
``self``, where ``self.name`` appears in its own class or one related to
it by inheritance, where a string equals its name, or where the workflow
writes ``.name``. A parameter counts as passed where a call of its
function's name (its class's name for ``__init__``; ``super().__init__``
calls its class's bases) passes it by keyword or, for a positional one,
passes that many positional arguments or a ``*args``; a
``functools.partial`` counts as a call, a ``**kwargs`` does not, and the
Python scripts the workflow runs count as program. A field counts as
read where any attribute of its name is loaded, where a string equals its
name (``getattr``, a payload key), or where its class serializes itself
with ``asdict(self)``. Names are matched without types, so the checks can
miss an unused definition that shares its name with a used one.
"""

import ast
import re
import textwrap
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


def _is_self(node) -> bool:
    return isinstance(node, ast.Name) and node.id in ("self", "cls")


def _calls(node, docs, owner, open_calls, self_calls):
    """Tally where ``node`` may call a method: ``obj.name`` and a string
    equal to a name into ``open_calls``, ``self.name`` (or ``cls.name``)
    into ``self_calls[owner]``, ``owner`` being the innermost class."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ClassDef):
            _calls(child, docs, child.name, open_calls, self_calls)
            continue
        if isinstance(child, ast.Attribute):
            if _is_self(child.value):
                self_calls.setdefault(owner, Counter())[child.attr] += 1
            else:
                open_calls[child.attr] += 1
        elif (isinstance(child, ast.Constant) and isinstance(child.value, str)
              and id(child) not in docs):
            open_calls[child.value] += 1
        _calls(child, docs, owner, open_calls, self_calls)


def _lineage(cls, bases):
    """``cls`` and every class it inherits from or that inherits from it,
    classes matched by name."""
    def ancestors(name, seen):
        for base in bases.get(name, ()):
            if base not in seen:
                seen.add(base)
                ancestors(base, seen)
        return seen

    return {cls} | ancestors(cls, set()) | {
        other for other in bases if cls in ancestors(other, set())
    }


def test_every_method_has_a_caller_outside_tests():
    trees = _parsed()
    open_calls, self_calls, bases = Counter(), {}, {}
    for tree, docs in trees.values():
        _calls(tree, docs, None, open_calls, self_calls)
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef):
                bases.setdefault(cls.name, set()).update(
                    b.id if isinstance(b, ast.Name) else b.attr
                    for b in cls.bases if isinstance(b, (ast.Name, ast.Attribute)))
    for workflow in sorted((ROOT / ".github" / "workflows").glob("*.yml")):
        open_calls.update(re.findall(r"\.(\w+)", workflow.read_text()))
    unused = []
    for path, (tree, docs) in _repro_modules(trees):
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            lineage = _lineage(cls.name, bases)
            for node in cls.body:
                if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                name = node.name
                if name.startswith("__") and name.endswith("__"):
                    continue
                own_open, own_self = Counter(), {}
                _calls(node, docs, cls.name, own_open, own_self)
                calls = open_calls[name] - own_open[name] + sum(
                    self_calls.get(c, Counter())[name] for c in lineage
                ) - own_self.get(cls.name, Counter())[name]
                if calls <= 0:
                    unused.append(f"{_module(path)}.{cls.name}.{name}")
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


#: Defaulted parameters that nothing in the program passes, kept on purpose.
KEPT_PARAMETERS = {
    # Seams that tests substitute.
    "repro.harness.chaosday.run_campaign(full_runner)":
        "tests run a campaign on a stub full tier",
    "repro.harness.chaosday.run_campaign(fast_runner)":
        "tests run a campaign on a stub fast tier",
    "repro.harness.cli.main(argv)":
        "the entry points read sys.argv; tests pass an argument list",
    "repro.service.server.ServeLoop(infile)":
        "repro serve reads stdin; tests pass an open file",
    "repro.service.server.ServeLoop(outfile)":
        "repro serve writes stdout; tests capture the events",
    "repro.storage.atomic.atomic_write_bytes(retry)":
        "tests pass a zero-delay retry spec under injected disk faults",
    "repro.storage.atomic.append_line(retry)":
        "tests pass a zero-delay retry spec under injected disk faults",
    "repro.storage.atomic.read_bytes(retry)":
        "tests pass a zero-delay retry spec under an injected EIO",
    "repro.harness.runner.run_fixed(invariants)":
        "tests install the invariant checker on a run",
    "repro.harness.runner.run_adts(invariants)":
        "tests install the invariant checker on a run",
    # The paper's scheduler knobs.
    "repro.core.adts.ADTSController(detector)":
        "the detector thread that runs the heuristics",
    "repro.core.adts.ADTSController(mark_clogging)":
        "whether clogging threads are marked in the thread control flags",
    "repro.core.adts.ADTSController(inhibit_cloggers)":
        "whether marked clogging threads are suspended",
    "repro.core.detector.DetectorThread(width)":
        "the detector thread's retire width",
    # Keywords forwarded through **kwargs.
    "repro.core.heuristics.base.Heuristic(thresholds)":
        "create_heuristic forwards it through **kwargs",
    "repro.core.heuristics.type4.Type4Heuristic(thresholds)":
        "create_heuristic forwards it through **kwargs",
}


def _callee(call):
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _passes(tree, passes):
    """Tally into ``passes[name]`` each call of ``name`` in ``tree`` as
    (positional count, has ``*args``, keyword names)."""
    bases = {}
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef):
            names = [b.id if isinstance(b, ast.Name) else b.attr
                     for b in cls.bases if isinstance(b, (ast.Name, ast.Attribute))]
            for node in ast.walk(cls):
                bases[id(node)] = names
    for call in ast.walk(tree):
        if not isinstance(call, ast.Call):
            continue
        name, args = _callee(call), call.args
        if name == "partial" and args:
            name, args = getattr(args[0], "id", getattr(args[0], "attr", None)), args[1:]
        targets = [name]
        if name == "__init__":
            owner = call.func.value
            is_super = (isinstance(owner, ast.Call)
                        and getattr(owner.func, "id", None) == "super")
            targets = bases.get(id(call), []) if is_super else []
        shape = (
            sum(not isinstance(a, ast.Starred) for a in args),
            any(isinstance(a, ast.Starred) for a in args),
            {k.arg for k in call.keywords if k.arg},
        )
        for target in targets:
            passes.setdefault(target, []).append(shape)


def _heredocs(text):
    """The Python scripts a workflow feeds to ``python - <<'TAG'``, parsed."""
    lines = text.splitlines()
    for i, line in enumerate(lines):
        tag = re.search(r"python -\s*<<\s*'(\w+)'", line)
        if tag is None:
            continue
        end = next(j for j in range(i + 1, len(lines))
                   if lines[j].strip() == tag.group(1))
        yield ast.parse(textwrap.dedent("\n".join(lines[i + 1:end])))


def _defaulted(fn, method):
    """(position or None for keyword-only, name) of each parameter of
    ``fn`` that has a default; positions leave out ``self``/``cls``."""
    args = fn.args
    positional = args.posonlyargs + args.args
    skip = 1 if method else 0
    first = len(positional) - len(args.defaults)
    for i, arg in enumerate(positional):
        if i >= first:
            yield i - skip, arg.arg
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield None, arg.arg


def _unpassed_parameters():
    trees = _parsed()
    passes = {}
    for tree, _docs in trees.values():
        _passes(tree, passes)
    for workflow in sorted((ROOT / ".github" / "workflows").glob("*.yml")):
        for script in _heredocs(workflow.read_text()):
            _passes(script, passes)

    def passed(callee, position, name):
        return any(
            name in keywords or (position is not None and (count > position or star))
            for count, star, keywords in passes.get(callee, ())
        )

    unpassed = []

    def visit(body, module, cls):
        for node in body:
            if isinstance(node, ast.ClassDef):
                visit(node.body, module, node)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                method = cls is not None and not any(
                    getattr(d, "id", None) == "staticmethod" for d in node.decorator_list)
                if node.name == "__init__":
                    callee, label = cls.name, f"{module}.{cls.name}"
                else:
                    callee = node.name
                    label = f"{module}.{cls.name}.{node.name}" if cls else f"{module}.{node.name}"
                for position, name in _defaulted(node, method):
                    if not passed(callee, position, name):
                        unpassed.append(f"{label}({name})")

    for path, (tree, _docs) in _repro_modules(trees):
        visit(tree.body, _module(path), None)
    return unpassed


def test_every_parameter_has_a_caller_outside_tests():
    unpassed = _unpassed_parameters()
    flagged = [p for p in unpassed if p not in KEPT_PARAMETERS]
    assert not flagged, "only tests pass: " + ", ".join(flagged)
    stale = sorted(set(KEPT_PARAMETERS) - set(unpassed))
    assert not stale, "kept but passed by the program, or gone: " + ", ".join(stale)
