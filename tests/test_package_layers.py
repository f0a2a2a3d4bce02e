"""One home per name: a package ``__init__`` defines what it defines and
re-exports nothing, so each name has one import path and importing a
module loads only what it depends on."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parents[1]
ROOT = SRC.parent

#: Modules no benchmark workload runs; importing what the workloads import
#: must not load them.
UNUSED_BY_WORKLOADS = (
    "repro.core.oracle",
    "repro.core.autotune",
    "repro.core.jobsched",
    "repro.harness.experiments",
    "repro.harness.report",
    "repro.service.server",
)

#: The one re-export kept: ``bench/workloads.py`` imports the tree audit
#: as ``repro.storage.fsck_tree``.
KEPT_REEXPORTS = {("repro.storage", "fsck_tree")}


def _module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _package_dir(module: str):
    path = SRC.joinpath(*module.split("."))
    return path if (path / "__init__.py").is_file() else None


def _defined(tree: ast.Module) -> set:
    """Names a module's top level defines itself (not ones it imports)."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


def _repro_imports(tree: ast.AST):
    for node in ast.walk(tree):
        if (isinstance(node, ast.ImportFrom) and node.level == 0 and node.module
                and node.module.split(".")[0] == "repro"):
            yield node


def _workload_modules() -> list:
    """The repro modules ``bench/workloads.py`` imports at module level."""
    tree = ast.parse((ROOT / "bench" / "workloads.py").read_text())
    modules = []
    for node in tree.body:
        if not (isinstance(node, ast.ImportFrom) and node.module
                and node.module.split(".")[0] == "repro"):
            continue
        package = _package_dir(node.module)
        for alias in node.names:
            if package is not None and (package / f"{alias.name}.py").is_file():
                modules.append(f"{node.module}.{alias.name}")
            else:
                modules.append(node.module)
    return sorted(set(modules))


def test_workload_imports_load_no_unused_module():
    modules = _workload_modules()
    assert "repro.harness.runner" in modules
    code = ("import importlib, json, sys\n"
            f"for m in {modules!r}: importlib.import_module(m)\n"
            "print(json.dumps(sorted(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    loaded = set(json.loads(out))
    assert sorted(loaded & set(UNUSED_BY_WORKLOADS)) == []


def test_no_import_goes_through_a_package():
    """``from repro.<package> import Name`` names a submodule or something
    the package's ``__init__`` defines, never a re-export."""
    offenders = []
    for top in ("src", "tests", "examples", "benchmarks"):
        for path in sorted((ROOT / top).rglob("*.py")):
            for node in _repro_imports(ast.parse(path.read_text())):
                package = _package_dir(node.module)
                if package is None:
                    continue
                defined = _defined(ast.parse((package / "__init__.py").read_text()))
                for alias in node.names:
                    name = alias.name
                    if (name in defined or (package / f"{name}.py").is_file()
                            or (package / name / "__init__.py").is_file()):
                        continue
                    offenders.append(f"{path.relative_to(ROOT)}:{node.lineno}: "
                                     f"{node.module}.{name}")
    assert offenders == []


def test_no_module_reexports_a_repro_name():
    """Every name a module imports from repro is used by that module: a
    name imported only to be imported again from here is a second home."""
    offenders = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        tree = ast.parse(path.read_text())
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        module = _module_name(path)
        for node in tree.body:
            if not (isinstance(node, ast.ImportFrom) and node.module
                    and node.module.split(".")[0] == "repro"):
                continue
            for alias in node.names:
                name = alias.asname or alias.name
                if name not in used and (module, name) not in KEPT_REEXPORTS:
                    offenders.append(f"{module}.{name}")
    assert offenders == []
