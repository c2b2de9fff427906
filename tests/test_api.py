import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bggkit

ROOT = Path(__file__).resolve().parent.parent


def test_every_export_resolves():
    missing = [name for name in bggkit.__all__ if not hasattr(bggkit, name)]
    assert not missing


def _imported_names(tree):
    """Each name an import statement binds, with its line."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "bggkit").glob("*.py")),
                         ids=lambda p: p.name)
def test_every_import_is_used(path):
    # a name counts as used if the module reads it or lists it in __all__;
    # an attribute chain such as numpy.linalg is read through its root name
    tree = ast.parse(path.read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= {elt.value for elt in node.value.elts}
    assert [f"{path.name}:{line} {name}" for name, line in _imported_names(tree)
            if name not in used] == []


@pytest.mark.parametrize("name", ["catalog.py", "cli.py", "cube.py", "energy.py",
                                  "export.py", "korn.py"])
def test_outside_input_is_rejected_with_input_error(name):
    # these modules reject input with diagram.InputError, which the CLI maps
    # to exit 2; a bare ValueError or KeyError would be taken for a bug
    tree = ast.parse((ROOT / "src" / "bggkit" / name).read_text())
    raised = [node.exc.func if isinstance(node.exc, ast.Call) else node.exc
              for node in ast.walk(tree) if isinstance(node, ast.Raise) and node.exc]
    assert [f"{name}:{exc.lineno} {exc.id}" for exc in raised if isinstance(exc, ast.Name)
            and exc.id in ("ValueError", "KeyError")] == []


def test_every_top_level_definition_is_referenced():
    # a top-level function or class that no module of the package, the bench
    # or the tests names, as a name or an attribute, is dead code
    referenced = set()
    for folder in ("src/bggkit", "bench", "tests"):
        for path in (ROOT / folder).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    referenced.add(node.id)
                elif isinstance(node, ast.Attribute):
                    referenced.add(node.attr)
    defined = [(path.name, node) for path in sorted((ROOT / "src" / "bggkit").glob("*.py"))
               for node in ast.parse(path.read_text()).body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
    assert [f"{name}:{node.lineno} {node.name}" for name, node in defined
            if node.name not in referenced] == []


def test_import_loads_no_scipy():
    # bggkit has no runtime dependency; scipy must stay off the import path
    script = ("import sys, bggkit\n"
              "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    env = dict(os.environ, PYTHONPATH=str(Path(bggkit.__file__).resolve().parent.parent))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    assert proc.stdout == "[]\n"


def test_package_exports_only_the_readme_names():
    # the README's Library example imports these four; the rest is reached
    # through submodules, so the applications stay off the import path
    script = ("import sys, bggkit\n"
              "print(sorted(bggkit.__all__))\n"
              "print(sorted(m for m in ('bggkit.energy', 'bggkit.korn', 'bggkit.cube')\n"
              "             if m in sys.modules))\n")
    env = dict(os.environ, PYTHONPATH=str(Path(bggkit.__file__).resolve().parent.parent))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    line, = [ln for ln in (ROOT / "README.md").read_text().splitlines()
             if ln.startswith("from bggkit import ")]
    readme_names = sorted(n.strip() for n in line.removeprefix("from bggkit import ").split(","))
    assert proc.stdout.splitlines() == [str(readme_names), "[]"]
    assert readme_names == ["build", "catalog", "derive", "verify_identities"]


SUBCOMMANDS = [
    ["verify", "--diagram", "plate-2d", "--wmax", "3"],
    ["cohomology", "--diagram", "plate-2d", "--wmax", "3"],
    ["derive", "--diagram", "plate-2d", "--wmax", "3"],
    ["export", "--diagram", "plate-2d", "--wmax", "3", "--operator", "d",
     "--index", "0", "--weight", "1"],
    ["cosserat-energy", "--samples", "1", "--degree", "1"],
    ["korn2d", "--rmax", "4"],
]


def test_exact_commands_load_no_numpy():
    # the korn2d float step is pure Python, so no subcommand loads numpy
    script = ("import contextlib, io, json, sys, bggkit, bggkit.cli\n"
              "for argv in json.loads(sys.argv[1]):\n"
              "    with contextlib.redirect_stdout(io.StringIO()):\n"
              "        code = bggkit.cli.main(argv)\n"
              "    print(argv[0], code, sorted(m for m in sys.modules\n"
              "                                if m.split('.')[0] == 'numpy'))\n")
    env = dict(os.environ, PYTHONPATH=str(Path(bggkit.__file__).resolve().parent.parent))
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(SUBCOMMANDS)], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    assert proc.stdout.splitlines() == [f"{argv[0]} 0 []" for argv in SUBCOMMANDS]


def test_package_loads_no_dataclasses_or_inspect():
    # the records are plain classes, so neither importing every submodule nor
    # running a subcommand loads these; compared with what was loaded before,
    # so a site hook that loads them does not count
    modules = ["bggkit"] + [f"bggkit.{p.stem}" for p in
                            sorted((ROOT / "src" / "bggkit").glob("*.py"))
                            if p.stem != "__init__"]
    script = ("import contextlib, importlib, io, json, sys\n"
              "before = set(sys.modules)\n"
              "modules, commands = json.loads(sys.argv[1])\n"
              "for name in modules:\n"
              "    importlib.import_module(name)\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              "    codes = [sys.modules['bggkit.cli'].main(argv) for argv in commands]\n"
              "print(codes, sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))\n")
    env = dict(os.environ, PYTHONPATH=str(Path(bggkit.__file__).resolve().parent.parent))
    proc = subprocess.run([sys.executable, "-c", script, json.dumps([modules, SUBCOMMANDS])],
                          env=env, capture_output=True, text=True, timeout=120, check=True)
    assert proc.stdout == f"{[0] * len(SUBCOMMANDS)} []\n"


def test_runtime_dependencies_are_empty():
    tomllib = pytest.importorskip("tomllib")
    meta = tomllib.loads((ROOT / "pyproject.toml").read_text())
    assert meta["project"]["dependencies"] == []
    assert "numpy" in meta["project"]["optional-dependencies"]["test"]
