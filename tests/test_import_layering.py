"""Import layering: every module imports first, and the campaign path stays thin.

A package ``__init__`` re-exports only its own layer, so no module depends
on ``repro/__init__``'s import order to load.  Both checks need a fresh
interpreter, because this process has most of ``repro`` imported already.
"""

import os
import subprocess
import sys

import repro

SRC = os.path.dirname(os.path.dirname(repro.__file__))

#: Imports each module under ``src/repro`` first, into a bare ``repro``
#: package whose ``__init__`` never runs, and prints those that fail.  A
#: module that needs an optional dependency this interpreter lacks (numpy,
#: for the array engine) is not a layering fault, so it is passed over.
FIRST_IMPORT = r"""
import importlib, pathlib, sys, types
src = pathlib.Path(sys.argv[1])
names = []
for path in sorted((src / "repro").rglob("*.py")):
    parts = list(path.relative_to(src).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    if parts != ["repro"] and parts[-1] != "__main__":
        names.append(".".join(parts))
for name in names:
    for key in [key for key in sys.modules
                if key == "repro" or key.startswith("repro.")]:
        del sys.modules[key]
    bare = types.ModuleType("repro")
    bare.__path__ = [str(src / "repro")]
    sys.modules["repro"] = bare
    try:
        importlib.import_module(name)
    except ImportError as error:
        missing = getattr(error, "name", None) or ""
        if isinstance(error, ModuleNotFoundError) \
                and missing.partition(".")[0] != "repro":
            continue
        print(f"{name}: {error}")
print(f"checked {len(names)}")
"""

#: Modules the campaign path never runs.
OFF_CAMPAIGN_PATH = (
    "repro.adversary.constructions",
    "repro.adversary.ftt",
    "repro.analysis.reachability",
    "repro.analysis.results_map",
    "repro.lint",
)

#: Modules only ``repro lint`` and ``repro attack`` run, so ``repro.cli``
#: imports them inside those commands.
OFF_CLI_IMPORT = ("repro.adversary.constructions", "repro.lint")


def run_python(*args):
    """Run ``args`` in a fresh interpreter that sees what this one sees."""
    flags = ["-S"] if sys.flags.no_site else []
    path = os.pathsep.join(
        part for part in (SRC, os.environ.get("PYTHONPATH")) if part)
    completed = subprocess.run(
        [sys.executable, *flags, *args], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=path), timeout=120)
    assert completed.returncode == 0, completed.stderr
    return completed.stdout


def test_every_module_imports_without_the_package_facade():
    lines = run_python("-c", FIRST_IMPORT, SRC).splitlines()
    assert lines[-1].startswith("checked ") and int(lines[-1].split()[1]) > 70
    assert lines[:-1] == []


def loaded_by(module):
    """The modules a fresh interpreter holds after importing ``module``."""
    return run_python(
        "-c", f"import sys, {module}; print('\\n'.join(sys.modules))",
    ).splitlines()


def test_campaign_import_loads_no_attack_analysis_or_lint_module():
    assert [module for module in loaded_by("repro.campaign")
            if module.startswith(OFF_CAMPAIGN_PATH)] == []


def test_cli_import_loads_neither_the_linter_nor_the_attacks():
    assert [module for module in loaded_by("repro.cli")
            if module.startswith(OFF_CLI_IMPORT)] == []
