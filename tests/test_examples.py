"""Smoke tests: the example scripts must stay runnable.

Examples are the library's living documentation; a broken example is a
broken promise. Each fast example is executed in-process (``runpy``)
with stdout captured and sanity-checked for its headline output. The
four slow examples (10–35 s each: ``datacenter_profit``,
``hindsight_regret``, ``lowerbound_tightness``, ``admission_policies``)
are exercised by the benchmarks and the CI-style full runs instead —
keeping this module's budget around ten seconds.
"""

from __future__ import annotations

import ast
import importlib
import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = ROOT / "examples"

#: (script, substring its stdout must contain)
FAST_EXAMPLES = [
    ("quickstart.py", "certificate"),
    ("online_stream.py", ""),
    ("figure2_chen_structure.py", ""),
    ("figure3_pd_vs_oa.py", ""),
    ("algorithm_shootout.py", ""),
    ("admission_curve.py", ""),
    ("discrete_speeds.py", "menu"),
    ("profit_vs_loss.py", "margin"),
    ("adversary_hunt.py", "bound"),
    ("leakage_power.py", "leak"),
    ("pd_10k_jobs.py", "certificate holds"),
]


@pytest.mark.parametrize("script,marker", FAST_EXAMPLES)
def test_example_runs(script, marker, capsys):
    path = EXAMPLES / script
    assert path.exists(), f"missing example {script}"
    runpy.run_path(str(path), run_name="__main__")
    out = capsys.readouterr().out
    assert out.strip(), f"{script} printed nothing"
    if marker:
        assert marker in out, f"{script} output lacks {marker!r}"


def test_every_example_has_module_docstring():
    for path in sorted(EXAMPLES.glob("*.py")):
        head = path.read_text().lstrip()
        assert head.startswith('#!') or head.startswith('"""'), path.name
        assert '"""' in head.split("\n\n")[0] or head.count('"""') >= 2, (
            f"{path.name} lacks a docstring"
        )


#: Every example and benchmark script; tier-1 runs neither the slow
#: examples nor any ``benchmarks/bench_*.py``.
SCRIPTS = sorted(EXAMPLES.glob("*.py")) + sorted((ROOT / "benchmarks").glob("*.py"))


def _repro_imports(path: Path) -> list[tuple[str, str | None]]:
    """``(module, name)`` for each ``repro`` import in ``path``, at any
    depth (``name`` is ``None`` for a plain ``import repro...``)."""
    found: list[tuple[str, str | None]] = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            found.extend(
                (alias.name, None)
                for alias in node.names
                if alias.name.split(".")[0] == "repro"
            )
        elif (
            isinstance(node, ast.ImportFrom)
            and node.level == 0
            and node.module is not None
            and node.module.split(".")[0] == "repro"
        ):
            found.extend((node.module, alias.name) for alias in node.names)
    return found


@pytest.mark.parametrize(
    "path", SCRIPTS, ids=[f"{p.parent.name}/{p.name}" for p in SCRIPTS]
)
def test_script_repro_imports_resolve(path):
    """Each name a script imports from ``repro`` exists; no script runs."""
    for module_name, name in _repro_imports(path):
        module = importlib.import_module(module_name)
        if name is None or hasattr(module, name):
            continue
        # ``from repro.pkg import submodule`` names a module, not an attribute
        try:
            importlib.import_module(f"{module_name}.{name}")
        except ModuleNotFoundError:
            pytest.fail(f"{path.name}: {module_name} has no name {name!r}")
