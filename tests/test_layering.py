"""Layering checks over the source tree, read with ``ast`` (nothing is imported).

``docs/architecture.md`` draws the packages as a bottom-up stack.  These
tests pin the edges of it that the comparators and the benchmark package
keep: the baselines price with closed forms and need no event engine, the
collective models sit directly on the machine model, the benchmark package
never reaches up into the planner, not even from inside a function, the
planner's batch evaluator walks its priced columns without the direct
executor or the event engine (they are its test oracle), and the event
recorder is a leaf: it imports nothing of ``repro`` outside ``repro.sim``.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Callable, Dict, List, Set

SRC = Path(__file__).resolve().parents[1] / "src"


def _module_name(path: Path) -> str:
    parts = list(path.relative_to(SRC).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _imports(path: Path) -> Set[str]:
    """Every module an ``import`` statement anywhere in ``path`` names."""
    module = _module_name(path)
    package = module if path.name == "__init__.py" else module.rpartition(".")[0]
    names: Set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = package.rsplit(".", node.level - 1)[0] if node.level > 1 else package
                names.add(f"{base}.{node.module}" if node.module else base)
            else:
                names.add(node.module)
    return names


def _package_imports(package: str) -> Dict[str, Set[str]]:
    root = SRC.joinpath(*package.split("."))
    return {_module_name(path): _imports(path) for path in sorted(root.rglob("*.py"))}


def _within(name: str, package: str) -> bool:
    return name == package or name.startswith(package + ".")


def _offending(package: str, forbidden: Callable[[str], bool]) -> Dict[str, List[str]]:
    """``{module: forbidden imports}`` over every module of ``package``."""
    found = {}
    for module, names in _package_imports(package).items():
        bad = sorted(name for name in names if forbidden(name))
        if bad:
            found[module] = bad
    return found


def test_the_packages_are_read():
    for package in ("repro.baselines", "repro.collectives", "repro.bench"):
        assert _offending(package, lambda name: _within(name, "repro"))


def test_baselines_do_not_import_the_simulator():
    assert not _offending("repro.baselines", lambda name: _within(name, "repro.sim"))


def test_collectives_import_only_the_machine_model():
    allowed = ("repro.collectives", "repro.topology", "repro.util")
    assert not _offending(
        "repro.collectives",
        lambda name: _within(name, "repro")
        and not any(_within(name, package) for package in allowed),
    )


def test_bench_does_not_import_the_planner():
    assert not _offending("repro.bench", lambda name: _within(name, "repro.planner"))


def test_batch_evaluator_builds_no_executor_or_engine():
    names = _imports(SRC / "repro" / "sim" / "batch.py")
    assert "repro.core.slicing" in names
    forbidden = ("repro.core.direct", "repro.sim.engine")
    assert not sorted(
        name for name in names
        if name in ("repro.core", "repro.sim")
        or any(_within(name, module) for module in forbidden)
    )


def test_the_event_recorder_is_a_leaf():
    """``repro.sim.engine``, ``events`` and ``trace`` only record what the
    walks timed, so they import nothing of ``repro`` outside ``repro.sim``."""
    found = {}
    for module in ("engine", "events", "trace"):
        names = _imports(SRC / "repro" / "sim" / f"{module}.py")
        found[module] = sorted(name for name in names
                               if _within(name, "repro") and not _within(name, "repro.sim"))
        assert module == "events" or "repro.sim.events" in names
    assert found == {"engine": [], "events": [], "trace": []}
