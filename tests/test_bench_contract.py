"""The names the benchmark under ``bench/`` reaches in the package still exist.

``bench/tracing.py`` wraps the functions in its ``TARGETS``, and the set-up
and workload files call further public names; a simplification that
renames or drops one of them breaks ``bench/run.py --trace 1`` without
failing any other test.  The bench files are only read here, never imported.
"""

import ast
import importlib
import re
from pathlib import Path

import pytest

import starshift

BENCH = Path(__file__).resolve().parent.parent / "bench"

# names bench/ reaches through module aliases such as ``fg = pkg.full_group``
ALIASED = (
    ("full_group", "Window"),
    ("full_group", "reverse_window"),
    ("full_group", "apply_generator"),
    ("gray_factor", "psi"),
    ("jump_action", "StarredWord"),
    ("jump_action", "jump_generator"),
    ("subshift", "periodic_points"),
    ("subshift", "sft_approximation"),
)


def _tracing_literals() -> dict[str, ast.expr]:
    tree = ast.parse((BENCH / "tracing.py").read_text(encoding="utf-8"))
    return {
        node.targets[0].id: node.value
        for node in tree.body
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
    }


def _reached() -> list[tuple[str, str]]:
    literals = _tracing_literals()
    reached = {(t.elts[0].value, t.elts[1].value) for t in literals["TARGETS"].elts}
    reached.add(tuple(ast.literal_eval(literals["ORACLE_FACTORY"])))
    direct = re.compile(r"\b(?:pkg|package|starshift)\.(\w+)\.(\w+)")
    for path in BENCH.glob("*.py"):
        reached.update(direct.findall(path.read_text(encoding="utf-8")))
    reached.update(ALIASED)
    return sorted(reached)


def test_traced_modules_exist():
    for name in ast.literal_eval(_tracing_literals()["MODULES"]):
        assert hasattr(starshift, name), name


def test_scan_sees_the_set_up_and_workload_names():
    reached = set(_reached())
    assert ("full_group", "generator_cocycle") in reached  # setup_probe.warm_up
    assert ("jump_action", "linear_jump_permutation") in reached  # workloads


@pytest.mark.parametrize("module, attr", _reached())
def test_bench_name_resolves(module, attr):
    owner = importlib.import_module(f"starshift.{module}")
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


def test_cached_targets_expose_their_cache():
    # bench/run.py clears these caches and bench/tracing.py reads their
    # hit counts, so dropping an lru_cache breaks every benchmark pass
    for target in _tracing_literals()["TARGETS"].elts:
        module, attr, _, cached = target.elts
        if not cached.value:
            continue
        owner = getattr(importlib.import_module(f"starshift.{module.value}"), attr.value)
        assert callable(owner.cache_info) and callable(owner.cache_clear), attr.value
