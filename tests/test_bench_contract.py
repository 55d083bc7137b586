"""The names the benchmark under ``bench/`` reaches in the package still exist.

``bench/tracing.py`` wraps the functions in its ``TARGETS``, and the set-up
and workload files call further public names; a simplification that
renames or drops one of them breaks ``bench/run.py --trace 1`` without
failing any other test.  The bench files are only read here, never imported.

``bench/run.py --trace 1`` also requires a repeated pass over the same
operations to make the same traced calls; a cache in front of a traced
function would break that, and the guard below checks it for the
aperiodicity scans without running the bench.
"""

import ast
import importlib
import json
import os
import re
import subprocess
import sys
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


# One round of the bench's aperiodicity scans, twice in one fresh
# interpreter (the bench's traced passes start after a set-up that builds
# no SFT), counting calls of two traced functions in every module that
# holds them: each (p, order) step rebuilds w_n for its language listing.
_SCAN_TWICE = """
import json
import sys
import starshift
from starshift import subshift

counts = {"build_w": 0, "language_contains": 0}

def counting(name, original):
    def wrapper(*args, **kwargs):
        counts[name] += 1
        return original(*args, **kwargs)
    return wrapper

for name in counts:
    original = getattr(starshift.core_words, name)
    wrapper = counting(name, original)
    for module in vars(starshift).values():
        if getattr(module, name, None) is original:
            setattr(module, name, wrapper)

def scan():
    for p in range(1, 17):
        order = 2
        while order <= 8 * p:
            if not subshift.periodic_points(subshift.sft_approximation(order), p):
                break
            order = order + 1 if order < 8 else order + 4

passes = []
for _ in range(2):
    before = dict(counts)
    scan()
    passes.append({name: counts[name] - before[name] for name in counts})
json.dump(passes, sys.stdout)
"""


def test_aperiodicity_scans_repeat_their_traced_calls():
    env = {**os.environ, "PYTHONPATH": str(BENCH.parent / "src")}
    out = subprocess.run([sys.executable, "-c", _SCAN_TWICE], env=env,
                         capture_output=True, text=True, check=True).stdout
    first, second = json.loads(out)
    assert first == second
    assert first["build_w"] > 0  # the scan reached a traced function
