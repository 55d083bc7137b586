"""Spans and counters at starshift's layer boundaries, from outside the program.

An ``Installation`` replaces each traced public function by a wrapper in
every starshift module that holds a reference to it (``language_contains``
is imported by ``full_group`` and ``subshift`` as well as defined in
``core_words``), and its ``uninstall`` puts the originals back.  A wrapper
records one span (name, start, end, parent, op) and adds to counters:
calls, self time, and a work count where the layer has one.
Self time is a span's duration minus the time covered by its child spans;
children of one span never overlap because every operation runs on one
thread.
"""

from __future__ import annotations

from array import array
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

MODULES = ("core_words", "tree_action", "jump_action", "gray_factor", "full_group", "subshift")


def _word_len(args, kwargs):
    return len(args[0])


def _elements(args, kwargs):
    # word length times permutation-table size
    return len(args[0]) * len(next(iter(args[1].values())))


# (module, attribute, work counts computed from the arguments, cached)
TARGETS = (
    ("core_words", "build_w", {}, False),
    ("core_words", "is_alternating", {"letters": _word_len}, False),
    ("core_words", "free_reduce", {"letters": _word_len}, False),
    ("core_words", "language_contains", {"letters": _word_len}, True),
    ("tree_action", "level_permutation", {}, True),
    ("tree_action", "word_permutation", {"compositions": _word_len}, False),
    ("jump_action", "jump_generator", {}, False),
    ("jump_action", "circular_jump_permutation", {}, False),
    (
        "jump_action",
        "word_star_permutation",
        {"compositions": _word_len, "elements": _elements},
        False,
    ),
    ("jump_action", "relation_set", {}, True),
    ("jump_action", "table1", {}, False),
    ("gray_factor", "natural_decomposition", {}, False),
    ("gray_factor", "psi", {}, False),
    ("full_group", "apply_generator", {}, False),
    ("full_group", "schreier_graph", {}, False),
    ("subshift", "periodic_points", {}, False),
    ("subshift", "sft_approximation", {}, False),
    ("subshift", "pseudo_orbit_demo", {}, False),
    ("subshift", "comb_sft", {}, False),
    ("subshift", "union_sft", {}, False),
    ("subshift", "ZSft.words", {}, False),
)

ORACLE_FACTORY = ("full_group", "window_stabilizer_oracle")
ORACLE_SPAN = "full_group.stabilizer_oracle"

# Reported with --trace 1; the workload table in NOTES.md says which
# end-to-end metric each should move.
PER_LAYER = (
    ("jump_action.word_star_permutation.self_s", "s"),
    ("jump_action.word_star_permutation.compositions", "count"),
    ("jump_action.word_star_permutation.elements", "count"),
    ("jump_action.circular_jump_permutation.calls", "count"),
    ("jump_action.circular_jump_permutation.self_s", "s"),
    ("jump_action.table1.self_s", "s"),
    ("tree_action.word_permutation.self_s", "s"),
    ("tree_action.word_permutation.compositions", "count"),
    ("tree_action.level_permutation.cache_hit_ratio", "ratio"),
    ("core_words.language_contains.calls", "count"),
    ("core_words.language_contains.self_s", "s"),
    ("core_words.language_contains.letters", "count"),
    ("core_words.language_contains.cache_hit_ratio", "ratio"),
    ("core_words.is_alternating.letters", "count"),
    ("jump_action.jump_generator.calls", "count"),
    ("gray_factor.natural_decomposition.calls", "count"),
    ("gray_factor.natural_decomposition.self_s", "s"),
    ("gray_factor.psi.calls", "count"),
    ("gray_factor.psi.self_s", "s"),
    ("full_group.apply_generator.calls", "count"),
    ("full_group.apply_generator.self_s", "s"),
    ("full_group.stabilizer_oracle.queries", "count"),
    ("core_words.free_reduce.self_s", "s"),
    ("subshift.periodic_points.self_s", "s"),
    ("subshift.sft_approximation.self_s", "s"),
    ("subshift.pseudo_orbit_demo.self_s", "s"),
    ("subshift.comb_sft.self_s", "s"),
    ("subshift.union_sft.self_s", "s"),
    ("subshift.ZSft.words.self_s", "s"),
    ("full_group.schreier_graph.self_s", "s"),
    ("cli.table1.self_s", "s"),
    ("cli.schreier.self_s", "s"),
    ("cli.pseudo-orbit.self_s", "s"),
    ("cli.stabilizer.self_s", "s"),
    ("cli.sft.self_s", "s"),
    ("core_words.build_w.self_s", "s"),
    ("jump_action.relation_set.self_s", "s"),
    ("tree_action.level_permutation.self_s", "s"),
    ("bench.trace_overhead_ratio", "ratio"),
)


class Tracer:
    """Spans and counters of one pass over an operation list."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("l")
        self.span_parent = array("l")
        self.span_op = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.op = -1
        self._stack: list[list] = []  # [span index, time covered by children]
        self.calls: Counter[str] = Counter()
        self.self_s: Counter[str] = Counter()
        self.work: Counter[str] = Counter()  # "<name>.<stat>" -> count

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def enter(self, name: str) -> None:
        index = len(self.span_start)
        self.span_name.append(self._name_id(name))
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_op.append(self.op)
        self.span_end.append(0.0)
        self._stack.append([index, 0.0])
        self.span_start.append(perf_counter())

    def exit(self, name: str) -> None:
        end = perf_counter()
        index, covered = self._stack.pop()
        self.span_end[index] = end
        duration = end - self.span_start[index]
        if self._stack:
            self._stack[-1][1] += duration
        self.calls[name] += 1
        self.self_s[name] += duration - covered

    @contextmanager
    def span(self, name: str):
        self.enter(name)
        try:
            yield
        finally:
            self.exit(name)

    def stat(self, metric: str) -> float:
        name, _, stat = metric.rpartition(".")
        if stat == "calls" or stat == "queries":
            return self.calls[name]
        if stat == "self_s":
            return self.self_s[name]
        return self.work[metric]

    def write_spans(self, path: Path) -> None:
        """CSV, one span per line; times in seconds from the first span,
        parent -1 for a root span, op -1 outside the operation list."""
        origin = self.span_start[0] if self.span_start else 0.0
        names = self.names
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as out:
            out.write("id,name,start,end,parent,op\n")
            out.writelines(
                f"{i},{names[n]},{s - origin:.9f},{e - origin:.9f},{p},{o}\n"
                for i, (n, s, e, p, o) in enumerate(
                    zip(
                        self.span_name,
                        self.span_start,
                        self.span_end,
                        self.span_parent,
                        self.span_op,
                    )
                )
            )


def _wrap(tracer: Tracer, name: str, fn, work: dict):
    enter, exit_, counts = tracer.enter, tracer.exit, tracer.work
    keys = [(f"{name}.{stat}", measure) for stat, measure in work.items()]

    def traced(*args, **kwargs):
        for key, measure in keys:
            counts[key] += measure(args, kwargs)
        enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            exit_(name)

    return traced


class Installation:
    """The wrappers one tracer put in place, and how to take them out."""

    def __init__(self, package, tracer: Tracer):
        self.tracer = tracer
        self._restore: list[tuple[object, str, object]] = []
        self.cached: list[tuple[str, object]] = []
        modules = [getattr(package, m) for m in MODULES]
        for module_name, attr, work, cached in TARGETS:
            owner = getattr(package, module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
            name = f"{module_name}.{attr}"
            wrapper = _wrap(tracer, name, original, work)
            if path:  # a method: patch it on its class
                self._patch(owner, leaf, wrapper)
            else:
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, key, wrapper)
            if cached:
                self.cached.append((name, original))
        module_name, attr = ORACLE_FACTORY
        self._patch(
            getattr(package, module_name),
            attr,
            self._oracle_factory(getattr(getattr(package, module_name), attr)),
        )

    def _oracle_factory(self, factory):
        tracer = self.tracer

        def traced_factory(*args, **kwargs):
            return _wrap(tracer, ORACLE_SPAN, factory(*args, **kwargs), {})

        return traced_factory

    def _patch(self, owner, key: str, value) -> None:
        self._restore.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._restore):
            setattr(owner, key, value)
        self._restore.clear()


class Snapshot:
    """Counts at one moment: calls, work counts and cache hits.  These must
    repeat exactly when the same operations run again from the same cache
    state."""

    def __init__(self, installation: Installation | None = None):
        self.counts: dict[str, int] = {}
        if installation is not None:
            tracer = installation.tracer
            self.counts.update((f"{k}.calls", v) for k, v in tracer.calls.items())
            self.counts.update(tracer.work)
            for name, original in installation.cached:
                self.counts[f"{name}.cache_hits"] = original.cache_info().hits

    def minus(self, earlier: "Snapshot") -> "Snapshot":
        delta = Snapshot()
        for key, value in self.counts.items():
            if value != earlier.counts.get(key, 0):
                delta.counts[key] = value - earlier.counts.get(key, 0)
        return delta

    def hit_ratio(self, name: str) -> float:
        """Cache hits per traced call; 0 when the function was not called."""
        calls = self.counts.get(f"{name}.calls", 0)
        return self.counts.get(f"{name}.cache_hits", 0) / calls if calls else 0.0
