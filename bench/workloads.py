"""The three workloads: seeded operation lists and the checks on their results.

A workload is a list of rounds.  Every round holds the same operation
kinds in the same numbers, and the parameters that set an operation's
cost are stratified inside a round (or cycle through their range across
rounds), so two seeds give lists of nearly equal cost; the seed picks the
remaining parameters and the order.  ``--seconds`` fixes the number of
rounds through ``ROUND_SECONDS``, the time a round took on the reference
machine recorded in NOTES.md, so the list never depends on how fast the
program runs.

Each operation is a call into the program, either ``starshift.cli.main``
with a generated argv or a public library function with generated words,
and a check against an expectation computed here, mostly from
``reference``.  Negative controls are operations whose correct answer is
"not trivial" or "not verified": they fail their check if the program
silently answers yes.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

import reference as ref


@dataclass
class Op:
    kind: str
    call: Callable[["Program"], object]
    check: Callable[[object], bool]


class Program:
    """The starshift package as the operations see it."""

    def __init__(self, package, cli):
        self.pkg = package
        self._cli = cli
        self.tracer = None

    def cli(self, argv: list[str]) -> tuple[int, str]:
        """Run one subcommand in-process; returns (exit code, stdout)."""
        out, err = io.StringIO(), io.StringIO()
        if self.tracer is None:
            return self._run_cli(argv, out, err), out.getvalue()
        with self.tracer.span(f"cli.{argv[0]}"):
            code = self._run_cli(argv, out, err)
        return code, out.getvalue()

    def _run_cli(self, argv, out, err) -> int:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                return self._cli.main(argv)
            except SystemExit as exc:  # argparse rejects the argv
                return exc.code if isinstance(exc.code, int) else 2


def cycle(rng: random.Random, values):
    """Endless draws using every value once per pass, in a seeded order."""
    while True:
        order = list(values)
        rng.shuffle(order)
        yield from order


def _json(code_and_text) -> dict | None:
    code, text = code_and_text
    return json.loads(text) if code == 0 else None


# ------------------------------------------------------- relator-survival


def _table1_op(n_max: int, p_max: int, t: int) -> Op:
    argv = ["table1", "--n-max", str(n_max), "--p-max", str(p_max), "--t", str(t)]
    header = "n\\p," + ",".join(str(p) for p in range(1, p_max + 1))
    row = ",".join("1" if p in ref.TABLE1_POWERS else "0" for p in range(1, p_max + 1))
    expected = (0, "\n".join([header] + [f"{n},{row}" for n in range(1, n_max + 1)]) + "\n")
    return Op("table1", lambda prog: prog.cli(argv), lambda got: got == expected)


def _tree_op(word: str, m: int, trivial: bool) -> Op:
    return Op(
        "tree",
        lambda prog: prog.pkg.tree_action.is_trivial_up_to_depth(word, m),
        lambda got: got is trivial,
    )


def _conjugacy_op(n: int, g: str, other: str) -> Op:
    letters = ref.w(n)

    def call(prog):
        codes = prog.pkg.gray_factor.phi(n).codes
        jumps = codes[prog.pkg.jump_action.linear_jump_permutation(letters, g)]
        tree = prog.pkg.tree_action.level_permutation
        return (
            bool(np.array_equal(jumps, tree(g, n)[codes])),
            bool(np.array_equal(jumps, tree(other, n)[codes])),
        )

    # the second comparison pairs the jumps of g with the tree action of
    # another generator, which must differ
    return Op("conjugacy", call, lambda got: got == (True, False))


def relator_survival(rng: random.Random, rounds: int, wrong: bool) -> list[Op]:
    # three narrow strata across 9..32: the seed moves p_max, barely its cost
    p_strata = ((11, 14), (19, 22), (27, 30))
    tree_k = cycle(rng, range(5))
    tree_m = cycle(rng, range(8, 14))
    conj_n = cycle(rng, range(10, 13))
    conj_g = cycle(rng, "abcd")
    ops = []
    for _ in range(rounds):
        batch = []
        for n_max in range(1, 7):
            for t in range(6, 9):
                # a Latin square over (n_max, t): each t meets every stratum
                # of p_max equally often, which keeps rounds of equal cost
                lo, hi = p_strata[(n_max + t) % 3]
                batch.append(_table1_op(n_max, rng.randint(lo, hi), t))
        # 12 tree words and 3 identities cost less than any table1 op, so
        # p50 falls among the n_max=1, t=7 tables
        for i in range(12):
            base = "adadadad" if i % 2 == 0 else "adacac" * 4
            word = ref.kappa_power(base, next(tree_k))
            trivial = i < 6
            if not trivial:
                # dropping one `a` makes the a-count odd, so the word moves
                # the first tree level
                drop = rng.choice([j for j, c in enumerate(word) if c == "a"])
                word = word[:drop] + word[drop + 1 :]
            batch.append(_tree_op(word, next(tree_m), trivial != wrong))
        for _ in range(3):
            g = next(conj_g)
            batch.append(_conjugacy_op(next(conj_n), g, "abcd"[("abcd".index(g) + 1) % 4]))
        rng.shuffle(batch)
        ops += batch
    return ops


# ------------------------------------------------------------ window-walk


def _stabilizer_op(seed: int, budget: int, source_n: int, wrong: bool) -> Op:
    argv = ["stabilizer", "--seed", str(seed), "--budget", str(budget),
            "--source-n", str(source_n)]
    letters = ref.w(source_n)
    reach = 2 * budget + 8

    def check(got) -> bool:
        report = _json(got)
        if report is None or not report["verified"]:
            return False
        origin = report["origin"]
        if not reach <= origin < len(letters) - reach:
            return False
        if wrong:  # a deliberately misplaced slice
            origin += 1
        # the letter next to the origin that is not `a` decides which side
        # the reading went, as in the acceptance suite's criterion 08
        if letters[origin] != "a":
            expected, side = letters[origin : origin + budget], "right"
        else:
            expected, side = letters[origin - budget : origin][::-1], "left"
        return report["recovered"] == expected and report["orientation"] == side

    return Op("stabilizer", lambda prog: prog.cli(argv), check)


def _tower_op(start: int, width: int, depth: int) -> Op:
    letters = ref.w(14)[start : start + width]
    position = start + width // 2
    expected = [ref.psi_of_position(k, position) for k in range(1, depth + 1)]

    def call(prog):
        fg, gf = prog.pkg.full_group, prog.pkg.gray_factor
        window = fg.Window(letters, width // 2)
        values = [gf.psi(k, window) for k in range(1, depth + 1)]
        mirrored = fg.reverse_window(window)
        return values, [gf.psi(k, mirrored) for k in range(1, depth + 1)]

    def check(got) -> bool:
        values, mirrored = got
        prefixes = all(b.startswith(a) for a, b in zip(values, values[1:]))
        return prefixes and values == mirrored == expected

    return Op("tower", call, check)


def _schreier_op(n: int) -> Op:
    argv = ["schreier", "--n", str(n), "--format", "json"]
    expected_edges = ref.schreier_edges(n)
    marked = "*" + ref.w(n)

    def check(got) -> bool:
        graph = _json(got)
        if graph is None or graph["marked"] != marked:
            return False
        edges = {(frozenset((s, d)), g) for s, g, d in graph["edges"]}
        return len(graph["vertices"]) == 2**n and edges == expected_edges

    return Op("schreier", lambda prog: prog.cli(argv), check)


def window_walk(rng: random.Random, rounds: int, wrong: bool) -> list[Op]:
    shapes = ((129, 4), (257, 5), (513, 6))
    host = len(ref.w(14))
    used: set[tuple[int, int]] = set()
    ops = []
    for _ in range(rounds):
        # budget 16 twice: with the towers below and the orbit graphs above,
        # p50 then falls inside the budget-16 group and p90 on schreier n=7
        batch = [
            _stabilizer_op(rng.randrange(10**6), budget, source_n, wrong)
            for budget in (16, 16, 32, 48)
            for source_n in (13, 14, 15)
        ]
        for width, depth in shapes * 3:
            start = rng.randrange(host - width + 1)
            while (start, width) in used:  # every tower reads a fresh slice
                start = rng.randrange(host - width + 1)
            used.add((start, width))
            batch.append(_tower_op(start, width, depth))
        batch += [_schreier_op(n) for n in range(6, 10)]
        rng.shuffle(batch)
        ops += batch
    return ops


# ----------------------------------------------------------- language-sft


def _necklaces(length: int, symbols: int) -> int:
    """Rotation classes of words of the given length (Polya / Moreau)."""
    total = sum(
        _euler_phi(d) * symbols ** (length // d)
        for d in range(1, length + 1)
        if length % d == 0
    )
    return total // length


def _euler_phi(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def _pseudo_orbit_op(n: int, t: int) -> Op:
    argv = ["pseudo-orbit", "--n", str(n), "--t", str(t)]
    period = 2**n
    ring = ref.w(n) + ref.alpha(n)
    repetition = ring * 8

    def check(got) -> bool:
        report = _json(got)
        if report is None:
            return False
        witness = report["failing_word"]
        return (
            report["all_passed"] is True
            and all(report["checks"].values())
            and (report["n"], report["period"], report["alpha"]) == (n, period, ref.alpha(n))
            and report["window_length"] == 4 * period
            and len(witness) == report["minimal_failing_length"] > 0
            and witness in repetition
            and not ref.in_language(witness)
        )

    return Op("pseudo-orbit", lambda prog: prog.cli(argv), check)


def _aperiodicity_op(p: int, wrong: bool) -> Op:
    # alternating period-p points at order 2 are the necklaces of the p/2
    # letters between the `a`s; odd periods have none
    first = _necklaces(p // 2, 3) if p % 2 == 0 else 0
    if wrong:
        first += 1

    def call(prog):
        sm = prog.pkg.subshift
        scanned = []
        order = 2
        while order <= 8 * p:
            count = len(sm.periodic_points(sm.sft_approximation(order), p))
            scanned.append((order, count))
            if count == 0:
                break
            order = order + 1 if order < 8 else order + 4
        return scanned

    def check(got) -> bool:
        return got[0] == (2, first) and got[-1][1] == 0 and got[-1][0] <= 8 * p

    return Op("aperiodicity", call, check)


def _comb_op(k: int) -> Op:
    # one self-matching tile on a single residue class mod k: one periodic
    # orbit for every period divisible by k, none otherwise
    expected = {str(p): int(p % k == 0) for p in range(1, 4 * k + 1)}

    def check(got) -> bool:
        report = _json(got)
        return (
            report is not None
            and report["k"] == k
            and report["single_phase"] is True
            and report["periods_multiples_of_k"] is True
            and report["periodic_point_counts"] == expected
        )

    return Op("sft-comb", lambda prog: prog.cli(["sft", "comb-demo", "--k", str(k)]), check)


def _union_op() -> Op:
    def check(got) -> bool:
        report = _json(got)
        return (
            report is not None
            and report["languages_equal"] is True
            and report["order"] == report["separation_order"] + 1
            and report["checked_up_to"] == 2 * report["order"]
        )

    return Op("sft-union", lambda prog: prog.cli(["sft", "union-demo"]), check)


def language_sft(rng: random.Random, rounds: int, wrong: bool) -> list[Op]:
    ops = []
    for _ in range(rounds):
        batch = [_pseudo_orbit_op(n, rng.randint(0, 8)) for n in range(3, 7)]
        batch += [_aperiodicity_op(p, wrong) for p in range(1, 17)]
        batch += [_comb_op(k) for k in (2, 3, 4)]
        batch += [_union_op(), _union_op()]
        rng.shuffle(batch)
        ops += batch
    return ops


WORKLOADS = {
    "relator-survival": relator_survival,
    "window-walk": window_walk,
    "language-sft": language_sft,
}

# Seconds one round took untraced on the reference machine (NOTES.md).
ROUND_SECONDS = {
    "relator-survival": 1.5,
    "window-walk": 0.38,
    "language-sft": 1.15,
}


def build(name: str, seed: int, seconds: float, wrong: bool = False) -> list[Op]:
    rounds = max(1, round(seconds / ROUND_SECONDS[name]))
    return WORKLOADS[name](random.Random(f"{name}/{seed}"), rounds, wrong)
