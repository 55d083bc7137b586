"""Command-line entry point.

Subcommands wire the library into reproducible experiments with stable
file outputs.  Exit codes follow one contract everywhere: 0 means the
run verified, 1 means a verification failed, 2 means a usage or I/O
error.  Identical flags (including seeds) produce byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from functools import cache

import numpy as np

from . import core_words, full_group, gray_factor, jump_action, subshift, tree_action
from .errors import SizeLimitError, StarshiftError
from .full_group import SCHREIER_LOG2_CAP, Window

EXPECTED_POWERS = (1, 2, 4, 8)

# at most this many letters recovered by `stabilizer`: each letter is one
# walk of its conjugator, on from the last, on tables grown to the reach
# the conjugators need, so the oracle walks about budget letters and
# builds no query word
STABILIZER_BUDGET_CAP = 4096


def _write(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


def _emit_json(path: str | None, payload: dict) -> None:
    _write(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------- table1


def _table1_csv(rows: list[list[bool]], p_max: int, paper_layout: bool) -> str:
    def cell(v: bool) -> str:
        return "1" if v else "0"

    lines = []
    if paper_layout and p_max >= 10:
        header = ["n\\p"] + [str(p) for p in range(1, 10)] + [f"10-{p_max}"]
        lines.append(",".join(header))
        for n, row in enumerate(rows, start=1):
            tail = row[9:]
            grouped = cell(tail[0]) if len(set(tail)) == 1 else "x"
            lines.append(",".join([str(n)] + [cell(v) for v in row[:9]] + [grouped]))
    else:
        header = ["n\\p"] + [str(p) for p in range(1, p_max + 1)]
        lines.append(",".join(header))
        for n, row in enumerate(rows, start=1):
            lines.append(",".join([str(n)] + [cell(v) for v in row]))
    return "\n".join(lines) + "\n"


def cmd_table1(args: argparse.Namespace) -> int:
    rows = jump_action.table1(args.n_max, args.p_max, args.t)
    _write(args.out, _table1_csv(rows, args.p_max, args.paper_layout))
    expected = [
        [p in EXPECTED_POWERS for p in range(1, args.p_max + 1)]
    ] * args.n_max
    return 0 if rows == expected else 1


# ---------------------------------------------------------------- verify


def _check_recursion(max_n: int) -> bool:
    # the Toeplitz law: index i >= 1 carries `a` when i is odd, and D, C, B
    # as v2(i) runs over 1, 2, 3 (mod 3) otherwise; it fixes every letter
    for n in range(1, max_n + 1):
        word = core_words.build_w(n)
        # the letters at the indices i with v2(i) = j, other than the law's
        off_law = (word[2**j - 1 :: 2 ** (j + 1)].strip("BDC"[j % 3] if j else "a")
                   for j in range(n))
        if len(word) != 2**n - 1 or any(off_law):
            return False
    return True


def _check_conjugacy(max_n: int) -> bool:
    for n in range(1, min(max_n, tree_action.DEPTH_CAP) + 1):
        codes = gray_factor.phi(n).codes
        w = core_words.build_w(n)
        if len(w) != 2**n - 1:  # the tables would not index the 2^n codes
            return False
        for g in "abcd":
            jumps = jump_action.linear_jump_permutation(w, g)
            trees = tree_action.word_permutation(g, n)
            if not np.array_equal(codes[jumps], trees[codes]):
                return False
    return True


def _check_gray_tables(max_n: int) -> bool:
    for n in range(1, min(max_n, gray_factor.GRAY_CAP) + 1):
        codes = gray_factor.phi(n).codes
        diffs = codes[:-1] ^ codes[1:]
        ok = (
            codes[0] == 2**n - 1
            and codes[-1] == 2**n - 2
            and bool(np.all(diffs != 0))
            and bool(np.all(diffs & (diffs - 1) == 0))
            and bool(np.array_equal(np.sort(codes), np.arange(2**n)))
            and bool(np.array_equal(codes >> 1, (codes >> 1)[::-1]))
        )
        if not ok:
            return False
    return True


def _check_factor_tower(max_n: int) -> bool:
    m = min(max(max_n, 5), 12)  # w_5 has the least depth-1 window; w_13 takes 2 s
    letters = core_words.build_w(m)
    for origin in range(2**m):
        window = Window(letters, origin)
        # the deepest k < m whose margin 2^(k+2) the window has
        depth = min(m - 1, window.margin.bit_length() - 3)
        if depth < 1:
            continue
        values = gray_factor.psi_tower(depth, window)
        if gray_factor.psi_tower(depth, full_group.reverse_window(window)) != values:
            return False
        if not all(b.startswith(a) for a, b in zip(values, values[1:])):
            return False
    return True


def _check_language_equivalence(max_n: int) -> bool:
    # the library's listing against the factors of a host and a deeper word
    longest = min(2**max_n - 1, 63)
    for length in range(longest + 1):
        n = max(1, length.bit_length())
        hosts = core_words.build_w(n + 3), core_words.build_w(min(n + 6, 16))
        found = [{w[i : i + length] for i in range(len(w) - length + 1)} for w in hosts]
        if not (core_words.language_set(length) == found[0] == found[1]):
            return False
    return True


def _check_minimality(max_n: int) -> bool:
    for n in range(1, min(max_n, 6) + 1):
        w = core_words.build_w(n)
        for u in core_words.language_set(2 ** (n + 1) - 1):
            if w not in u:
                return False
    return True


def cmd_verify(args: argparse.Namespace) -> int:
    core_words.check_word_cap(args.max_n)
    checks = [
        ("w-recursion", lambda: _check_recursion(args.max_n)),
        ("conjugacy", lambda: _check_conjugacy(args.max_n)),
        ("gray-tables", lambda: _check_gray_tables(args.max_n)),
        ("factor-tower", lambda: _check_factor_tower(args.max_n)),
        ("language-equivalence", lambda: _check_language_equivalence(args.max_n)),
        ("minimality", lambda: _check_minimality(args.max_n)),
    ]
    lines = []
    all_ok = True
    for name, run in checks:
        ok = run()
        all_ok &= ok
        lines.append(f"{name:16s} {'PASS' if ok else 'FAIL'}")
    _write(args.out, "\n".join(lines) + "\n")
    return 0 if all_ok else 1


# ---------------------------------------------------------------- schreier


def cmd_schreier(args: argparse.Namespace) -> int:
    if args.require_action and not args.circular:
        raise StarshiftError("--require-action checks circular starrings: "
                             "it needs --circular")
    if args.p != 1 and not args.circular:
        raise StarshiftError("--p counts circular repetitions: it needs --circular")
    # the cap of schreier_graph, read before any word or relator table is built
    copies = args.p if args.circular else 1
    if args.n > SCHREIER_LOG2_CAP or copies > 2 ** (SCHREIER_LOG2_CAP - args.n):
        raise SizeLimitError(f"a graph on {copies} * 2^{args.n} starrings "
                             f"exceeds the cap of 2^{SCHREIER_LOG2_CAP}")
    if args.circular:
        ring = core_words.ring(args.n)
        if args.require_action:
            failing = jump_action.moving_relator(ring, p=args.p)
            if failing is not None:
                relator = jump_action.relator_name(failing)
                sys.stderr.write(
                    f"action not well-defined: relator {relator} moves a starring\n"
                )
                return 1
    graph = full_group.schreier_graph(
        ring * args.p if args.circular else core_words.build_w(args.n), args.circular
    )
    _write(args.out, graph.to_dot() if args.format == "dot" else graph.to_json())
    return 0


# ------------------------------------------------------------ pseudo-orbit


def cmd_pseudo_orbit(args: argparse.Namespace) -> int:
    report = subshift.pseudo_orbit_demo(args.n, t=args.t)
    _emit_json(args.out, report.to_dict())
    return 0 if report.all_passed else 1


# ------------------------------------------------------------- stabilizer


def cmd_stabilizer(args: argparse.Namespace) -> int:
    if args.budget > STABILIZER_BUDGET_CAP:
        raise SizeLimitError(f"--budget {args.budget} exceeds the cap "
                             f"{STABILIZER_BUDGET_CAP}")
    letters = core_words.build_w(args.source_n)
    reach = 2 * args.budget + 8
    if len(letters) < 2 * reach + 1:
        raise StarshiftError("source word too short for the requested budget")
    rng = random.Random(args.seed)
    origin = rng.randrange(reach, len(letters) - reach)
    # the longest query has 2 budget - 1 letters, within the reach, and
    # the hidden window is the host cut to it, which is all it validates
    hidden = Window(letters[origin - reach : origin + reach], reach)
    oracle = full_group.window_stabilizer_oracle(hidden)
    recovered = full_group.reconstruct_from_stabilizer(oracle, args.budget)
    rightward = letters[origin : origin + args.budget]
    leftward = letters[origin - args.budget : origin][::-1]
    orientation = "right" if recovered == rightward else (
        "left" if recovered == leftward else "mismatch"
    )
    _emit_json(
        args.out,
        {
            "seed": args.seed,
            "budget": args.budget,
            "source_n": args.source_n,
            "origin": origin,
            "recovered": recovered,
            "orientation": orientation,
            "verified": orientation != "mismatch",
        },
    )
    return 0 if orientation != "mismatch" else 1


# -------------------------------------------------------------------- sft


def cmd_sft(args: argparse.Namespace) -> int:
    if args.demo == "union-demo":
        if args.k is not None:
            raise StarshiftError("--k sets the comb's period: it needs comb-demo")
        x1 = subshift.ZSft.from_forbidden("01", ["11"])  # no two adjacent ones
        x2 = subshift.ZSft.from_forbidden("01", ["0"])  # the all-ones point
        union = subshift.union_sft(x1, x2)
        horizon = 2 * union.order
        agree = all(
            union.words(n) == (x1.words(n) | x2.words(n)) for n in range(horizon + 1)
        )
        if args.points_out is not None:
            points = {p: subshift.periodic_points(union, p) for p in range(1, horizon + 1)}
            _write(args.points_out, subshift.periodic_points_jsonl(points))
        _emit_json(
            args.out,
            {
                "demo": "union",
                "separation_order": union.order - 1,
                "order": union.order,
                "forbidden": list(union.forbidden),
                "checked_up_to": horizon,
                "languages_equal": agree,
            },
        )
        return 0 if agree else 1
    tile = subshift.WangTile("T", "x", "x")
    k = 2 if args.k is None else args.k
    if 4 * k > subshift.PERIOD_CAP:
        raise SizeLimitError(f"--k {k} checks the periods up to 4k = {4 * k}, "
                             f"beyond the cap {subshift.PERIOD_CAP}")
    comb = subshift.comb_sft([tile], k)
    points = {p: subshift.periodic_points(comb, p) for p in range(1, 4 * k + 1)}
    counts = {p: len(ws) for p, ws in points.items()}
    if args.points_out is not None:
        _write(args.points_out, subshift.periodic_points_jsonl(points))

    def single_phase(word: str) -> bool:
        residues = {i % k for i, c in enumerate(word + word) if c != subshift.BLANK}
        return len(residues) == 1

    phase_ok = all(single_phase(w) for ws in points.values() for w in ws)
    expected = all(
        (counts[p] > 0) == (p % k == 0) for p in range(1, 4 * k + 1)
    )
    _emit_json(
        args.out,
        {
            "demo": "comb",
            "k": k,
            "alphabet": list(comb.alphabet),
            "order": comb.order,
            "periodic_point_counts": {str(p): c for p, c in counts.items()},
            "single_phase": phase_ok,
            "periods_multiples_of_k": expected,
        },
    )
    return 0 if phase_ok and expected else 1


# ------------------------------------------------------------------- main


def _at_least(low: int):
    """argparse type for an integer flag; a value below ``low`` exits with code 2."""
    def integer(text: str) -> int:
        if int(text) < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {text}")
        return int(text)
    return integer


@cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process; its
    ``subcommands`` maps each subcommand name to that subcommand's parser."""
    parser = argparse.ArgumentParser(
        prog="starshift",
        description="Starred-word actions, their tree factor, and SFT experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "table1",
        help="relator survival table for circular words",
        description="Survival of the relator family on the circular words "
        "(w_n alpha)^p.  Each row is read off one lift to the Z-cover: p "
        "survives iff it divides the gcd of the relators' winding numbers, "
        "8 on the whole family, so the ones sit at p in {1, 2, 4, 8}.  --t T "
        "stops the family at the kappa^T seeds.",
    )
    p.add_argument("--n-max", type=_at_least(1), default=6)
    p.add_argument("--p-max", type=_at_least(1), default=50)
    p.add_argument("--t", type=_at_least(0), default=None)
    p.add_argument("--paper-layout", action="store_true",
                   help="group columns 10..p-max into one")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_table1)

    p = sub.add_parser("verify", help="run the invariant checks")
    p.add_argument("--max-n", type=_at_least(1), default=10)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("schreier", help="export an orbit graph")
    p.add_argument("--n", type=_at_least(1), default=3)
    p.add_argument("--circular", action="store_true")
    p.add_argument("--p", type=_at_least(1), default=1)
    p.add_argument("--require-action", action="store_true",
                   help="fail unless the relators fix every circular starring")
    p.add_argument("--format", choices=("dot", "json"), default="dot")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_schreier)

    p = sub.add_parser("pseudo-orbit", help="periodic pseudo-point checks")
    p.add_argument("--n", type=_at_least(1), default=2)
    p.add_argument("--t", type=_at_least(0), default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_pseudo_orbit)

    p = sub.add_parser("stabilizer", help="reconstruct a hidden window from its stabilizer")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=_at_least(1), default=32)
    p.add_argument("--source-n", type=_at_least(1), default=14)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_stabilizer)

    p = sub.add_parser("sft", help="union and comb construction demos")
    p.add_argument("demo", choices=("union-demo", "comb-demo"))
    p.add_argument("--k", type=_at_least(2), default=None)
    p.add_argument("--points-out", default=None,
                   help="also write a periodic-point report as JSON lines")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_sft)

    parser.subcommands = sub.choices
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand; ``argv`` defaults to ``sys.argv[1:]``.

    Returns 0 when the run verified, 1 when a verification failed and 2
    on a refused input or an I/O error, which is written to stderr as one
    ``error:`` or ``i/o error:`` line.  argparse raises ``SystemExit(0)``
    after help and ``SystemExit(2)`` on a usage error, which it words on
    stderr under a usage line.

    An argv that starts with a subcommand name is parsed by that
    subcommand's parser alone, and leftover arguments are reported by the
    top-level parser, in the words of its ``parse_args``.  Every other
    argv (empty, ``-h``, an unknown name) goes through the top-level
    parser.  Help and usage errors read the same on both routes.
    """
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    command = parser.subcommands.get(argv[0]) if argv else None
    if command is None:
        args = parser.parse_args(argv)
    else:
        args, extras = command.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
        if extras:
            parser.error(f"unrecognized arguments: {' '.join(extras)}")
    try:
        return args.func(args)
    except StarshiftError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except OSError as exc:
        sys.stderr.write(f"i/o error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
