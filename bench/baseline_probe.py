"""One-shot probe of the ROADMAP baseline cases; not part of the gated runs.

    python3 bench/baseline_probe.py

Reruns each case of the ROADMAP baseline table once, through public
calls, and prints its wall time next to the figure the ROADMAP records,
so a later change can cite both.  One run of each case takes about a
minute in all on two CPUs.
"""

from __future__ import annotations

import sys
import time

import setup_probe
from reference import w

# (case, seconds in the ROADMAP baseline table)
ROADMAP = {
    "jump_action.table1(8, 64, 8)": 14.6,
    "subshift.pseudo_orbit_demo(8)": 15.7,
    'tree_action.level_permutation("c", 20)': 1.36,
    "criterion 06 tower sweep on w_12": 7.9,
    "apply_generator vs jump_generator on w_12": 9.2,
}


def tower_sweep(pkg) -> bool:
    """The window loop of acceptance criterion 06."""
    fg, gf = pkg.full_group, pkg.gray_factor
    letters = w(12)
    ok = True
    for width, depth in ((129, 4), (257, 5), (513, 6)):
        for start in range(len(letters) - width + 1):
            win = fg.Window(letters[start : start + width], width // 2)
            values = [gf.psi(k, win) for k in range(1, depth + 1)]
            mirrored = fg.reverse_window(win)
            ok &= all(b.startswith(a) for a, b in zip(values, values[1:]))
            ok &= [gf.psi(k, mirrored) for k in range(1, depth + 1)] == values
    return ok


def generator_sweep(pkg) -> bool:
    """Every window move of w_12 against the jump action on starred words."""
    fg, ja = pkg.full_group, pkg.jump_action
    letters = w(12)
    ok = True
    for j in range(1, len(letters)):
        win, starred = fg.Window(letters, j), ja.StarredWord(letters, j)
        for g in "abcd":
            ok &= fg.apply_generator(g, win).origin == ja.jump_generator(g, starred).star
    return ok


def main() -> int:
    try:
        pkg, _ = setup_probe.import_starshift()
    except ImportError as exc:
        print(f"cannot import starshift from this checkout: {exc}", file=sys.stderr)
        return 2
    cases = {
        "jump_action.table1(8, 64, 8)": lambda: all(
            row == [p in (1, 2, 4, 8) for p in range(1, 65)]
            for row in pkg.jump_action.table1(8, 64, 8)
        ),
        "subshift.pseudo_orbit_demo(8)": lambda: pkg.subshift.pseudo_orbit_demo(8).all_passed,
        'tree_action.level_permutation("c", 20)': lambda: len(
            pkg.tree_action.level_permutation("c", 20)
        ) == 1 << 20,
        "criterion 06 tower sweep on w_12": lambda: tower_sweep(pkg),
        "apply_generator vs jump_generator on w_12": lambda: generator_sweep(pkg),
    }
    print(f"{'case':45s} {'now (s)':>9s} {'ROADMAP (s)':>12s}  check")
    all_ok = True
    for name, run in cases.items():
        start = time.perf_counter()
        ok = run()
        elapsed = time.perf_counter() - start
        all_ok &= ok
        print(f"{name:45s} {elapsed:9.2f} {ROADMAP[name]:12.2f}  {'ok' if ok else 'WRONG'}")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
