"""Set-up phase of every workload: import starshift and fill its caches.

Run as a script, this is one set-up sample: ``run.py`` times a fresh
interpreter from start to exit, so import, warm-up and interpreter start
are all inside the figure.  ``run.py`` also imports ``warm_up`` to bring
its own process to the same state before timing operations.

The language oracle's cache is deliberately left cold: filling it is part
of the work the workloads measure.
"""

from __future__ import annotations

import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# Largest sizes any workload touches: w_15 hosts the stabilizer windows and
# its language check reads w_18; tree depths reach 13 and the conjugacy
# identity level 14; pseudo-orbit ops use relator exponents 0..8.
MAX_WORD = 18
MAX_LEVEL = 14
MAX_GRAY = 15
MAX_T = 8


def import_starshift():
    """Import the package from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "starshift" / "__init__.py").is_file():
        raise ImportError(f"no starshift sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import starshift
    from starshift import cli

    if Path(starshift.__file__).resolve().parent != SRC / "starshift":
        raise ImportError(f"starshift was imported from {starshift.__file__}")
    return starshift, cli


def warm_up(starshift) -> None:
    for n in range(1, MAX_WORD + 1):
        starshift.core_words.build_w(n)
    for t in range(MAX_T + 1):
        starshift.jump_action.relation_set(t)
    for m in range(1, MAX_LEVEL + 1):
        for g in "abcd":
            starshift.tree_action.level_permutation(g, m)
    for n in range(1, MAX_GRAY + 1):
        starshift.gray_factor.phi(n)
    for g in "abcd":
        starshift.full_group.generator_cocycle(g)


if __name__ == "__main__":
    package, _ = import_starshift()
    warm_up(package)
