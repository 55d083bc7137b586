"""Acceptance suite: one test per criterion, each printing a PASS line.

Every tolerance here is exact (boolean/bit-for-bit equality); each
criterion also carries the runtime budget it must fit in, asserted
against the measured wall time.  Run with ``pytest -s`` to see the
per-criterion lines.
"""

import random
import time
from collections import deque

import numpy as np

from oracles import (
    comb_forbidden_by_rules, naive_in_language, naive_words, orbit_sft_forbidden,
    periodic_orbit_count,
)
from starshift import (
    cli,
    core_words as cw,
    full_group as fg,
    gray_factor as gf,
    jump_action as ja,
    subshift as sm,
    tree_action as ta,
)
from starshift.full_group import Window
from starshift.subshift import WangTile, ZSft


class Criterion:
    def __init__(self, number: int, label: str, budget_seconds: float):
        self.number = number
        self.label = label
        self.budget = budget_seconds
        self.start = time.perf_counter()

    def finish(self, ok: bool, detail: str = ""):
        elapsed = time.perf_counter() - self.start
        verdict = "PASS" if ok and elapsed < self.budget else "FAIL"
        suffix = f" [{detail}]" if detail else ""
        print(
            f"criterion {self.number:02d} ({self.label}): {verdict}"
            f" ({elapsed:.1f}s < {self.budget:.0f}s){suffix}"
        )
        assert ok, f"criterion {self.number} failed"
        assert elapsed < self.budget, f"criterion {self.number} overran its budget"


def test_criterion_01_table1_reproduction():
    crit = Criterion(1, "table1 reproduction", 60)
    rows = ja.table1(6, 50)
    pattern_ok = rows == [
        [p in (1, 2, 4, 8) for p in range(1, 51)] for _ in range(6)
    ]
    golden = "n\\p,1,2,3,4,5,6,7,8,9,10-50\n" + "".join(
        f"{n},1,1,0,1,0,0,0,1,0,0\n" for n in range(1, 7)
    )
    layout_ok = cli._table1_csv(rows, 50, paper_layout=True) == golden
    crit.finish(pattern_ok and layout_ok)


def test_criterion_02_conjugacy_suite():
    crit = Criterion(2, "conjugacy suite", 30)
    ok = True
    for n in range(1, 15):
        codes = gf.phi(n).codes
        w = cw.build_w(n)
        for g in "abcd":
            jump = ja.linear_jump_permutation(w, g)
            tree = ta.level_permutation(g, n)
            ok &= bool(np.array_equal(codes[jump], tree[codes]))
    crit.finish(ok, "n <= 14, all generators, all star positions")


def test_criterion_03_language_characterizations():
    crit = Criterion(3, "language characterizations", 60)
    ok = True
    for length in range(128):
        n = 1
        while 2**n - 1 < length:
            n += 1
        host = cw.build_w(n + 3)
        in_host = {host[i : i + length] for i in range(len(host) - length + 1)}
        in_pairs = set()
        w = cw.build_w(n)
        for alpha in "BCD":
            double = w + alpha + w
            in_pairs.update(
                double[i : i + length] for i in range(len(double) - length + 1)
            )
        deep = cw.build_w(13)
        in_deep = {deep[i : i + length] for i in range(len(deep) - length + 1)}
        ok &= set(cw.language_words(length)) == in_host == in_pairs == in_deep
    crit.finish(ok, "|u| <= 127, three characterizations and the listing")


def test_criterion_04_minimality_bound():
    crit = Criterion(4, "minimality bound", 60)
    ok = True
    for n in range(1, 9):
        w = cw.build_w(n)
        ok &= all(w in u for u in cw.language_words(2 ** (n + 1) - 1))
    crit.finish(ok, "n <= 8")


def test_criterion_05_aperiodicity():
    crit = Criterion(5, "aperiodicity via approximations", 120)
    witnessed = {}
    ok = True
    for p in range(1, 17):
        order = 2
        while order <= 8 * p:
            sft = sm.sft_approximation(order)
            points = sm.periodic_points(sft, p)
            # every step checks the points it reads: one per orbit, counted
            # by the traces of the adjacency powers, in the alphabet's order
            ok &= len(points) == periodic_orbit_count(sft, p)
            ranks = [[sft.alphabet.index(c) for c in point] for point in points]
            ok &= all(a < b for a, b in zip(ranks, ranks[1:]))
            if not points:
                witnessed[p] = order
                break
            order = order + 1 if order < 8 else order + 4
    ok &= all(p in witnessed and witnessed[p] <= 8 * p for p in range(1, 17))
    detail = "witnessed L: " + ", ".join(
        f"p{p}:L{witnessed.get(p, '-')}" for p in range(1, 17)
    )
    crit.finish(ok, detail)


def test_criterion_06_factor_map_suite():
    crit = Criterion(6, "factor-map suite", 60)
    ok = True
    # Gray table invariants up to n = 16
    for n in range(1, 17):
        codes = gf.phi(n).codes
        diffs = codes[:-1] ^ codes[1:]
        ok &= bool(codes[0] == 2**n - 1 and codes[-1] == 2**n - 2)
        ok &= bool(np.all(diffs != 0) and np.all(diffs & (diffs - 1) == 0))
        ok &= bool(np.array_equal(np.sort(codes), np.arange(2**n)))
    # tower consistency and reversal invariance on >= 10,000 windows, and
    # psi(g.x) = g.psi(x) for one seeded word g of 1-6 letters per window
    letters = cw.build_w(12)
    rng = random.Random(6)
    windows = 0
    for width, depth in ((129, 4), (257, 5), (513, 6)):
        for start in range(len(letters) - width + 1):
            win = Window(letters[start : start + width], width // 2)
            values = gf.psi_tower(depth, win)
            ok &= all(b.startswith(a) for a, b in zip(values, values[1:]))
            ok &= gf.psi_tower(depth, fg.reverse_window(win)) == values
            windows += 1
            g = "".join(rng.choice("abcd") for _ in range(rng.randint(1, 6)))
            ok &= gf.psi(depth, fg.apply_word(g, win)) == ta.act_word(g, values[-1])
    ok &= windows >= 10000
    # six-witness fibers agree to all visible depths
    for m in range(1, 11):
        wins = gf.six_fiber_witnesses(m)
        ok &= len(wins) == 6
        for k in range(1, m - 1):
            ok &= len({gf.psi(k, w) for w in wins}) == 1
    crit.finish(ok, f"{windows} windows from w_12, G-map compared on all {windows}")


def test_criterion_07_tfg_shift():
    crit = Criterion(7, "full-group shift", 10)
    host = cw.build_w(14)
    offset = 2**12  # w_12 occurs there as a natural block of w_14
    ok = True
    for j in range(2**12):
        win = Window(host, offset + j)
        ok &= fg.shift_as_tfg(win).origin == win.origin + 1
    crit.finish(ok, "all 4096 starrings of w_12")


def test_criterion_08_total_non_freeness():
    crit = Criterion(8, "total non-freeness at desk scale", 120)
    ok = True
    # 1000 seeded reconstructions of 32 letters from w_14 windows
    letters = cw.build_w(14)
    budget = 32
    reach = 2 * budget + 8
    rng = random.Random(2024)
    for _ in range(1000):
        j = rng.randrange(reach, len(letters) - reach)
        hidden = Window(letters, j)
        got = fg.reconstruct_from_stabilizer(
            fg.window_stabilizer_oracle(hidden), budget
        )
        expected = (
            letters[j : j + budget]
            if letters[j] != "a"
            else letters[j - budget : j][::-1]
        )
        ok &= got == expected
    # every pair of distinct starrings of w_8 is separated by a word of
    # length <= 2^8, except the mirror pairs (j, 2^8-1-j): reversing the
    # palindrome w_8 swaps those starrings and commutes with every
    # generator, so they share stabilizers exactly, matching the
    # up-to-reversal form of the reconstruction above.  Breadth-first
    # search over pairs measures the distance to a state where some
    # generator fixes one side only (a separating word has length
    # 2*distance + 1).
    w8 = cw.build_w(8)
    perms = {g: ja.linear_jump_permutation(w8, g) for g in "abcd"}
    size = 2**8
    dist = np.full((size, size), -1, dtype=np.int64)
    queue = deque()
    for u in range(size):
        for v in range(size):
            if u != v and any(
                (perms[g][u] == u) != (perms[g][v] == v) for g in "abcd"
            ):
                dist[u, v] = 0
                queue.append((u, v))
    while queue:
        u, v = queue.popleft()
        for g in "abcd":
            nu, nv = int(perms[g][u]), int(perms[g][v])
            if dist[nu, nv] == -1:
                dist[nu, nv] = dist[u, v] + 1
                queue.append((nu, nv))
    mirror = np.zeros((size, size), dtype=bool)
    for j in range(size):
        mirror[j, size - 1 - j] = True
    off_diagonal = ~np.eye(size, dtype=bool)
    separated = bool(np.all(dist[off_diagonal & ~mirror] >= 0))
    mirrors_inseparable = bool(np.all(dist[mirror] == -1))
    worst = int(dist.max())
    ok &= separated and mirrors_inseparable and 2 * worst + 1 <= 2**8
    crit.finish(ok, f"longest separating word needed: {2 * worst + 1}")


def test_criterion_09_sft_constructions():
    crit = Criterion(9, "union and comb constructions", 60)
    ok = True

    def union_matches_naive(f1, f2, alphabet="01"):
        x1 = ZSft.from_forbidden(alphabet, f1)
        x2 = ZSft.from_forbidden(alphabet, f2)
        union = sm.union_sft(x1, x2)
        return all(
            union.words(n)
            == naive_words(n, alphabet, f1, x1.order)
            | naive_words(n, alphabet, f2, x2.order)
            for n in range(2 * union.order + 1)
        )

    # documented demo instances
    ok &= union_matches_naive(["1"], ["0"])
    ok &= union_matches_naive(["11"], ["0"])
    ok &= union_matches_naive(["2", "3", "11"], ["0", "1", "23"], alphabet="0123")

    # randomized disjoint pairs of periodic-orbit SFTs
    rng = random.Random(99)
    accepted = 0
    while accepted < 100:
        u = "".join(rng.choice("01") for _ in range(rng.randint(1, 4)))
        v = "".join(rng.choice("01") for _ in range(rng.randint(1, 4)))
        f1, f2 = orbit_sft_forbidden(u, "01"), orbit_sft_forbidden(v, "01")
        try:
            ok &= union_matches_naive(f1, f2)
        except sm.DisjointnessError as err:
            # shared orbit: the witness is a word of both inputs; draw again
            ok &= all(
                naive_in_language(err.witness, "01", f, len(w)) for f, w in ((f1, u), (f2, v))
            )
            continue
        accepted += 1

    # comb outputs against the naive oracle on the comb's three rules
    tiles = [WangTile("T", "x", "x")]
    for k in (2, 3):
        comb = sm.comb_sft(tiles, k)
        forbidden = comb_forbidden_by_rules(tiles, k)
        ok &= all(
            comb.words(n) == naive_words(n, comb.alphabet, forbidden, comb.order)
            for n in range(2 * comb.order + 1)
        )
    crit.finish(ok, "100 randomized pairs plus demos")


def test_criterion_10_pseudo_orbit_demo():
    crit = Criterion(10, "pseudo-orbit demo", 60)
    ok = True
    details = []
    for n in range(1, sm.PSEUDO_ORBIT_CAP + 1):
        report = sm.pseudo_orbit_demo(n)
        ok &= report.all_passed
        details.append(f"n{n}:fail@{report.minimal_failing_length}")
    crit.finish(ok, " ".join(details))
