import itertools
import random
import re

import numpy as np
import pytest

from oracles import (
    PLACEMENT_BITS, _gray_codes, blocks_by_placement, central_block_by_listing,
    natural_blocks_by_listing, psi_by_offsets, psi_by_placement,
)
from starshift import gray_factor as gf, jump_action as ja, tree_action as ta
from starshift.core_words import build_w
from starshift.errors import MarginExhaustedError, SizeLimitError
from starshift.full_group import Window, apply_word, reverse_window


class TestPhi:
    def test_level_one(self):
        assert gf.phi(1).codes.tolist() == [0b1, 0b0]

    def test_level_two(self):
        assert gf.phi(2).codes.tolist() == [0b11, 0b01, 0b00, 0b10]

    def test_level_three_endpoint(self):
        # phi_3(7) = phi_2(flip(0...)) with a 0 appended
        assert gf.phi(3).codes[7] == 0b110

    @pytest.mark.parametrize("n", range(1, 17))
    def test_formula_matches_the_recursion(self, n):
        # the tables by formula against phi_1 = (1, 0) and phi_{n+1}
        # appending 1 to phi_n, then 0 to phi_n reversed
        codes = gf.phi(n).codes
        assert codes.tolist() == list(_gray_codes(n))
        assert not codes.flags.writeable

    @pytest.mark.parametrize("n", range(1, 13))
    def test_table_invariants(self, n):
        codes = gf.phi(n).codes
        assert codes[0] == 2**n - 1  # all-ones vertex
        assert codes[-1] == 2**n - 2  # 1^{n-1} 0
        diffs = codes[:-1] ^ codes[1:]
        assert np.all(diffs != 0)
        assert np.all(diffs & (diffs - 1) == 0)  # one bit flips per step
        assert np.array_equal(np.sort(codes), np.arange(2**n))

    @pytest.mark.parametrize("n", range(1, 11))
    def test_reflection_identity(self, n):
        codes = gf.phi(n).codes
        # dropping the last bit, position j and its flip agree
        assert np.array_equal(codes >> 1, (codes >> 1)[::-1])

    def test_cap(self):
        with pytest.raises(SizeLimitError):
            gf.phi(21)

    def test_cap_is_reached_from_a_window(self):
        # w_22 is a language query the language cap admits, and its
        # middle origin has the margin 2^21 that depth 19 needs
        window = Window(build_w(22), 2**21)
        assert gf.psi(19, window) == "1" * 19
        with pytest.raises(SizeLimitError, match="gray table for n=21 exceeds the cap 20"):
            gf.psi(20, window)


@pytest.mark.parametrize("n", range(1, 11))
def test_conjugacy_between_jump_and_tree(n):
    codes = gf.phi(n).codes
    w = build_w(n)
    for g in "abcd":
        jump = ja.linear_jump_permutation(w, g)
        tree = ta.level_permutation(g, n)
        assert np.array_equal(codes[jump], tree[codes])


def _value_or_message(fn, *args):
    try:
        return fn(*args)
    except MarginExhaustedError as exc:
        return str(exc)


def _seeded_slices_of_w14(seed, count):
    rng = random.Random(seed)
    host = build_w(14)
    for _ in range(count):
        width = rng.choice([rng.randrange(1, 40), rng.randrange(40, 600)])
        start = rng.randrange(len(host) - width + 1)
        yield Window(host[start : start + width], rng.randrange(width + 1))


class TestNaturalDecomposition:
    def test_examples(self):
        assert gf.natural_decomposition(Window(build_w(3), 3), 2) == 0
        assert gf.natural_decomposition(Window(build_w(4), 7), 3) == 0
        assert gf.natural_decomposition(Window(build_w(4), 8), 3) == 8
        assert gf.natural_decomposition(Window(build_w(4), 7), 1) == 6

    def test_block_content(self):
        letters = build_w(5)
        for origin in range(len(letters) + 1):
            for n in range(1, 5):
                try:
                    o = gf.natural_decomposition(Window(letters, origin), n)
                except MarginExhaustedError:
                    continue
                assert 0 <= origin - o < 2**n
                assert letters[o : o + 2**n - 1] == build_w(n)

    def test_ambiguous_window_raises(self):
        # w_3 alone cannot tell whether its right half starts a new block
        with pytest.raises(MarginExhaustedError):
            gf.natural_decomposition(Window(build_w(3), 3), 3)

    def test_too_small_raises(self):
        with pytest.raises(MarginExhaustedError):
            gf.natural_decomposition(Window("aDa", 1), 2)

    def _check(self, win, n_top):
        # the offset is the listed block that holds the origin, and the
        # refusals are the listing's, word for word
        for n in range(1, n_top + 1):
            assert _value_or_message(gf.natural_decomposition, win, n) == _value_or_message(
                central_block_by_listing, win, n
            ), (win, n)

    def test_every_origin_of_w10(self):
        letters = build_w(10)
        for origin in range(len(letters) + 1):
            self._check(Window(letters, origin), 10)

    @pytest.mark.parametrize("seed", range(3))
    def test_seeded_slices_of_w14(self, seed):
        for win in _seeded_slices_of_w14(seed, 150):
            self._check(win, 9)

    def test_reads_only_near_the_origin(self, monkeypatch):
        # a sliding block code: the parse sees the letters within 2^(n+1)
        # of the origin, not the whole window
        parsed = []
        real = gf.phase
        monkeypatch.setattr(gf, "phase", lambda word: parsed.append(len(word)) or real(word))
        win = Window(build_w(14), 2**13)
        for n in range(1, 11):
            parsed.clear()
            gf.natural_decomposition(win, n)
            assert parsed and max(parsed) <= 2 ** (n + 2), (n, parsed)


class TestPsi:
    def test_hand_traced_example(self):
        # central w_2 sits at [-3, -1], star position 3, code "10"
        assert gf.psi(1, Window("aDaCaDa", 3)) == "1"

    @pytest.mark.parametrize("m", [4, 5, 6])
    def test_origin_after_left_block(self, m):
        w = build_w(m)
        for alpha in "BCD":
            win = Window(w + alpha + w, len(w))
            for k in range(1, m - 1):
                assert gf.psi(k, win) == "1" * k

    def test_margin_error(self):
        with pytest.raises(MarginExhaustedError):
            gf.psi(1, Window("aDa", 1))

    def test_tower_and_reversal_on_slid_windows(self):
        letters = build_w(10)
        width = 129
        for start in range(0, len(letters) - width + 1, 7):
            win = Window(letters[start : start + width], width // 2)
            values = [gf.psi(k, win) for k in (1, 2, 3, 4)]
            for a, b in zip(values, values[1:]):
                assert b.startswith(a)
            mirrored = reverse_window(win)
            assert [gf.psi(k, mirrored) for k in (1, 2, 3, 4)] == values

    def test_window_the_level_loop_left_undecided(self):
        # the partly visible blocks at the edges fix the phase of w_5
        win = Window("aCaDaCaDaBaDaCaDaDaDaCaDaBaDaCaDaDaDaCaDaBaDa", 2)
        assert gf.psi(4, win) == "1111"
        assert psi_by_placement(win, 4) == {"1111"}

    @pytest.mark.parametrize("lengths", [range(0, 16), range(16, 28), range(28, 35), range(35, 41)])
    def test_values_match_every_placement(self, lengths):
        # every factor of w_10 of these lengths, every origin: a value
        # psi or natural_decomposition returns is the one every
        # occurrence of the letters in w_16 gives
        host = build_w(10)
        factors = {host[s : s + n] for n in lengths for s in range(len(host) - n + 1)}
        for letters in sorted(factors):
            win = Window(letters, 0)
            blocks = {n: blocks_by_placement(win, n) for n in range(1, 7)}
            for n in blocks:
                # the listing reference itself
                try:
                    offsets = natural_blocks_by_listing(win, n)
                except MarginExhaustedError:
                    continue
                assert blocks[n] == {tuple(offsets)}, (letters, n)
            # the offsets of a block on every placement
            agreed = {n: set.intersection(*map(set, found)) for n, found in blocks.items()}
            for origin in range(len(letters) + 1):
                win = Window(letters, origin)
                for n in blocks:
                    try:
                        o = gf.natural_decomposition(win, n)
                    except MarginExhaustedError:
                        continue
                    assert 0 <= origin - o < 2**n and o in agreed[n], (letters, origin, n)
                for k in range(1, 6):
                    try:
                        value = gf.psi(k, win)
                    except MarginExhaustedError:
                        continue
                    assert psi_by_placement(win, k) == {value}, (letters, origin, k)

    def test_agreement_with_conjugacy_table(self):
        # when the window is a starring of w_m with the central block
        # visible, psi reads off a prefix of the phi code of that block;
        # the natural blocks of w_m start at the multiples of 2^(k+1)
        m, k = 10, 5
        letters = build_w(m)
        origins = range(2 ** (k + 2), len(letters) - 2 ** (k + 2))
        for origin in origins:
            expected = format(gf.phi(k + 1).codes[origin % 2 ** (k + 1)], f"0{k + 1}b")[:k]
            assert gf.psi(k, Window(letters, origin)) == expected
        assert len(origins) == 767


@pytest.mark.parametrize("seed", range(3))
def test_psi_is_a_g_map(seed):
    # psi(k, g.x) = g.psi(k, x) wherever both sides are defined, on seeded
    # windows of w_14, depths k <= 8 and words of 1-6 letters; the word
    # read left to right instead fails on some cases.  Either side may
    # run out of margin while the other does not, so the refusals are not
    # compared.
    rng = random.Random(100 + seed)
    compared = reversed_fails = 0
    for x in _seeded_slices_of_w14(seed, 3000):
        k = rng.randint(1, 8)
        word = "".join(rng.choice("abcd") for _ in range(rng.randint(1, 6)))
        try:
            below = gf.psi(k, x)
            image = gf.psi(k, apply_word(word, x))
        except MarginExhaustedError:
            continue
        assert image == ta.act_word(word, below), (x, k, word)
        compared += 1
        reversed_fails += image != ta.act_word(word[::-1], below)
    assert compared >= 1000 and reversed_fails >= 150, (compared, reversed_fails)


@pytest.mark.parametrize("seed", range(2))
def test_psi_at_the_edge_of_the_margin(seed):
    # each window is the least symmetric excerpt of w_14 around its origin
    # on which psi(k, .) still answers, and each word may spend its margin
    # r.  Applied right to left, the walk refuses exactly when word[1:]
    # spends all of r; it never reaches psi.  psi(k, g.x) answers exactly while
    # the origin stays in its natural w_{k+1} block: the least window holds
    # that block and not the next, so past it psi refuses for want of the
    # block.  On the whole host g.psi(k, x) is the value either way
    rng = random.Random(200 + seed)
    host = build_w(14)
    outcomes = {"walk": 0, "same block": 0, "next block": 0}
    for _ in range(400):
        k = rng.randint(1, 7)
        at = rng.randrange(2 ** (k + 3), len(host) - 2 ** (k + 3))
        for r in itertools.count():
            x = Window(host[at - r : at + r], r)
            try:
                below = gf.psi(k, x)
                break
            except MarginExhaustedError:
                pass
        whole = Window(host, at)
        word = "".join(rng.choice("abcd") for _ in range(rng.randint(1, 2 * r + 2)))
        spent = whole.margin - apply_word(word[1:], whole).margin
        if spent >= r:
            with pytest.raises(MarginExhaustedError, match="margin 0 too small"):
                apply_word(word, x)
            outcomes["walk"] += 1
            continue
        image, moved = apply_word(word, x), apply_word(word, whole)
        assert gf.psi(k, moved) == ta.act_word(word, below), (at, k, word)
        if gf.natural_decomposition(moved, k + 1) == gf.natural_decomposition(whole, k + 1):
            assert gf.psi(k, image) == gf.psi(k, moved), (at, k, word)
            outcomes["same block"] += 1
        else:
            message = f"the w_{k + 1} block at the origin is not fully inside the window"
            with pytest.raises(MarginExhaustedError, match=message):
                gf.psi(k, image)
            outcomes["next block"] += 1
    assert min(outcomes.values()) >= 20, outcomes


class TestPsiTower:
    def _check(self, win, k_top):
        # each k read on its own from the visible block offsets; psi_tower
        # answers or raises as that reading of its deepest level does
        by_offsets = [_value_or_message(psi_by_offsets, k, win) for k in range(1, k_top + 1)]
        for k_max in range(1, k_top + 1):
            tower = _value_or_message(gf.psi_tower, k_max, win)
            if isinstance(tower, str):
                assert tower == by_offsets[k_max - 1], (win, k_max)
                with pytest.raises(MarginExhaustedError, match=re.escape(tower)):
                    gf.psi(k_max, win)
                continue
            assert tower == by_offsets[:k_max], (win, k_max)
            assert gf.psi(k_max, win) == tower[-1]
            if k_max < PLACEMENT_BITS:
                assert psi_by_placement(win, k_max) == {tower[-1]}, (win, k_max)

    def test_every_origin_of_w10(self):
        letters = build_w(10)
        for origin in range(len(letters) + 1):
            self._check(Window(letters, origin), 10)

    @pytest.mark.parametrize("seed", range(3))
    def test_seeded_slices_of_w14(self, seed):
        for win in _seeded_slices_of_w14(seed, 150):
            self._check(win, 8)

    def test_psi_is_the_top_of_the_tower(self):
        # psi reads one Gray code: on seeded windows of w_12 it returns the
        # tower's last value or refuses with the same message, and a small
        # window past the Gray cap runs out of margin before the cap
        rng = random.Random(12)
        host = build_w(12)
        for _ in range(3000):
            width = rng.choice([rng.randrange(1, 40), rng.randrange(40, 600)])
            start = rng.randrange(len(host) - width + 1)
            win = Window(host[start : start + width], rng.randrange(width + 1))
            for k in range(1, 9):
                tower = _value_or_message(gf.psi_tower, k, win)
                top = tower if isinstance(tower, str) else tower[-1]
                assert _value_or_message(gf.psi, k, win) == top, (win, k)
        with pytest.raises(MarginExhaustedError):
            gf.psi(gf.GRAY_CAP, Window("aDa", 1))

    def test_bad_depth(self):
        for k in (0, -1):
            with pytest.raises(ValueError, match="k must be positive"):
                gf.psi_tower(k, Window("aDa", 1))
            with pytest.raises(ValueError, match="k must be positive"):
                gf.psi(k, Window("aDa", 1))


class TestSixFiberWitnesses:
    def test_count_and_language(self):
        wins = gf.six_fiber_witnesses(4)
        assert len(wins) == 6
        contents = {w.letters for w in wins}
        assert contents == {build_w(4) + a + build_w(4) for a in "BCD"}

    def test_m4_all_map_to_one(self):
        assert {gf.psi(1, w) for w in gf.six_fiber_witnesses(4)} == {"1"}

    @pytest.mark.parametrize("m", range(3, 9))
    def test_fiber_agreement(self, m):
        wins = gf.six_fiber_witnesses(m)
        for k in range(1, m - 1):
            assert len({gf.psi(k, w) for w in wins}) == 1

    def test_reversal_pairs(self):
        for m in (3, 4, 5):
            wins = gf.six_fiber_witnesses(m)
            for left, right in zip(wins[::2], wins[1::2]):
                assert reverse_window(left) == right

    def test_cap(self):
        with pytest.raises(SizeLimitError):
            gf.six_fiber_witnesses(17)


@pytest.mark.parametrize("call, error, message", [
    (lambda: gf.phi(0), ValueError, "n must be positive"),
    (lambda: gf.natural_decomposition(Window(build_w(5), 10), 0), ValueError,
     "n must be positive"),
    (lambda: gf.six_fiber_witnesses(0), ValueError, "m must be positive"),
], ids=["phi", "natural_decomposition", "six_fiber_witnesses"])
def test_argument_refusals(call, error, message):
    with pytest.raises(error, match=message):
        call()
