import dataclasses
import itertools
import random

import pytest

from oracles import (
    apply_word_by_steps, evaluate_cocycle, schreier_dot_by_lines, schreier_edges_by_steps,
    schreier_json_by_dumps,
)
from starshift import full_group as fg, jump_action as ja
from starshift.core_words import (
    build_w, check_generators, free_reduce, language_words, ring,
)
from starshift.errors import MarginExhaustedError, ReconstructionError
from starshift.full_group import Window, reverse_window
from starshift.jump_action import StarredWord


def _count_table_builds(monkeypatch, widths: list[int] | None = None) -> list[list[str]]:
    """Record the generators of the rows of every jump-table build, and
    the length of its padded letters into ``widths`` if given."""
    built = []
    build = ja._jump_table

    def counting_build(padded, generators):
        built.append(list(generators))
        if widths is not None:
            widths.append(len(padded))
        return build(padded, generators)

    for module in (ja, fg):
        monkeypatch.setattr(module, "_jump_table", counting_build)
    return built


class TestWindow:
    def test_margin_defaults_to_reach(self):
        win = Window("aDaCaDa", 3)
        assert win.margin == 3
        assert Window("aDaCaDa", 1).margin == 1

    def test_explicit_margin_bounded(self):
        assert Window("aDaCaDa", 3, margin=2).margin == 2
        with pytest.raises(ValueError):
            Window("aDaCaDa", 3, margin=4)

    def test_rejects_non_language_content(self):
        with pytest.raises(ValueError):
            Window("aa", 1)
        with pytest.raises(ValueError):
            Window("aBaBaBaB", 4)  # alternating but not in the language

    def test_reverse_window(self):
        win = Window("aDaC", 1)
        rev = reverse_window(win)
        assert rev.letters == "CaDa" and rev.origin == 3
        assert reverse_window(rev) == win

    @pytest.mark.parametrize("length", range(65))
    def test_language_is_closed_under_reversal(self, length):
        words = language_words(length)
        assert set(words) == {u[::-1] for u in words}

    def test_mirror_is_not_reparsed(self, monkeypatch):
        letters = build_w(10)
        windows = [Window(letters, origin) for origin in range(len(letters) + 1)]
        calls = []
        monkeypatch.setattr(fg, "language_contains", lambda word: calls.append(word))
        for win in windows:
            rev = reverse_window(win)
            assert (rev.letters, rev.origin, rev.margin) == (
                letters[::-1], len(letters) - win.origin, win.margin)
            assert reverse_window(rev) == win
        assert calls == []


class TestCocycles:
    def test_pieces_partition_all_neighborhoods(self):
        for g in "abcd":
            pieces = fg.generator_cocycle(g)
            for left, right in itertools.product("aBCD", repeat=2):
                shift = evaluate_cocycle(pieces, left, right)
                assert shift in (-1, 0, 1)

    def test_swap_discipline(self):
        # the +1 piece and its shift are disjoint on alternating words:
        # no valid neighborhood has the jump letter on both sides
        for g in "abcd":
            jumps = set(ja.JUMP_SETS[g])
            for left, right in itertools.product("aBCD", repeat=2):
                if (left == "a") == (right == "a"):
                    continue  # not a neighborhood of an alternating word
                assert not (left in jumps and right in jumps)


class TestApplyGenerator:
    @pytest.mark.parametrize("n", [3, 5, 8, 12])
    def test_matches_jump_action_inside(self, n):
        w = build_w(n)
        for j in range(1, len(w)):
            win = Window(w, j)
            saw = StarredWord(w, j)
            for g in "abcd":
                moved = fg.apply_generator(g, win)
                assert moved.origin == ja.jump_generator(g, saw).star
                assert moved.letters == w

    def test_margin_spent_only_on_moves(self):
        win = Window("aDaCaDa", 3, margin=2)
        fixed = fg.apply_generator("c", win)  # C right of origin is not in S_c
        assert fixed.origin == 3 and fixed.margin == 2
        moved = fg.apply_generator("d", win)
        assert moved.origin == 4 and moved.margin == 1

    @pytest.mark.parametrize("g", ["ab", "", "x"])
    def test_refuses_a_non_generator(self, g):
        # a word of two letters, or none, is not one generator's jump rule
        with pytest.raises(ValueError, match="generator"):
            fg.apply_generator(g, Window(build_w(5), 15))

    def test_margin_exhausted(self):
        with pytest.raises(MarginExhaustedError):
            fg.apply_generator("a", Window("aDaCaDa", 0))
        with pytest.raises(MarginExhaustedError):
            fg.apply_word("ab", Window("aDaCaDa", 3, margin=1))


class TestApplyWord:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_single_steps(self, seed):
        rng = random.Random(seed)
        host = build_w(12)
        for _ in range(400):
            width = rng.randrange(1, 40)
            start = rng.randrange(len(host) - width + 1)
            letters = host[start : start + width]
            origin = rng.randrange(width + 1)
            margin = min(rng.randrange(4), origin, width - origin)
            win = Window(letters, origin, margin)
            word = "".join(rng.choice("abcd") for _ in range(rng.randrange(12)))
            try:
                expected = apply_word_by_steps(word, win)
            except MarginExhaustedError as exc:
                with pytest.raises(MarginExhaustedError) as got:
                    fg.apply_word(word, win)
                assert str(got.value) == str(exc)
                continue
            out = fg.apply_word(word, win)
            assert (out.letters, out.origin, out.margin) == expected, (word, win)

    def test_one_window_per_walk(self, monkeypatch):
        calls = {"tables": 0, "window": 0, "validated": 0}
        tables, window, post_init = fg.reach_tables, fg._window, Window.__post_init__

        def counting_tables(*args):
            calls["tables"] += 1
            return tables(*args)

        def counting_window(*args):
            calls["window"] += 1
            return window(*args)

        def counting_post_init(self):
            calls["validated"] += 1
            post_init(self)

        letters = build_w(14)
        win = Window(letters, len(letters) // 2)
        word = "".join(random.Random(0).choice("abcd") for _ in range(1000))
        expected = apply_word_by_steps(word, win)
        monkeypatch.setattr(fg, "reach_tables", counting_tables)
        monkeypatch.setattr(fg, "_window", counting_window)
        monkeypatch.setattr(Window, "__post_init__", counting_post_init)
        out = fg.apply_word(word, win)
        assert (out.letters, out.origin, out.margin) == expected
        assert calls == {"tables": 1, "window": 1, "validated": 0}

    def test_one_table_per_letter_of_the_word(self, monkeypatch):
        letters = build_w(12)
        win = Window(letters, len(letters) // 2)
        built = _count_table_builds(monkeypatch)
        assert fg.apply_generator("b", win).origin == apply_word_by_steps("b", win)[1]
        assert built == [["b"]]
        built.clear()
        fg.apply_word("abab", win)
        assert [sorted(rows) for rows in built] == [["a", "b"]]

    @pytest.mark.parametrize("word, margin", [("x", 0), ("x", 3), ("abXa", 3), ("B", 3)])
    def test_a_letter_outside_the_generators_is_refused(self, word, margin):
        win = Window(build_w(5), margin, margin)
        bad = next(g for g in word if g not in "abcd")
        with pytest.raises(ValueError, match=f"invalid generator {bad!r}"):
            fg.apply_word(word, win)


class TestShift:
    def test_examples(self):
        win = Window("aDaCaDa", 1)  # D at the origin, crossed by b
        out = fg.shift_as_tfg(win)
        assert out.origin == 2

    @pytest.mark.parametrize("n", [6, 8, 10])
    def test_advances_everywhere(self, n):
        host = build_w(n + 2)
        offset = 2**n  # the second natural copy of w_n inside w_{n+2}
        for j in range(2**n):
            win = Window(host, offset + j)
            assert fg.shift_as_tfg(win).origin == win.origin + 1

    def test_exactly_one_branch(self):
        assert set(fg.SHIFT_GENERATOR) == {"a", "B", "C", "D"}
        assert len(set(fg.SHIFT_GENERATOR.values())) == 4

    def test_each_branch_jumps_its_letter(self):
        for letter, g in fg.SHIFT_GENERATOR.items():
            assert letter in ja.JUMP_SETS[g]


class TestVorobetsKey:
    def test_symmetric_and_idempotent(self):
        win = Window(build_w(5), 11)
        key = fg.vorobets_key(win)
        assert fg.vorobets_key(reverse_window(win)) == key
        assert fg.vorobets_key(key) == key

    def test_no_reversal_fixed_windows(self):
        # an even-length palindrome would repeat a letter at its middle,
        # so no window straddling the origin is its own mirror
        for length in (2, 4, 6, 8, 10):
            for u in language_words(length):
                assert u != u[::-1]
                win = Window(u, length // 2)
                assert reverse_window(win) != win


class TestReconstruction:
    def test_budget_zero(self):
        assert fg.reconstruct_from_stabilizer(lambda w: True, 0) == ""

    def test_inconsistent_oracle(self):
        with pytest.raises(ReconstructionError):
            fg.reconstruct_from_stabilizer(lambda w: True, 1)
        with pytest.raises(ReconstructionError):
            fg.reconstruct_from_stabilizer(lambda w: False, 1)

    def test_first_letter_from_fixing_generator(self):
        letters = build_w(6)
        j = letters.index("B")  # hidden point with B at the origin
        oracle = fg.window_stabilizer_oracle(Window(letters, j))
        assert fg.reconstruct_from_stabilizer(oracle, 1) == "B"

    def test_oracle_builds_its_tables_once(self, monkeypatch):
        letters = build_w(12)
        oracle = fg.window_stabilizer_oracle(Window(letters, len(letters) // 2))
        built = _count_table_builds(monkeypatch)
        assert len(fg.reconstruct_from_stabilizer(oracle, 32)) == 32
        assert built == []  # the oracle built its four tables when it was made
        oracle = fg.window_stabilizer_oracle(Window(letters, len(letters) // 3))
        fg.reconstruct_from_stabilizer(oracle, 32)
        assert [sorted(rows) for rows in built] == [list("abcd")]

    @pytest.mark.parametrize("word", ["ax", "x", "abBa", "é"])
    def test_oracle_refuses_a_letter_outside_the_generators(self, word):
        oracle = fg.window_stabilizer_oracle(Window(build_w(6), 30))
        bad = next(g for g in word if g not in "abcd")
        with pytest.raises(ValueError, match=f"invalid generator {bad!r}"):
            oracle(word)

    @pytest.mark.parametrize("seed", range(4))
    def test_oracle_matches_single_steps(self, seed):
        rng = random.Random(seed)
        host = build_w(12)
        windows = []
        for margin in range(7):
            for _ in range(30):
                width = rng.randrange(2 * margin, 2 * margin + 12)
                start = rng.randrange(len(host) - width + 1)
                letters = host[start : start + width]
                windows.append(Window(letters, rng.randrange(margin, width - margin + 1),
                                      margin))
            windows += [Window(letters, 0), Window(letters, len(letters))]
        for win in windows:
            oracle = fg.window_stabilizer_oracle(win)
            for _ in range(20):
                length = rng.randrange(2 * win.margin + 4)
                word = "".join(rng.choice("abcd") for _ in range(length))
                _answers_as_single_steps(oracle, win, word)

    @pytest.mark.parametrize("budget", [1, 2, 7, 32])
    def test_queries_are_reduced(self, budget):
        letters = build_w(12)
        inner = fg.window_stabilizer_oracle(Window(letters, len(letters) // 2))
        queries = []

        def recording(word: str) -> bool:
            assert free_reduce(word) == word
            queries.append(word)
            return inner(word)

        got = fg.reconstruct_from_stabilizer(recording, budget)
        assert len(queries) == 3 * sum(letter != "a" for letter in got)

    @pytest.mark.parametrize("seed", range(5))
    def test_recovers_up_to_reversal(self, seed):
        letters = build_w(12)
        budget = 24
        rng = random.Random(seed)
        reach = 2 * budget + 8
        j = rng.randrange(reach, len(letters) - reach)
        hidden = Window(letters, j)
        got = fg.reconstruct_from_stabilizer(
            fg.window_stabilizer_oracle(hidden), budget
        )
        rightward = letters[j : j + budget]
        leftward = letters[j - budget : j][::-1]
        assert got == (rightward if letters[j] != "a" else leftward)


def _answers_as_single_steps(oracle, win: Window, word: str) -> None:
    """The oracle's answer to ``word`` is the walk by single steps: the
    same verdict, or the same MarginExhaustedError text."""
    try:
        expected = apply_word_by_steps(word, win)[1] == win.origin
    except MarginExhaustedError as exc:
        with pytest.raises(MarginExhaustedError) as got:
            oracle(word)
        assert str(got.value) == str(exc), (word, win)
        return
    assert oracle(word) == expected, (word, win)


def _conjugate(u: str, t: str) -> str:
    return u[::-1] + t + u


def _whole_words(oracle, u: str, tested: str) -> list[str]:
    return [t for t in tested if oracle(_conjugate(u, t))]


def _conjugates_as_single_steps(oracle, twin, win: Window, u: str, tested: str) -> None:
    """``oracle.conjugates(u, tested)`` lists the generators whose
    conjugates by ``u`` fix the point, as the whole words asked of
    ``twin``, an oracle of the same window, and as their walks by single
    steps; or all three raise the same MarginExhaustedError text at the
    first word that exhausts the margin."""
    expected = []
    for t in tested:
        try:
            expected += [t] * (apply_word_by_steps(_conjugate(u, t), win)[1] == win.origin)
        except MarginExhaustedError as exc:
            for ask in (oracle.conjugates, lambda *query: _whole_words(twin, *query)):
                with pytest.raises(MarginExhaustedError) as got:
                    ask(u, tested)
                assert str(got.value) == str(exc), (u, tested, win)
            return
    assert oracle.conjugates(u, tested) == expected == _whole_words(twin, u, tested), (u, win)


class TestConjugateQueries:
    """The oracle answers an odd palindrome within the margin by walking
    its right half, resumed from the last one it walked, and so does its
    ``conjugates`` entry for several generators at once; the walk by
    single steps of the whole word is the check."""

    @staticmethod
    def _windows(rng: random.Random, margins) -> list[Window]:
        host = build_w(12)
        windows = []
        for margin in margins:
            width = rng.randrange(2 * margin, 2 * margin + 12)
            start = rng.randrange(len(host) - width + 1)
            origin = rng.randrange(margin, width - margin + 1)
            windows.append(Window(host[start : start + width], origin, margin))
        return windows

    @pytest.mark.parametrize("seed", range(4))
    def test_palindromes_at_and_past_the_margin(self, seed):
        # odd lengths margin - 1 .. margin + 2 and the even lengths between;
        # past the margin the entry asks the whole words, and the ones
        # that do not fix exhaust it
        rng = random.Random(seed)
        for win in self._windows(rng, [m for m in range(25) for _ in range(6)]):
            oracle, twin = fg.window_stabilizer_oracle(win), fg.window_stabilizer_oracle(win)
            for _ in range(30):
                length = max(0, win.margin + rng.randrange(-1, 3))
                u = "".join(rng.choice("abcd") for _ in range(length // 2))
                if length % 2:
                    _answers_as_single_steps(oracle, win, _conjugate(u, rng.choice("abcd")))
                    _conjugates_as_single_steps(oracle, twin, win, u, "bcd")
                else:
                    _answers_as_single_steps(oracle, win, u[::-1] + u)

    @pytest.mark.parametrize("seed", range(4))
    def test_growing_and_unrelated_conjugators(self, seed):
        # each query extends the last conjugator on the left, starts a new
        # one, or takes a suffix of it, so the walk resumes or restarts;
        # whole words and the entry are asked in turn, and the full
        # margins of w_12 take words past the first tables
        rng = random.Random(seed)
        letters = build_w(12)
        windows = self._windows(rng, [m for m in range(25) for _ in range(3)])
        windows += [Window(letters, rng.randrange(len(letters) + 1)) for _ in range(4)]
        for win in windows:
            oracle, twin = fg.window_stabilizer_oracle(win), fg.window_stabilizer_oracle(win)
            u = ""
            for _ in range(60):
                step = rng.randrange(4)
                if step < 2:
                    u = "".join(rng.choice("abcd") for _ in range(rng.randrange(1, 4))) + u
                elif step == 2:
                    u = "".join(rng.choice("abcd")
                                for _ in range(rng.randrange(min(win.margin, 40) + 1)))
                else:
                    u = u[rng.randrange(len(u) + 1) :]
                tested = rng.sample("abcd", rng.randrange(1, 5))
                for t in tested:
                    _answers_as_single_steps(oracle, win, _conjugate(u, t))
                _conjugates_as_single_steps(oracle, twin, win, u, "".join(tested))
                if rng.randrange(3) == 0:
                    word = "".join(rng.choice("abcd") for _ in range(rng.randrange(160)))
                    _answers_as_single_steps(oracle, win, word)

    @pytest.mark.parametrize("margin", [63, 64, 65, 127, 128, 129, 255, 256, 257])
    def test_grown_tables_match_single_steps(self, margin):
        # around the first reach and its doublings: conjugators grown on
        # the left resume across each rebuild, and whole words around the
        # reach rebuild the tables under a saved conjugator
        rng = random.Random(margin)
        letters = build_w(12)
        for _ in range(8):
            win = Window(letters, rng.randrange(600, len(letters) - 600), margin)
            oracle, twin = fg.window_stabilizer_oracle(win), fg.window_stabilizer_oracle(win)
            u = ""
            while 2 * len(u) + 1 <= margin + 2:
                if rng.randrange(8):
                    u = "".join(rng.choice("abcd") for _ in range(rng.randrange(1, 4))) + u
                else:
                    u = u[rng.randrange(min(len(u), 3) + 1) :]
                _conjugates_as_single_steps(oracle, twin, win, u, "abcd")
                if rng.randrange(2):
                    length = rng.choice([r + d for r in (64, 128, 256, margin)
                                         for d in (-1, 0, 1, 2)])
                    _answers_as_single_steps(oracle, win, "".join(rng.choice("abcd")
                                                                  for _ in range(length)))

    @pytest.mark.parametrize("u, tested", [
        ("bXa", "bcd"),  # in the conjugator
        ("ab", "bXd"),  # in the generators tested, after one that fixes or not
        ("éba", "c"),  # in the letters of a resumed walk
        ("é", ""),  # nothing tested, nothing asked
        ("b" * 9 + "X", "bc"),  # past the margin
    ], ids=["conjugator", "tested", "resumed", "nothing-tested", "past-the-margin"])
    def test_entry_refuses_a_bad_letter_as_the_whole_word(self, u, tested):
        win = Window(build_w(8), 120, 12)
        oracle, twin = fg.window_stabilizer_oracle(win), fg.window_stabilizer_oracle(win)
        _conjugates_as_single_steps(oracle, twin, win, "ba", "bcd")
        if not tested:
            assert oracle.conjugates(u, tested) == []
        else:
            with pytest.raises(ValueError) as expected:
                for t in tested:
                    check_generators(_conjugate(u, t))
            with pytest.raises(ValueError) as got:
                oracle.conjugates(u, tested)
            assert str(got.value) == str(expected.value)
        # a refused query leaves the oracle answering as before
        for v in ("ba", "dba", "cd"):
            _conjugates_as_single_steps(oracle, twin, win, v, "abcd")
            _answers_as_single_steps(oracle, win, _conjugate(v, "b"))

    def test_reconstruction_queries_at_every_margin(self):
        # the queries of a reconstruction, whose conjugators move the
        # point at every letter, replayed within and past each margin:
        # past it by one letter, the non-fixing ones exhaust the margin
        letters = build_w(10)
        hidden = Window(letters, 301)
        inner = fg.window_stabilizer_oracle(hidden)
        queries = []
        fg.reconstruct_from_stabilizer(lambda q: queries.append(q) or inner(q), 12)
        assert {len(q) for q in queries} == {1, 5, 9, 13, 17, 21}
        for margin in range(24):
            win = Window(letters, hidden.origin, margin)
            oracle = fg.window_stabilizer_oracle(win)
            for word in queries:
                _answers_as_single_steps(oracle, win, word)

    @pytest.mark.parametrize("queries", [
        ["baXab"],  # a bad letter at the centre
        ["bXacaXb"],  # and in the arms
        ["aba", _conjugate("éba", "c")],  # in the letters of a resumed walk
        ["b" * 9 + "X" + "b" * 9],  # past the margin, walked in full
    ], ids=["centre", "arms", "resumed", "past-the-margin"])
    def test_a_bad_letter_is_the_generator_check(self, queries):
        win = Window(build_w(8), 120, 12)
        oracle = fg.window_stabilizer_oracle(win)
        for word in queries[:-1]:
            _answers_as_single_steps(oracle, win, word)
        word = queries[-1]
        with pytest.raises(ValueError) as expected:
            check_generators(word)
        with pytest.raises(ValueError) as got:
            oracle(word)
        assert str(got.value) == str(expected.value)
        # a refused query leaves the oracle as it found it
        for t in "abcd":
            _answers_as_single_steps(oracle, win, _conjugate("dba", t))

    def test_letters_walked_grow_linearly_in_the_budget(self, monkeypatch):
        # the queries hold about 1.5 budget^2 letters, and a walk of each
        # in full would read four times as many at twice the budget
        letters = build_w(12)
        walked = []
        real = fg.walk
        monkeypatch.setattr(fg, "walk", lambda tables, word, *rest:
                            walked.append(len(word)) or real(tables, word, *rest))
        counts = {}
        for budget in (256, 512):
            walked.clear()
            oracle = fg.window_stabilizer_oracle(Window(letters, len(letters) // 2))
            assert len(fg.reconstruct_from_stabilizer(oracle, budget)) == budget
            counts[budget] = sum(walked)
        assert counts[256] <= 256 and counts[512] <= 2 * counts[256] + 2


class TestOracleEntryAndPlainCallables:
    """A reconstruction asks the oracle's ``conjugates`` entry, and a
    plain callable the three whole words per letter: the same letters,
    or the same error, either way."""

    @pytest.mark.parametrize("seed", range(3))
    def test_same_letters_with_and_without_the_entry(self, seed):
        rng = random.Random(seed)
        host = build_w(12)
        for budget in range(65):
            margin = rng.randrange(2 * budget + 4)
            width = rng.randrange(2 * margin, 2 * margin + 12)
            start = rng.randrange(len(host) - width + 1)
            win = Window(host[start : start + width], rng.randrange(margin, width - margin + 1),
                         margin)
            outcomes = []
            for plain in (False, True):
                oracle = fg.window_stabilizer_oracle(win)
                try:
                    outcomes.append(fg.reconstruct_from_stabilizer(
                        (lambda q: oracle(q)) if plain else oracle, budget))
                except MarginExhaustedError as exc:
                    outcomes.append(str(exc))
            assert outcomes[0] == outcomes[1], (budget, win)

    def test_same_letters_at_the_cap(self):
        letters = build_w(14)
        win = Window(letters, len(letters) // 2)
        oracle = fg.window_stabilizer_oracle(win)
        got = fg.reconstruct_from_stabilizer(oracle, 4096)
        assert got == fg.reconstruct_from_stabilizer(lambda q: oracle(q), 4096)
        assert got == letters[win.origin : win.origin + 4096]  # the middle letter is not `a`

    @pytest.mark.parametrize("budget", [1, 2, 7, 32, 64])
    def test_the_entry_path_asks_no_whole_word(self, budget):
        letters = build_w(12)
        hidden = Window(letters, len(letters) // 2 + 5, 2 * budget + 1)
        inner = fg.window_stabilizer_oracle(hidden)

        def refusing(word: str) -> bool:
            raise AssertionError(f"whole word asked: {word!r}")

        refusing.conjugates = inner.conjugates
        got = fg.reconstruct_from_stabilizer(refusing, budget)
        assert got == fg.reconstruct_from_stabilizer(lambda q: inner(q), budget)

    def test_tables_grow_by_doubling_at_budget_4096(self, monkeypatch):
        letters = build_w(14)
        widths = []
        built = _count_table_builds(monkeypatch, widths)
        oracle = fg.window_stabilizer_oracle(Window(letters, len(letters) // 2))
        assert len(built) == 1  # when the oracle is made
        entry, longest = oracle.conjugates, [0]

        def measuring(u: str, tested: str) -> list[str]:
            longest[0] = max(longest[0], len(u))
            return entry(u, tested)

        oracle.conjugates = measuring
        assert len(fg.reconstruct_from_stabilizer(oracle, 4096)) == 4096
        # a build of reach r pads the 2r letters within it with two blanks
        needed = longest[0] + 1
        assert [sorted(rows) for rows in built] == [list("abcd")] * len(built)
        assert len(built) <= 8 and max(widths) - 2 <= 2 * (2 * needed)


def _orbit_graph_inputs(kind: str) -> list[tuple[str, bool]]:
    """Words and their circularity: w_n, the circular (w_n alpha)^p within
    the cap, the shortest words, and 200 seeded random alternating or
    cyclically alternating words, the latter rotated to start anywhere."""
    if kind == "w_n":
        return [(build_w(n), False) for n in range(1, 12)]
    if kind == "rings":
        return [(ring(n) * p, True) for n in range(1, 12) for p in range(1, 9)
                if p * 2**n <= 2**fg.SCHREIER_LOG2_CAP]
    if kind == "shortest":
        return [("", False), ("a", False)]
    rng = random.Random(18)
    inputs = []
    for _ in range(200):
        if kind == "random-linear":
            odd = rng.randrange(2)  # the parity of the indices that carry `a`
            word = "".join("a" if i % 2 == odd else rng.choice("BCD")
                           for i in range(rng.randrange(41)))
        else:
            word = "".join("a" + rng.choice("BCD") for _ in range(rng.randrange(1, 21)))
            r = rng.randrange(len(word))
            word = word[r:] + word[:r]
        inputs.append((word, kind == "random-circular"))
    return inputs


ORBIT_GRAPH_KINDS = ["w_n", "rings", "shortest", "random-linear", "random-circular"]


class TestSchreierGraph:
    @pytest.mark.parametrize("kind", ORBIT_GRAPH_KINDS)
    def test_edges_match_one_step_per_position(self, kind):
        for letters, circular in _orbit_graph_inputs(kind):
            graph = fg.schreier_graph(letters, circular)
            assert graph.edges == schreier_edges_by_steps(letters, circular), (letters, circular)

    @pytest.mark.parametrize("kind", ORBIT_GRAPH_KINDS)
    def test_dot_matches_the_line_by_line_export(self, kind):
        for letters, circular in _orbit_graph_inputs(kind):
            graph = fg.schreier_graph(letters, circular)
            assert graph.to_dot() == schreier_dot_by_lines(graph), (letters, circular)

    def test_two_vertex_graph(self):
        graph = fg.schreier_graph("a")
        assert graph.vertices == ("*a", "a*")
        assert (0, "a", 1) in graph.edges
        for j in (0, 1):
            for g in "bcd":
                assert (j, g, j) in graph.edges

    def test_graph_is_its_word_and_edge_positions(self):
        assert [f.name for f in dataclasses.fields(fg.SchreierGraph)] == [
            "letters", "circular", "edges"]
        for letters, circular in (("", False), (build_w(5), False), (ring(3) * 2, True)):
            graph = fg.schreier_graph(letters, circular)
            assert (graph.letters, graph.circular) == (letters, circular)
            positions = len(letters) + (not circular)
            for lo, g, hi in graph.edges:
                assert type(lo) is int and type(hi) is int, (lo, hi)
                assert 0 <= lo <= hi < positions and g in "abcd"

    def test_dot_output(self):
        dot = fg.schreier_graph("a").to_dot()
        assert dot.startswith("graph schreier {")
        assert '"*a" [peripheries=2];' in dot
        assert '"*a" -- "a*" [label="a"];' in dot

    @pytest.mark.parametrize("n", [2, 3, 5, 7])
    def test_orbit_graph_connected(self, n):
        # w_n, and the circular words (w_n alpha)^p
        inputs = [(build_w(n), False)] + [(ring(n) * p, True) for p in (1, 2, 3)]
        for letters, circular in inputs:
            graph = fg.schreier_graph(letters, circular)
            assert len(graph.vertices) == len(letters) + (not circular)
            adjacency = {j: set() for j in range(len(graph.vertices))}
            for s, _, t in graph.edges:
                adjacency[s].add(t)
                adjacency[t].add(s)
            seen, frontier = {0}, [0]
            while frontier:
                frontier = [
                    u for v in frontier for u in adjacency[v] - seen
                ]
                seen.update(frontier)
            assert seen == set(adjacency), (letters, circular)

    def test_circular_vertices(self):
        graph = fg.schreier_graph("aDaC", circular=True)
        assert graph.vertices == ("*aDaC", "a*DaC", "aD*aC", "aDa*C")

    @pytest.mark.parametrize("n", range(1, 11))
    def test_json_matches_the_encoder_linear(self, n):
        graph = fg.schreier_graph(build_w(n))
        assert graph.to_json() == schreier_json_by_dumps(graph)

    @pytest.mark.parametrize("n", range(1, 5))
    def test_json_matches_the_encoder_circular(self, n):
        for p in range(1, 7):
            graph = fg.schreier_graph(ring(n) * p, circular=True)
            assert graph.to_json() == schreier_json_by_dumps(graph), p

    def test_json_matches_the_encoder_on_the_smallest_graphs(self):
        # the empty word has one vertex and four self-loops, "a" two
        # vertices; JSON quotes starred words and generators as they are
        for letters in ("", "a"):
            graph = fg.schreier_graph(letters)
            assert graph.to_json() == schreier_json_by_dumps(graph), letters
        assert fg.schreier_graph("").edges == tuple((0, g, 0) for g in "abcd")

    def test_json_roundtrip(self):
        import json

        graph = fg.schreier_graph("aDa")
        payload = json.loads(graph.to_json())
        assert payload["marked"] == "*aDa"
        assert len(payload["vertices"]) == 4
        assert all(len(e) == 3 for e in payload["edges"])


@pytest.mark.parametrize("call, error, message", [
    (lambda: Window("aDa", 4), ValueError, "origin 4 out of range"),
    (lambda: fg.shift_as_tfg(Window(build_w(5), 10, 0)), MarginExhaustedError,
     "margin 0 too small to shift"),
    (lambda: fg.reconstruct_from_stabilizer(
        fg.window_stabilizer_oracle(Window(build_w(5), 10)), -1),
     ValueError, "budget must be non-negative"),
], ids=["Window", "shift_as_tfg", "reconstruct_from_stabilizer"])
def test_argument_refusals(call, error, message):
    with pytest.raises(error, match=message):
        call()
