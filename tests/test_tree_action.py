import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from oracles import (
    act_generator_by_residue,
    act_word_by_residue,
    kappa_iter,
    level_permutation_by_bits,
    tree_moves_by_table,
    word_permutation_by_bits,
)
from starshift import tree_action as ta
from starshift.errors import NotLevelTwoTrivialError, SizeLimitError
from starshift.jump_action import relation_set

bits = st.text(alphabet="01", min_size=0, max_size=12)


def test_generator_examples():
    assert ta.act_word("a", "01") == "11"
    assert ta.act_word("b", "010") == "000"
    assert ta.act_word("d", "010") == "010"
    assert ta.act_word("c", "1101") == "1100"  # n=2, alpha at index 3 flips


def test_word_examples():
    for v in ("", "0", "10", "0110", "111101"):
        assert ta.act_word("aa", v) == v
    assert ta.act_word("bcd", "0110") == "0110"
    assert ta.act_word("ad", "1110") == ta.act_word("a", ta.act_word("d", "1110"))


@given(st.sampled_from("abcd"), bits)
def test_generators_are_involutions(g, v):
    assert ta.act_word(g, ta.act_word(g, v)) == v


@given(st.sampled_from("abcd"), bits, st.text(alphabet="01", max_size=4))
def test_prefix_equivariance(g, v, tail):
    # the first |v| bits of the image depend only on the first |v| bits
    assert ta.act_word(g, v + tail)[: len(v)] == ta.act_word(g, v)


def test_permutations_match_act_word():
    for m in range(1, 9):
        for g in "abcd":
            perm = ta.level_permutation(g, m)
            for v in range(1 << m):
                s = format(v, f"0{m}b")
                assert ta.act_word(g, s) == format(int(perm[v]), f"0{m}b")


class TestWreathRecursion:
    """The section table against the rule read from the leading ones."""

    @pytest.mark.parametrize("m", range(17))
    def test_level_tables_match_the_bit_oracle(self, m):
        for g in "abcd":
            assert np.array_equal(ta.level_permutation(g, m), level_permutation_by_bits(g, m)), g

    def test_action_matches_the_residue_oracle(self):
        for length in range(13):
            for v in map("".join, itertools.product("01", repeat=length)):
                for g in "abcd":
                    assert ta.act_word(g, v) == act_generator_by_residue(g, v), (g, v)

    def test_tables_are_cached_and_read_only(self):
        perm = ta.level_permutation("b", 6)
        assert ta.level_permutation("b", 6) is perm
        with pytest.raises(ValueError):
            perm[0] = 1

    def test_bad_arguments(self):
        for g in ("x", "", "ab"):
            with pytest.raises(ValueError):
                ta.level_permutation(g, 3)
        with pytest.raises(ValueError):
            ta.level_permutation("a", -1)
        for word, v in (("x", "01"), ("a", "02"), ("", "02")):
            with pytest.raises(ValueError):
                ta.act_word(word, v)

    @pytest.mark.parametrize("m", [ta.DEPTH_CAP + 1, 64])
    def test_depth_cap_comes_before_any_table(self, m, monkeypatch):
        monkeypatch.setattr(ta.np, "arange", None)  # any allocation would fail
        for g in "abcd":
            with pytest.raises(SizeLimitError):
                ta.level_permutation(g, m)
        with pytest.raises(SizeLimitError):
            ta.word_permutation("ab", m)


class TestTrivialityTest:
    def test_examples(self):
        assert ta.is_trivial_up_to_depth("adadadad", 12)
        assert not ta.is_trivial_up_to_depth("ab", 5)
        assert ta.is_trivial_up_to_depth("", 3)

    @pytest.mark.parametrize(
        "relator",
        relation_set(6),
        ids=[f"r{i:02d}_len{len(r)}" for i, r in enumerate(relation_set(6))],
    )
    def test_lysenok_relators_trivial(self, relator):
        assert ta.is_trivial_up_to_depth(relator, 12)

    def test_kappa_iterates_directly(self):
        for k in range(4):
            assert ta.is_trivial_up_to_depth(kappa_iter("adadadad", k), 10)
            assert ta.is_trivial_up_to_depth(kappa_iter("adacac" * 4, k), 10)

    def test_no_depth_cap(self):
        # no table is built, so a level beyond the tables' cap is answered
        assert ta.is_trivial_up_to_depth(kappa_iter("adadadad", 5), 64)
        assert not ta.is_trivial_up_to_depth("ab", 64)


def _seeded_words(count: int = 60, seed: int = 16) -> list[str]:
    """Random words, conjugates u r u^-1 of relators (trivial and not
    reduced), and the same with one letter dropped."""
    rng = np.random.default_rng(seed)
    relators = relation_set(3)
    words = []
    for _ in range(count):
        u = "".join(rng.choice(list("abcd"), size=int(rng.integers(0, 12))))
        r = relators[int(rng.integers(len(relators)))]
        conjugate = u + r + u[::-1]  # every generator is an involution
        drop = int(rng.integers(len(conjugate)))
        words += ["".join(rng.choice(list("abcd"), size=int(rng.integers(0, 40)))),
                  conjugate, conjugate[:drop] + conjugate[drop + 1 :]]
    return words


def _disagreements(words: list[str], depth: int) -> list[str]:
    """The words on which the section recursion and the table of level
    ``depth`` differ: on triviality up to each level m <= depth, or on the
    quadrant support of a word fixing level 2."""
    out = []
    for word in words:
        least, support = tree_moves_by_table(word, depth)
        fixed = [least is None or least > m for m in range(1, depth + 1)]
        try:
            exact = ta.quadrant_support(word)
        except NotLevelTwoTrivialError:
            exact = None
        if (
            [ta.is_trivial_up_to_depth(word, m) for m in range(1, depth + 1)] != fixed
            or exact != (support if fixed[1] else None)
        ):
            out.append(word)
    return out


class TestSectionRecursion:
    """The word predicates against whole-level tables of the bit oracle."""

    def test_matches_the_tables_on_seeded_words(self):
        words = _seeded_words()
        assert len(words) == 180 and _disagreements(words, 16) == []
        # trivial words, and non-trivial words fixing level 2 that act
        # below some quadrants only
        trivial = [w for w in words if ta.is_trivial_up_to_depth(w, 16)]
        assert 0 < len(trivial) < len(words)
        level_two = [w for w in words if ta.is_trivial_up_to_depth(w, 2)]
        assert any(0 < len(ta.quadrant_support(w)) < 4 for w in level_two)

    def test_matches_the_tables_on_the_relators(self):
        assert _disagreements(relation_set(8), 16) == []

    @pytest.mark.parametrize("k", range(9))
    def test_kappa_iterates_are_trivial_exactly(self, k):
        for seed in ("ad" * 4, "adacac" * 4):
            word = kappa_iter(seed, k)
            # fixes level 2 and every section there is trivial: exactly trivial
            assert ta.quadrant_support(word) == set()
            assert word[0] == "a"
            with pytest.raises(NotLevelTwoTrivialError):  # one `a` less swaps the root
                ta.quadrant_support(word[1:])

    def test_a_mutant_section_table_is_caught(self, monkeypatch):
        # d = (b, 1) in place of (1, b): the conjugate a d a
        monkeypatch.setattr(ta, "SECTIONS", {**ta.SECTIONS, "d": ta.SECTIONS["d"][::-1]})
        words = _seeded_words()
        assert _disagreements(words, 9) != []
        assert ta.quadrant_support("d") == {"00", "01"}
        # the tables and the string action read the same sections; the
        # cached level_permutation is bypassed
        assert not np.array_equal(ta.word_permutation("d", 3), word_permutation_by_bits("d", 3))
        assert any(
            not np.array_equal(ta.word_permutation(w, 6), word_permutation_by_bits(w, 6))
            for w in words
        )
        strings = ["".join(v) for v in itertools.product("01", repeat=4)]
        assert ta.act_word("d", "000") == "001"
        assert any(ta.act_word(w, v) != act_word_by_residue(w, v) for w in words for v in strings)

    def test_no_table_is_built(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a table was built")

        for name in ("word_permutation", "level_permutation", "_level_table"):
            monkeypatch.setattr(ta, name, refuse)
        assert ta.is_trivial_up_to_depth(kappa_iter("adacac" * 4, 4), 13)
        assert not ta.is_trivial_up_to_depth("adacac" * 4 + "a", 13)
        assert ta.quadrant_support("adad") == {"00", "01", "10", "11"}


def test_stabilizer_examples():
    def fixers(v):
        return {g for g in "abcd" if ta.act_word(g, v) == v}

    assert fixers("111") == {"b", "c", "d"}
    assert fixers("011") == {"d"}
    # too short for the 1^n 0 alpha pattern: b, c, d all act trivially
    assert fixers("10") == {"b", "c", "d"}
    for m in range(1, 8):
        assert "a" not in fixers("1" * m)


@pytest.mark.parametrize("m", range(1, 13))
def test_level_transitivity(m):
    perms = [ta.level_permutation(g, m) for g in "abcd"]
    seen = {(1 << m) - 1}
    frontier = [(1 << m) - 1]
    while frontier:
        nxt = []
        for v in frontier:
            for p in perms:
                u = int(p[v])
                if u not in seen:
                    seen.add(u)
                    nxt.append(u)
        frontier = nxt
    assert len(seen) == 1 << m


class TestQuadrantSupport:
    def test_identity(self):
        assert ta.quadrant_support("") == set()
        assert ta.quadrant_support("aa") == set()

    def test_precondition(self):
        with pytest.raises(NotLevelTwoTrivialError):
            ta.quadrant_support("a")
        with pytest.raises(NotLevelTwoTrivialError):
            ta.quadrant_support("b")

    def test_adad_against_string_oracle(self):
        # independent oracle: walk every level-6 vertex through act_word
        moved = {
            v[:2]
            for v in ("".join(b) for b in itertools.product("01", repeat=6))
            if ta.act_word("adad", v) != v
        }
        assert moved == {"00", "01", "10", "11"}
        assert ta.quadrant_support("adad") == moved

    def test_trivial_word_empty(self):
        assert ta.quadrant_support("adadadad") == set()

    def test_a_generator_acts_below_two_quadrants(self):
        # d = (1, b) and b = (a, c)
        assert ta.quadrant_support("d") == {"10", "11"}


def test_word_permutation_consistent_with_act_word():
    rng = np.random.default_rng(3)
    letters = np.array(list("abcd"))
    for _ in range(20):
        word = "".join(rng.choice(letters, size=rng.integers(0, 9)))
        m = int(rng.integers(1, 7))
        perm = ta.word_permutation(word, m)
        for v in range(1 << m):
            s = format(v, f"0{m}b")
            assert ta.act_word(word, s) == format(int(perm[v]), f"0{m}b")


def _oracle_words(count: int = 100, seed: int = 23) -> list[str]:
    """Seeded words of up to 40 letters, not reduced."""
    rng = np.random.default_rng(seed)
    return ["".join(rng.choice(list("abcd"), size=int(rng.integers(0, 41))))
            for _ in range(count)]


def _kappa_words() -> list[str]:
    """The kappa iterates k <= 4 of the two seeds, trivial, and their
    first halves, which are not."""
    words = [kappa_iter(seed, k) for seed in ("ad" * 4, "adacac" * 4) for k in range(5)]
    return words + [w[: len(w) // 2] for w in words]


class TestWordsAgainstTheOracles:
    """Word tables and the string action, read from sections, against
    the bit and residue oracles composed one letter at a time."""

    @pytest.mark.parametrize("m", range(11))
    def test_word_tables_on_seeded_words(self, m):
        for word in _oracle_words():
            table = ta.word_permutation(word, m)
            assert np.array_equal(table, word_permutation_by_bits(word, m)), word

    def test_string_action_on_seeded_words(self):
        rng = np.random.default_rng(29)
        short = ["".join(v) for n in range(5) for v in itertools.product("01", repeat=n)]
        for word in _oracle_words():
            strings = short + ["".join(rng.choice(list("01"), size=int(rng.integers(5, 11))))
                               for _ in range(24)]
            for v in strings:
                assert ta.act_word(word, v) == act_word_by_residue(word, v), (word, v)

    def test_kappa_words_at_level_16(self):
        rng = np.random.default_rng(31)
        strings = ["".join(rng.choice(list("01"), size=16)) for _ in range(64)]
        for word in _kappa_words():
            table = ta.word_permutation(word, 16)
            assert np.array_equal(table, word_permutation_by_bits(word, 16)), word
            for v in strings:
                assert ta.act_word(word, v) == act_word_by_residue(word, v), (word, v)


@pytest.mark.parametrize("call, error, message", [
    (lambda: ta.is_trivial_up_to_depth("aa", 0), ValueError, "depth must be positive"),
    (lambda: ta.word_permutation("ab", -1), ValueError, "level must be non-negative"),
    (lambda: ta.word_permutation("", -1), ValueError, "level must be non-negative"),
    (lambda: ta.act_word("a", "0x"), ValueError, "invalid bit 'x'; expected one of 01"),
], ids=["is_trivial_up_to_depth", "word_permutation", "word_permutation-identity", "act_word"])
def test_argument_refusals(call, error, message):
    with pytest.raises(error, match=message):
        call()
