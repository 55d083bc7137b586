import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from oracles import act_generator_by_residue, kappa_iter, level_permutation_by_bits
from starshift import tree_action as ta
from starshift.errors import NotLevelTwoTrivialError, SizeLimitError
from starshift.jump_action import relation_set

bits = st.text(alphabet="01", min_size=0, max_size=12)


def test_generator_examples():
    assert ta.act_generator("a", "01") == "11"
    assert ta.act_generator("b", "010") == "000"
    assert ta.act_generator("d", "010") == "010"
    assert ta.act_generator("c", "1101") == "1100"  # n=2, alpha at index 3 flips


def test_word_examples():
    for v in ("", "0", "10", "0110", "111101"):
        assert ta.act_word("aa", v) == v
    assert ta.act_word("bcd", "0110") == "0110"
    assert ta.act_word("ad", "1110") == ta.act_generator("a", ta.act_generator("d", "1110"))


@given(st.sampled_from("abcd"), bits)
def test_generators_are_involutions(g, v):
    assert ta.act_generator(g, ta.act_generator(g, v)) == v


@given(st.sampled_from("abcd"), bits, st.text(alphabet="01", max_size=4))
def test_prefix_equivariance(g, v, tail):
    # the first |v| bits of the image depend only on the first |v| bits
    assert ta.act_generator(g, v + tail)[: len(v)] == ta.act_generator(g, v)


def test_permutations_match_act_generator():
    for m in range(1, 9):
        for g in "abcd":
            perm = ta.level_permutation(g, m)
            for v in range(1 << m):
                s = format(v, f"0{m}b")
                assert ta.act_generator(g, s) == format(int(perm[v]), f"0{m}b")


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
                    assert ta.act_generator(g, v) == act_generator_by_residue(g, v), (g, v)

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
        with pytest.raises(ValueError):
            ta.act_generator("x", "01")
        with pytest.raises(ValueError):
            ta.act_generator("a", "02")

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

    def test_cap(self):
        with pytest.raises(SizeLimitError):
            ta.is_trivial_up_to_depth("ab", 21)


def test_stabilizer_examples():
    def fixers(v):
        return {g for g in "abcd" if ta.act_generator(g, v) == v}

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
        assert ta.quadrant_support("", 6) == set()
        assert ta.quadrant_support("aa", 6) == set()

    def test_precondition(self):
        with pytest.raises(NotLevelTwoTrivialError):
            ta.quadrant_support("a", 6)
        with pytest.raises(NotLevelTwoTrivialError):
            ta.quadrant_support("b", 6)

    def test_depth_cap_comes_before_the_precondition(self):
        with pytest.raises(SizeLimitError):
            ta.quadrant_support("a", 21)

    def test_adad_against_string_oracle(self):
        # independent oracle: walk every level-6 vertex through act_word
        moved = {
            v[:2]
            for v in ("".join(b) for b in itertools.product("01", repeat=6))
            if ta.act_word("adad", v) != v
        }
        assert moved == {"00", "01", "10", "11"}
        assert ta.quadrant_support("adad", 6) == moved

    def test_trivial_word_empty(self):
        assert ta.quadrant_support("adadadad", 8) == set()


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


@pytest.mark.parametrize("call, error, message", [
    (lambda: ta.is_trivial_up_to_depth("aa", 0), ValueError, "depth must be positive"),
    (lambda: ta.quadrant_support("aa", 1), ValueError, "depth must be at least 2"),
], ids=["is_trivial_up_to_depth", "quadrant_support"])
def test_argument_refusals(call, error, message):
    with pytest.raises(error, match=message):
        call()
