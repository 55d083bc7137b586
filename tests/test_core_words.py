import itertools
import random

import pytest
from hypothesis import given, strategies as st

from oracles import (
    alternating_by_pairs,
    free_reduce_by_stack,
    host_language_contains,
    language_words_by_host,
    language_words_by_slices,
    placements,
    PLACEMENT_BITS,
    tau_fixed_point_prefix,
)
from starshift import core_words as cw
from starshift.errors import SizeLimitError
from starshift.jump_action import check_circular


class TestBuildW:
    def test_first_words(self):
        assert cw.build_w(1) == "a"
        assert cw.build_w(2) == "aDa"
        assert cw.build_w(3) == "aDaCaDa"
        assert cw.build_w(4) == "aDaCaDaBaDaCaDa"

    @pytest.mark.parametrize("n", range(1, 17))
    def test_shape(self, n):
        w = cw.build_w(n)
        assert len(w) == 2**n - 1
        assert w == w[::-1]
        assert cw.is_alternating(w)
        assert w[0] == "a" and w[-1] == "a"

    @pytest.mark.parametrize("n", range(1, 16))
    def test_recursion(self, n):
        assert cw.build_w(n + 1) == cw.build_w(n) + cw.alpha_choice(n) + cw.build_w(n)

    def test_large_index(self):
        w = cw.build_w(20)
        assert len(w) == 2**20 - 1
        assert w[0] == w[-1] == "a"
        assert w == w[::-1]
        assert tau_fixed_point_prefix(2**16 - 1) == cw.build_w(16)

    def test_cap(self):
        with pytest.raises(SizeLimitError, match="24"):
            cw.build_w(25)

    def test_bad_index(self):
        with pytest.raises(ValueError):
            cw.build_w(0)


def test_alpha_choice_cycle():
    assert [cw.alpha_choice(n) for n in range(1, 7)] == ["D", "C", "B", "D", "C", "B"]


@pytest.mark.parametrize("n", range(1, 13))
def test_ring(n):
    ring = cw.ring(n)
    assert ring == cw.build_w(n) + cw.alpha_choice(n)
    assert len(ring) == 2**n
    check_circular(ring)  # raises unless it alternates across its end too
    # the ring twice, less its last letter, is the pair w_n alpha w_n
    assert (ring * 2)[:-1] in cw.pairs(n)


def test_is_alternating_examples():
    assert cw.is_alternating("aBa")
    assert not cw.is_alternating("aBBa")
    assert cw.is_alternating("")
    with pytest.raises(ValueError):
        cw.is_alternating("ax")


@pytest.mark.parametrize("length", range(9))
def test_is_alternating_matches_the_pairs(length):
    for letters in itertools.product(cw.LETTERS, repeat=length):
        word = "".join(letters)
        assert cw.is_alternating(word) == alternating_by_pairs(word), word


class TestGroupWords:
    def test_kappa_examples(self):
        assert cw.kappa("ad") == "acac"
        assert cw.kappa("") == ""
        assert cw.kappa(cw.kappa("b")) == "c"

    def test_kappa_of_relator(self):
        assert cw.kappa("adadadad") == "ac" * 8

    def test_free_reduce_examples(self):
        assert cw.free_reduce("aa") == ""
        assert cw.free_reduce("bc") == "d"
        assert cw.free_reduce("bd") == "c"
        assert cw.free_reduce("cd") == "b"
        assert cw.free_reduce("baab") == ""
        assert cw.free_reduce("bcd") == ""

    @pytest.mark.parametrize("length", range(9))
    def test_free_reduce_matches_the_stack(self, length):
        # every word over abcd of this length, reduced or not
        for letters in itertools.product("abcd", repeat=length):
            word = "".join(letters)
            assert cw.free_reduce(word) == free_reduce_by_stack(word), word

    def test_free_reduce_rejects_other_letters(self):
        for word in ("abx", "B", "a b"):
            bad = next(ch for ch in word if ch not in "abcd")
            with pytest.raises(ValueError, match=f"invalid generator {bad!r}; expected one of abcd"):
                cw.free_reduce(word)

    @given(st.text(alphabet="abcd", max_size=40))
    def test_free_reduce_idempotent_and_short(self, word):
        reduced = cw.free_reduce(word)
        assert cw.free_reduce(reduced) == reduced
        assert len(reduced) <= len(word)
        # reduced words never contain a square or an adjacent Klein pair
        assert "aa" not in reduced
        assert not any(
            x != "a" and y != "a" for x, y in zip(reduced, reduced[1:])
        )

    @given(st.text(alphabet="abcd", max_size=30))
    def test_word_times_inverse_cancels(self, word):
        assert cw.free_reduce(word + word[::-1]) == ""


class TestFixedPoint:
    def test_examples(self):
        assert tau_fixed_point_prefix(3) == "aDa"
        assert tau_fixed_point_prefix(7) == "aDaCaDa"
        assert tau_fixed_point_prefix(1) == "a"

    @pytest.mark.parametrize("n", range(1, 15))
    def test_agrees_with_w(self, n):
        assert tau_fixed_point_prefix(2**n - 1) == cw.build_w(n)

    def test_prefixes_of_all_long_words(self):
        prefix = tau_fixed_point_prefix(100)
        for n in range(7, 12):
            assert cw.build_w(n).startswith(prefix)

    def test_group_substitution_generates_the_same_words(self):
        # kappa read on the shift alphabet (a -> aDa, B -> D, C -> B,
        # D -> C) iterates straight through the w_n ladder, so both
        # substitutions generate the same one-sided fixed point
        table = {"a": "aDa", "B": "D", "C": "B", "D": "C"}
        word = "a"
        for n in range(1, 12):
            assert word == cw.build_w(n)
            word = "".join(table[c] for c in word)


class TestLanguage:
    def test_contains_examples(self):
        assert cw.language_contains("Da")
        assert not cw.language_contains("aa")
        assert cw.language_contains("BaD")
        assert cw.language_contains("")

    def test_words_examples(self):
        assert cw.language_words(1) == ["a", "B", "C", "D"]
        assert cw.language_words(2) == ["aB", "aC", "aD", "Ba", "Ca", "Da"]
        assert cw.language_words(0) == [""]

    @pytest.mark.parametrize("length", [1, 2, 3, 5, 8, 13])
    def test_closed_under_factors_and_reversal(self, length):
        for u in cw.language_words(length):
            assert cw.language_contains(u)
            assert cw.language_contains(u[::-1])
            for i in range(length):
                assert cw.language_contains(u[i:])
                assert cw.language_contains(u[:i])

    @pytest.mark.parametrize("length", range(0, 64))
    def test_three_characterizations_agree(self, length):
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
        deep = cw.build_w(12)
        in_deep = {deep[i : i + length] for i in range(len(deep) - length + 1)}
        assert set(cw.language_words(length)) == in_host == in_pairs == in_deep

    def test_words_match_the_host_listing(self):
        powers = {2**j - d for j in range(12) for d in (0, 1)}
        for length in sorted(powers.union(range(301))):
            assert cw.language_words(length) == language_words_by_host(length), length

    def test_words_match_every_window_of_the_pairs(self):
        # the listing reads one pair's first half and the middle windows of
        # the two others, 2^n + 2L windows instead of 3 * (2^(n+1) - L)
        for length in [*range(301), 511, 1023, 2047, 4095]:
            assert cw.language_words(length) == language_words_by_slices(length), length

    def test_words_read_no_host(self, monkeypatch):
        built = []
        build = cw.build_w
        monkeypatch.setattr(cw, "build_w", lambda n: built.append(n) or build(n))
        for length in [*range(130), 1023, 1024, 2047, 2048]:
            built.clear()
            cw.language_words(length)
            assert max(built) <= max(1, length.bit_length()), length

    def test_lex_key_sorts_like_rank_tuples(self):
        rng = random.Random(10)
        words = [u for length in range(13) for u in cw.language_words(length)]
        words += [u[::-1] + u for u in rng.sample(words, 200)]
        rng.shuffle(words)
        by_tuples = sorted(words, key=lambda w: tuple("aBCD".index(c) for c in w))
        assert sorted(words, key=cw.lex_key) == by_tuples

    @pytest.mark.parametrize("n", range(1, 7))
    def test_minimality_bound(self, n):
        w = cw.build_w(n)
        for u in cw.language_words(2 * len(w) + 1):
            assert w in u

    def test_listing_cap(self, monkeypatch):
        # a listing of L letters holds about 3 * 2^n words of L letters each;
        # past |w_12| = 4095 it is refused before w_13 is built
        monkeypatch.setattr(cw, "build_w", lambda n: pytest.fail(f"built w_{n}"))
        for length in (4096, 2**24 - 1, 2**24):
            with pytest.raises(SizeLimitError, match="exceeds the cap 2\\^12 - 1"):
                cw.language_words(length)

    def test_cap_error(self):
        with pytest.raises(SizeLimitError, match="exceeds the cap 2\\^24 - 1"):
            cw.language_contains("aD" * 2**23)  # 2^24 letters, longer than w_24

    def test_long_queries_build_no_host(self, monkeypatch):
        # 2^21 letters and more were refused as needing a host w_{n+3}
        word, periodic = cw.build_w(22), cw.ring(20) * 4
        monkeypatch.setattr(cw, "build_w", lambda n: pytest.fail(f"built w_{n}"))
        assert cw.language_contains(word)
        # (w_n alpha)^p leaves the language at its 2^{n+2}-th letter
        assert cw.language_contains(periodic[:-1])
        assert not cw.language_contains(periodic)

    def test_letters_are_checked(self):
        with pytest.raises(ValueError):
            cw.language_contains("aX")

    @pytest.mark.parametrize("length", range(0, 10))
    def test_matches_host_oracle_on_every_word(self, length):
        for letters in itertools.product(cw.LETTERS, repeat=length):
            u = "".join(letters)
            assert cw.language_contains(u) == host_language_contains(u), u

    def test_matches_host_oracle_on_mutated_factors(self):
        # one of B, C, D replaced by another: alternation survives, so
        # the substring search has to decide
        host = cw.build_w(15)
        rng = random.Random(4)
        for _ in range(300):
            length = rng.randint(1, 4096)
            start = rng.randrange(len(host) - length + 1)
            u = host[start : start + length]
            slots = [i for i, ch in enumerate(u) if ch != "a"]
            if not slots:
                continue
            i = rng.choice(slots)
            v = u[:i] + rng.choice([c for c in "BCD" if c != u[i]]) + u[i + 1 :]
            assert cw.language_contains(u) and host_language_contains(u)
            assert cw.language_contains(v) == host_language_contains(v), (start, length, i)


class TestPhase:
    def test_examples(self):
        assert cw.phase("") == (0, 0)
        assert cw.phase("a") == (1, 1)
        assert cw.phase("D") == (0, 1)  # index 2 mod 4, or 0 mod 32, ...
        assert cw.phase("B") == (0, 3)
        assert cw.phase("aDa") == (1, 1)  # D at level 1 or 4
        assert cw.phase("aDaCaDa") == (1, 2)
        assert cw.phase("aa") is None
        assert cw.phase("CaC") is None  # one of two letters 2 apart is D
        assert cw.phase("DaDaD") == (14, 4)  # the middle D at level 4 or 7 or ...
        assert cw.phase("DaDaDaD") is None
        with pytest.raises(ValueError):
            cw.phase("ab")

    def test_index_of_host_factors(self):
        host = cw.build_w(14)
        rng = random.Random(14)
        for _ in range(2000):
            length = rng.randint(0, 600)
            start = rng.randrange(len(host) - length + 1)
            r, m = cw.phase(host[start : start + length])
            assert (start + 1 - r) % 2**m == 0, (start, length)

    def test_decides_exactly_what_the_placements_decide(self):
        # every occurrence in w_16 agrees modulo 2^m, and, where w_16 has
        # room to tell, two of them differ modulo 2^{m+1}
        host = cw.build_w(10)
        factors = {host[s : s + n] for n in range(1, 41) for s in range(len(host) - n + 1)}
        for u in factors:
            r, m = cw.phase(u)
            found = {(s + 1) % 2 ** (m + 1) for s in placements(u)}
            assert {i % 2**m for i in found} == {r}, u
            assert len(found) == 2 or m >= PLACEMENT_BITS, u


@pytest.mark.parametrize("call, error, message", [
    (lambda: cw.alpha_choice(0), ValueError, "n must be positive"),
    (lambda: cw.language_words(-1), ValueError, "length must be non-negative"),
    # kappa substitutes first, and free reduction refuses the stray character
    (lambda: cw.kappa("ax"), ValueError, "invalid generator 'x'; expected one of abcd"),
    # a sort key for letters only: a stray character is not ranked
    (lambda: cw.lex_key("x"), ValueError, "invalid letter 'x'; expected one of aBCD"),
    (lambda: cw.lex_key("aDxC"), ValueError, "invalid letter 'x'; expected one of aBCD"),
], ids=["alpha_choice", "language_words", "kappa", "lex_key", "lex_key-inside"])
def test_argument_refusals(call, error, message):
    with pytest.raises(error, match=message):
        call()


@given(
    st.text(alphabet="aBCDabcd01 xé\x00\ud800", max_size=30),
    st.sampled_from([cw.LETTERS, cw.GENERATORS, "01", "xé", ""]),
)
def test_check_symbols_names_the_first_stray_character(word, alphabet):
    stray = next((c for c in word if c not in alphabet), None)
    if stray is None:
        cw.check_symbols(word, alphabet, "symbol")
    else:
        with pytest.raises(ValueError) as refusal:
            cw.check_symbols(word, alphabet, "symbol")
        assert str(refusal.value) == f"invalid symbol {stray!r}; expected one of {alphabet}"
