import itertools
import random
import re
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, strategies as st

from oracles import (
    evaluate_cocycle, kappa_iter, moving_relator_by_cover, relator_fixes_all_starrings,
    star_step, windings_by_levels,
)
from starshift import full_group as fg, jump_action as ja, subshift
from starshift.cli import main
from starshift.core_words import WORD_CAP, build_w, ring
from starshift.errors import SizeLimitError, StarshiftError
from starshift.jump_action import StarredWord, check_circular, parse_starred


def test_jump_table_shape():
    assert ja.JUMP_SETS["a"] == "a"
    for letter in "BCD":
        carriers = [g for g in "bcd" if letter in ja.JUMP_SETS[g]]
        assert len(carriers) == 2
    assert all("a" not in ja.JUMP_SETS[g] for g in "bcd")


def test_starred_word_roundtrip():
    s = parse_starred("aDa*CaDa")
    assert s.word == "aDaCaDa" and s.star == 3
    assert str(s) == "aDa*CaDa"
    with pytest.raises(ValueError):
        parse_starred("a*a*")
    with pytest.raises(ValueError):
        StarredWord("aa", 0)


def test_worked_computation():
    # the six-step evaluation of dadaba on a starring of w_3
    steps = ["aDa*CaDa", "aD*aCaDa", "a*DaCaDa", "*aDaCaDa",
             "*aDaCaDa", "a*DaCaDa", "a*DaCaDa"]
    word = "dadaba"
    state = parse_starred(steps[0])
    for g, expected in zip(reversed(word), steps[1:]):
        state = ja.jump_generator(g, state)
        assert str(state) == expected
    assert str(ja.jump_word(word, parse_starred(steps[0]))) == "a*DaCaDa"


def test_jump_word_identity():
    s = parse_starred("aD*aCaDa")
    assert ja.jump_word("", s) == s


@pytest.mark.parametrize("n", range(1, 9))
def test_ab_power_walks_the_star_home(n):
    s = StarredWord("aD" * n, 2 * n)
    out = ja.jump_word("ab" * n, s)
    assert str(out) == "*" + "aD" * n
    assert out != s  # not an action of the quotient group


def test_walk_does_not_revalidate(monkeypatch):
    # the word is checked once, when the starred word is built; moves skip it
    calls = []
    check = ja.is_alternating
    monkeypatch.setattr(ja, "is_alternating", lambda w: calls.append(w) or check(w))
    s = StarredWord(build_w(10), 511)
    assert len(calls) == 1
    rng = random.Random(0)
    for _ in range(1000):
        s = ja.jump_generator(rng.choice("abcd"), s)
    assert len(calls) == 1


@pytest.mark.parametrize("call", [
    lambda g: ja.jump_generator(g, StarredWord("aDa", 1)),
    lambda g: ja.linear_jump_permutation("aDa", g),
    lambda g: ja.circular_jump_lift("aD", g),
    lambda g: ja.circular_jump_permutation("aD", g),
], ids=["jump_generator", "linear", "lift", "circular"])
@pytest.mark.parametrize("g", ["x", "B", "", "ab"])
def test_the_jump_rule_refuses_a_non_generator(call, g):
    with pytest.raises(ValueError, match="generator"):
        call(g)


@pytest.mark.parametrize("word", ["x", "abx", "aB"])
def test_jump_word_refuses_a_non_generator(word):
    with pytest.raises(ValueError, match="invalid generator"):
        ja.jump_word(word, StarredWord("aDa", 1))


def _alternating(rng: random.Random, length: int) -> str:
    # a seeded alternating word: a factor of w_8, or letters drawn freely,
    # which are mostly outside the language
    if rng.randrange(2):
        host = build_w(8)
        start = rng.randrange(len(host) - length + 1)
        return host[start : start + length]
    parity = rng.randrange(2)
    return "".join("a" if (i + parity) % 2 else rng.choice("BCD") for i in range(length))


def _star_by_steps(word: str, s: StarredWord) -> int:
    j = s.star
    for g in reversed(word):
        j = star_step(s.word, j, g)
    return j


class TestWalk:
    @pytest.mark.parametrize("seed", range(6))
    def test_jump_word_is_a_walk_by_steps(self, seed):
        # stars at and near both ends, and words longer than the starred word
        rng = random.Random(seed)
        for _ in range(40):
            letters = _alternating(rng, rng.randrange(14))
            n = len(letters)
            stars = {0, 1, 2, n - 2, n - 1, n, rng.randrange(n + 1)} & set(range(n + 1))
            for star in sorted(stars):
                s = StarredWord(letters, star)
                for length in (1, 2, n + 1, 2 * n + 3, rng.randrange(3 * n + 6)):
                    word = "".join(rng.choice("abcd") for _ in range(length))
                    out = ja.jump_word(word, s)
                    expected = (letters, _star_by_steps(word, s))
                    assert (out.word, out.star) == expected, (word, str(s))
                for g in "abcd":
                    assert ja.jump_generator(g, s).star == star_step(letters, star, g)

    def test_the_excerpt_ends_where_the_letters_do(self):
        letters = build_w(5)
        start, tables = ja.reach_tables(letters, 2, 5, "ab")
        assert start == 0
        assert tables["a"] == ja.linear_jump_permutation(letters[:7], "a").tolist()
        start, tables = ja.reach_tables(letters, len(letters) - 1, 5, "b")
        assert start == len(letters) - 6
        assert tables["b"] == ja.linear_jump_permutation(letters[-6:], "b").tolist()
        # both ends of the letters are positions
        assert ja.reach_tables("aDa", 0, 2, "a") == (0, {"a": [1, 0, 2]})
        assert ja.reach_tables("aDa", 3, 2, "a") == (1, {"a": [0, 2, 1]})


_DRAWN_LETTERS = "abcdxBé"
# the stabilizer oracle answers odd palindromes within the margin by half a walk
_PALINDROMES = st.builds(lambda u, t: u[::-1] + t + u,
                         st.text(alphabet=_DRAWN_LETTERS, max_size=8),
                         st.sampled_from(_DRAWN_LETTERS))


@given(word=st.one_of(st.text(alphabet=_DRAWN_LETTERS, max_size=12), _PALINDROMES),
       at=st.integers(0, 63), margin=st.integers(0, 32))
def test_the_walk_entries_return_or_refuse(word, at, margin):
    letters = build_w(6)
    window = fg.Window(letters, at, min(margin, at, len(letters) - at))
    for call in (lambda: ja.jump_word(word, StarredWord(letters, at)),
                 lambda: fg.apply_word(word, window),
                 lambda: fg.window_stabilizer_oracle(window)(word)):
        try:
            call()
        except (ValueError, StarshiftError):
            pass


class TestStarStep:
    @pytest.mark.parametrize("n", range(1, 13))
    def test_linear_table_is_star_step_everywhere(self, n):
        w = build_w(n)
        for g in "abcd":
            expected = [star_step(w, j, g) for j in range(len(w) + 1)]
            assert ja.linear_jump_permutation(w, g).tolist() == expected

    @pytest.mark.parametrize("n", range(1, 7))
    def test_circular_table_is_star_step_everywhere(self, n):
        for p in range(1, 9):
            letters = ring(n) * p
            for g in "abcd":
                expected = [
                    star_step(letters, j, g, circular=True)
                    for j in range(len(letters))
                ]
                assert ja.circular_jump_permutation(letters, g).tolist() == expected

    def test_tables_are_star_step_on_any_letters(self):
        # off alternating words both neighbors can qualify; right comes first
        for length in range(1, 6):
            for letters in map("".join, itertools.product("aBCD", repeat=length)):
                for g in "abcd":
                    linear = [star_step(letters, j, g) for j in range(length + 1)]
                    circular = [star_step(letters, j, g, True) for j in range(length)]
                    assert ja.linear_jump_permutation(letters, g).tolist() == linear
                    assert ja.circular_jump_permutation(letters, g).tolist() == circular

    def test_cocycle_is_star_step_on_every_neighborhood(self):
        for g in "abcd":
            pieces = fg.generator_cocycle(g)
            for left in "aBCD":
                for right in "aBCD":
                    shift = star_step(left + right, 1, g) - 1
                    assert evaluate_cocycle(pieces, left, right) == shift


class TestCircular:
    def test_not_cyclically_alternating(self):
        with pytest.raises(ValueError, match="not cyclically alternating"):
            check_circular("aDa")  # wraps a-to-a

    def test_empty(self):
        with pytest.raises(ValueError, match="must be nonempty"):
            check_circular("")

    def test_alternates_across_the_end(self):
        # every pair of cyclic neighbors, a lone letter its own neighbor
        for length in range(1, 7):
            for letters in map("".join, itertools.product("aBCD", repeat=length)):
                pairs = zip(letters, letters[1:] + letters[0])
                if all((x == "a") != (y == "a") for x, y in pairs):
                    check_circular(letters)
                else:
                    with pytest.raises(ValueError, match="not cyclically alternating"):
                        check_circular(letters)

    def test_examples(self):
        assert star_step("aD", 0, "a", circular=True) == 1
        # the left neighbor of position 0 is the last letter D
        assert star_step("aD", 0, "b", circular=True) == 1
        assert star_step("aD", 1, "c", circular=True) == 0
        assert star_step("aD", 1, "d", circular=True) == 1

    @pytest.mark.parametrize("n", range(1, 6))
    def test_quotient_of_double_cover(self, n):
        # acting on (w_n alpha)^2 and reducing the star mod 2^n agrees
        # with acting on (w_n alpha)^1
        base = ring(n)
        double = base * 2
        for g in "abcd":
            for star in range(len(double)):
                lifted = star_step(double, star, g, circular=True)
                projected = star_step(base, star % len(base), g, circular=True)
                assert lifted % len(base) == projected


class TestHRelations:
    @pytest.mark.parametrize("n", range(1, 11))
    def test_klein_identities_on_starrings(self, n):
        w = build_w(n)
        perms = {g: ja.linear_jump_permutation(w, g) for g in "abcd"}
        identity = np.arange(len(w) + 1)
        for g in "abcd":
            assert np.array_equal(perms[g][perms[g]], identity)
        assert np.array_equal(perms["b"][perms["c"]], perms["d"])
        assert np.array_equal(perms["c"][perms["b"]], perms["d"])
        assert np.array_equal(perms["c"][perms["d"]], perms["b"])


def test_empty_word_is_the_identity():
    tables = {g: ja.circular_jump_lift(ring(3), g) for g in "abcd"}
    identity = ja.word_star_permutation("", tables)
    assert identity.dtype == np.int64
    assert identity.tolist() == list(range(len(ring(3))))


def test_word_tables_fold_the_step():
    # the fold of the one composition step: right-to-left composition by
    # indexing on permutation tables, and the same mod the length on lifts
    rng = random.Random(7)
    letters = ring(4) * 3
    perms = {g: ja.circular_jump_permutation(letters, g) for g in "abcd"}
    lifts = {g: ja.circular_jump_lift(letters, g) for g in "abcd"}
    for _ in range(50):
        word = "".join(rng.choice("abcd") for _ in range(rng.randrange(1, 20)))
        expected = np.arange(len(letters))
        for g in reversed(word):
            expected = perms[g][expected]
        assert ja.word_star_permutation(word, perms).tolist() == expected.tolist(), word
        lifted = ja.word_star_permutation(word, lifts) % len(letters)
        assert lifted.tolist() == expected.tolist(), word


def test_relation_set_contents():
    rels = ja.relation_set(2)
    assert rels[:5] == ("aa", "bb", "cc", "dd", "bcd")
    assert "adadadad" in rels and "adacac" * 4 in rels
    assert "ac" * 8 in rels  # kappa of (ad)^4
    assert len(rels) == 5 + 2 * 3


def test_relator_names_follow_relation_set():
    names = [ja.relator_name(i) for i in range(len(ja.relation_set(3)))]
    assert names[:7] == ["aa", "bb", "cc", "dd", "bcd", "(ad)^4", "(adacac)^4"]
    assert names[-2:] == ["kappa^3((ad)^4)", "kappa^3((adacac)^4)"]
    for name, relator in zip(names[5:], ja.relation_set(3)[5:]):
        k, seed = re.fullmatch(r"(?:kappa\^(\d+)\()?\((\w+)\)\^4\)?", name).groups()
        assert kappa_iter(seed * 4, int(k or 0)) == relator, name


class TestRelatorChecks:
    def test_square_fixes_everything(self):
        assert relator_fixes_all_starrings("aa", "aDaCaDa")

    @pytest.mark.parametrize("n", range(1, 13))
    def test_relators_fix_linear_starrings(self, n):
        w = build_w(n)
        for r in ja.relation_set(6):
            assert relator_fixes_all_starrings(r, w)

    def test_circular_triple_cover_breaks(self):
        # (ad)^4 itself survives on the aD-triangle; its kappa-image is
        # what moves a starring, making the (n=1, p=3) table entry 0
        c = "aD" * 3
        assert relator_fixes_all_starrings("adadadad", c, circular=True)
        assert not relator_fixes_all_starrings("ac" * 8, c, circular=True)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_double_cover_well_defined(self, n):
        c = ring(n) * 2
        for r in ja.relation_set(6):
            assert relator_fixes_all_starrings(r, c, circular=True)


# the oracles expand kappa^t on rings of p * 2^n letters: n <= 8, t <= 8
ORACLE_N, ORACLE_T = 8, 8


@lru_cache(maxsize=None)
def _first_moving_on_cover(n: int, p: int) -> int | None:
    # the oracle's verdict on (w_n alpha)^p over the family at t = 8
    return moving_relator_by_cover(ring(n) * p, ORACLE_T)


def _moves_within(first: int | None, t: int) -> bool:
    # relation_set(t) is a prefix of relation_set(8)
    return first is not None and first < len(ja.relation_set(t))


def _random_rings(rng: random.Random, count: int) -> list[str]:
    # cyclically alternating words of mixed lengths, most of which stop at
    # (ad)^4, with (aD)^3, which stops at its kappa-image, and two w_n
    # alpha, which never stop
    rings = ["".join("a" + rng.choice("BCD") for _ in range(rng.randrange(1, 21)))
             for _ in range(count)]
    rings += ["aDaDaD"] + [ring(n) for n in rng.sample(range(1, 7), 2)]
    rng.shuffle(rings)
    return rings


@pytest.fixture
def composed(monkeypatch):
    # the size of each table or step the one composition step builds, in order
    calls = []
    step = ja._after
    monkeypatch.setattr(ja, "_after",
                        lambda steps, table, *rest: calls.append(len(table))
                        or step(steps, table, *rest))
    return calls


class TestMovingRelator:
    """The relator family evaluated through kappa on the tables, against
    the expanded relators of relation_set composed letter by letter."""

    @pytest.mark.parametrize("n", range(1, ORACLE_N + 1))
    def test_matches_expanded_relators(self, n):
        base = ring(n)
        family = ja.relation_set(ORACLE_T)
        for p in range(1, 31):
            word = base * p
            first = next(
                (i for i, r in enumerate(family)
                 if not relator_fixes_all_starrings(r, word, circular=True)),
                None,
            )
            for t in range(ORACLE_T + 1):
                # relation_set(t) is a prefix of relation_set(8)
                in_family = first is not None and first < len(ja.relation_set(t))
                expected = first if in_family else None
                assert ja.moving_relator(word, t) == expected, (n, p, t)

    @pytest.mark.parametrize("n", range(1, ORACLE_N + 1))
    def test_matches_the_covers(self, n):
        # every p read off one lift, against (w_n alpha)^p on its own tables
        base = ring(n)
        for p in range(1, ja.TABLE_CAPS[1] + 1):
            first = _first_moving_on_cover(n, p)
            for t in range(ORACLE_T + 1):
                expected = first if _moves_within(first, t) else None
                assert ja.moving_relator(base, t, p) == expected, (n, p, t)

    @pytest.mark.parametrize("n", range(1, ORACLE_N + 1))
    def test_windings_at_t8(self, n):
        # the relators before kappa^n((ad)^4) wind 0 times; kappa^n((ad)^4)
        # has gcd 8, kappa^n((adacac)^4) 24 and both kappa^(n+1) seeds 16,
        # so row n first fails at k = n, exactly for p not dividing 8
        base = ring(n)
        windings = ja.side_by_side_windings([base], 8)[0]
        first = 5 + 2 * n  # index of kappa^n((ad)^4) in relation_set(8)
        assert windings[:first] == [0] * first
        assert windings[first : first + 4] == [8, 24, 16, 16][: len(windings) - first]
        for p in range(1, ja.TABLE_CAPS[1] + 1):
            assert ja.moving_relator(base, 8, p) == (None if 8 % p == 0 else first)

    @pytest.mark.parametrize("n", range(1, ja.TABLE_CAPS[0] + 1))
    def test_whole_presentation_fails_on_the_triple_cover(self, n):
        # row n first fails at kappa^n((ad)^4), which relation_set(n) ends with
        expected = moving_relator_by_cover(ring(n) * 3, n + 1)
        assert ja.moving_relator(ring(n), None, 3) == expected == 5 + 2 * n

    def test_exponent_must_be_non_negative(self):
        with pytest.raises(ValueError):
            ja.moving_relator("aD", -1)

    def test_cover_must_be_positive(self):
        with pytest.raises(ValueError):
            ja.moving_relator("aD", 6, 0)

    def test_rings_must_be_nonempty(self):
        # and circular words: at t = None a ring that is not would never
        # repeat its tables, so the t = None calls come last
        for rings in ([], [""], ["aD", ""], ["aa"], ["a"], ["aD", "aBB"], ["aBa"], ["xyz"]):
            with pytest.raises(ValueError):
                ja.side_by_side_windings(rings, 6)
        for letters in ("", "aa", "xyz"):
            with pytest.raises(ValueError):
                ja.moving_relator(letters, 8)
        for letters in ("a", "B", "aa"):
            with pytest.raises(ValueError):
                ja.moving_relator(letters)


def _rotated_random_rings(seed: int, count: int) -> list[str]:
    # the rings of _random_rings, each rotated to start with any letter
    rng = random.Random(seed)
    return [letters[k:] + letters[:k]
            for letters in _random_rings(rng, count) for k in [rng.randrange(len(letters))]]


class TestSideBySide:
    """Rings evaluated side by side in one table against each ring on
    its own, table1 against every cover on its own tables, and the pass
    against its level-by-level oracle."""

    @pytest.mark.parametrize("rings, exponents", [
        ([ring(n) for n in range(1, ja.TABLE_CAPS[0] + 1)], [*range(14), None]),
        (["aBaBaB", "aDaDaD"], [*range(14), None]),
        (["aD", "aB", "aC"], [*range(14), None]),
        (_rotated_random_rings(300, 300), [2, 8, None]),
    ], ids=["w_n-alpha", "stops-early", "two-letter", "random-rotated"])
    def test_matches_the_pass_by_levels(self, rings, exponents):
        # each level's ad composed afresh, and every relator's table built
        for t in exponents:
            assert ja.side_by_side_windings(rings, t) == windings_by_levels(rings, t), t

    @pytest.mark.parametrize("n_max", range(1, ORACLE_N + 1))
    def test_table1_matches_the_covers_row_by_row(self, n_max):
        p_max = ja.TABLE_CAPS[1]
        for t in range(ORACLE_T + 1):
            expected = [
                [not _moves_within(_first_moving_on_cover(n, p), t) for p in range(1, p_max + 1)]
                for n in range(1, n_max + 1)
            ]
            assert ja.table1(n_max, p_max, t) == expected, t

    @pytest.mark.parametrize("seed", range(6))
    def test_mixed_rings_give_what_each_gives_alone(self, seed):
        rings = _random_rings(random.Random(seed), 10)
        for t in (0, 1, 4, ORACLE_T, None):
            together = ja.side_by_side_windings(rings, t)
            assert together == [ja.side_by_side_windings([ring], t)[0] for ring in rings], t
        # rows stop at different relators, and some never stop
        stops = {len(row) for row in together if row[-1] is None}
        assert len(stops) >= 2 and any(None not in row for row in together)

    @pytest.mark.parametrize("seed", range(4))
    def test_one_table_per_generator_lifts_every_ring(self, seed):
        # the lifts of all rings from one jump table per generator, against
        # each ring's own lift stored at its offset o as o + r + N q, the
        # residue plus N times the winding; rings of unequal lengths, 2-letter
        # rings, and rings rotated to start with any letter
        rng = random.Random(200 + seed)
        rings = [letters[k:] + letters[:k]
                 for letters in _random_rings(rng, 6) + ["aD", "aB", "aC"]
                 for k in [rng.randrange(len(letters))]]
        rng.shuffle(rings)
        assert any(letters[0] != "a" for letters in rings)
        sizes = [len(letters) for letters in rings]
        starts = list(itertools.accumulate(sizes[:-1], initial=0))
        total = sum(sizes)
        expected = [[] for _ in "abcd"]
        for letters, start in zip(rings, starts):
            for row, g in zip(expected, "abcd"):
                for value in ja.circular_jump_lift(letters, g).tolist():
                    winding, residue = divmod(value, len(letters))
                    row.append(start + residue + total * winding)
        assert ja._side_by_side_lifts(rings, starts, sizes).tolist() == expected

    @pytest.mark.parametrize("seed", range(3))
    def test_one_ring_matches_the_covers_on_random_rings(self, seed):
        for ring in _random_rings(random.Random(100 + seed), 6):
            for p in range(1, 4):
                first = moving_relator_by_cover(ring * p, ORACLE_T)
                assert ja.moving_relator(ring, ORACLE_T, p) == first, (ring, p)

    def test_a_row_that_stops_early_ends_the_pass(self, composed):
        # (ad)^4 moves a starring of (aB)^3, kappa((ad)^4) one of (aD)^3
        windings = ja.side_by_side_windings(["aBaBaB", "aDaDaD"], 8)
        assert windings == [[0] * 5 + [None], [0] * 7 + [None]]
        # the Klein relators (6 steps, bcd in two), then the seeds of k = 0
        # and k = 1 only (ac, (ac)^2, adacac and two squares of each root:
        # 7 steps a level, and ad at k = 0, which k = 1 reads from (ac)^2)
        # and the kappa-image aca between them, all on the 12 positions of
        # the two rings side by side
        assert composed == [12] * (6 + 1 + 7 + 1 + 7)


class TestRelatorFamilyCost:
    """Four jump tables, from one build, serve every ring side by side and
    every p, and the kappa-iterates are never expanded."""

    @pytest.fixture
    def counted(self, monkeypatch):
        # a build is one call of the jump rule, a table one generator's row
        counts = {"builds": 0, "tables": 0, "compositions": 0}
        build, step = ja._jump_table, ja._after

        def counting_build(padded, generators):
            counts["builds"] += 1
            counts["tables"] += len(generators)
            return build(padded, generators)

        def counting_step(steps, table, *rest):
            counts["compositions"] += 1
            return step(steps, table, *rest)

        for module in (ja, fg):  # fg.schreier_graph builds its own tables
            monkeypatch.setattr(module, "_jump_table", counting_build)
        monkeypatch.setattr(ja, "_after", counting_step)
        return counts

    def test_moving_relator_builds_four_tables(self, counted):
        assert ja.moving_relator(ring(2), p=2) is None
        assert counted["tables"] == 4 and counted["builds"] == 1

    def test_schreier_require_action_builds_eight_tables(self, counted, capsys):
        # four lifts of the ring for the relators from one build, four of
        # ring * 2 for the graph from another
        assert main(["schreier", "--n", "2", "--circular", "--p", "2",
                     "--require-action"]) == 0
        assert counted["tables"] == 8 and counted["builds"] == 2

    def test_pseudo_orbit_builds_four_tables(self, counted):
        assert subshift.pseudo_orbit_demo(3, t=8).action_well_defined
        assert counted["tables"] == 4 and counted["builds"] == 1

    def test_table1_letters_linear_in_t(self, counted):
        ja.table1(1, 1, 8)
        one_column = dict(counted)
        ja.table1(1, ja.TABLE_CAPS[1], 8)
        assert counted == {key: 2 * value for key, value in one_column.items()}
        assert one_column["tables"] == 4 and one_column["builds"] == 1
        # one row, which repeats its tables at k = 6 before t = 8 cuts it:
        # the Klein relators (6 steps), ad at k = 0 (1 step), the seeds
        # (7 steps) for each of k = 0..5, and the kappa-image aca of the
        # a-table (1 step) for each of k = 1..6
        assert one_column["compositions"] == 6 + 1 + 6 * 7 + 6

    @pytest.mark.parametrize("t", [8, None])
    def test_table1_builds_four_tables(self, counted, t):
        # one jump table per generator for all twelve rings, in one build
        ja.table1(ja.TABLE_CAPS[0], ja.TABLE_CAPS[1], t)
        assert counted["tables"] == 4 and counted["builds"] == 1

    def test_table1_composes_as_often_as_one_ring(self, composed):
        # exact, ring 6 reads the levels k = 0..10 and stops at k = 11,
        # where its kappa-image tables repeat those of k = 8
        for t, levels, images in ((8, 9, 8), (None, 11, 11)):
            composed.clear()
            ja.side_by_side_windings([ring(6)], t)
            alone = list(composed)
            composed.clear()
            ja.table1(6, ja.TABLE_CAPS[1], t)
            # every step on the joined table of rings 1..6, as many as ring 6's
            assert composed == [126] * len(alone) and alone == [64] * len(alone), t
            # the Klein relators (6 steps); ad at k = 0 (1 step), which each
            # later level reads from the last (ac)^2; for each level ac,
            # (ac)^2, adacac and two squares of each root (7 steps); for each
            # of k = 1..8 (or 1..11) the kappa-image aca of the a-table (1 step)
            assert len(alone) == 6 + 1 + levels * 7 + images, t


class TestRepeatingLevels:
    """The kappa-images of the four tables run through a finite set: the
    pass stops at the first level whose tables repeat an earlier one's."""

    @pytest.mark.parametrize("n", range(1, 11))
    def test_levels_until_the_tables_repeat(self, composed, n):
        # on w_n alpha the tables have pre-period n + 2 and period 3, so
        # levels 0..n+4 are distinct and level n+5 repeats level n+2
        windings = ja.side_by_side_windings([ring(n)])[0]
        # the Klein relators take 6 steps and ad at k = 0 one, and each
        # level 7 for its seeds and 1 for its kappa-image, which the level
        # that repeats still takes
        levels, rest = divmod(len(composed) - 6 - 1, 8)
        assert (levels, rest) == (n + 5, 0)
        assert len(windings) == 5 + 2 * levels
        exact = list(composed)
        composed.clear()
        # an exponent past the repeat composes nothing more
        assert ja.side_by_side_windings([ring(n)], 10**6)[0] == windings
        assert composed == exact


class TestTable1:
    def test_small_cell_values(self):
        rows = ja.table1(2, 4, 6)
        assert rows[0] == [True, True, False, True]
        assert rows[1] == [True, True, False, True]

    def test_caps(self):
        with pytest.raises(SizeLimitError):
            ja.table1(13, 4, 6)
        with pytest.raises(SizeLimitError):
            ja.table1(4, 65, 6)

    def test_exact_rows_are_the_divisors_of_8(self):
        # the whole presentation: every row up to the cap has winding gcd 8
        expected = [p in (1, 2, 4, 8) for p in range(1, 65)]
        assert ja.table1(12, 64) == [expected] * 12

    def test_exact_rows_are_a_law(self):
        # row n has 2n + 15 entries: the kappa-loop stops after n + 5
        # levels; its only non-zero windings are those of the seeds at
        # kappa^n and kappa^(n+1), so each row is the last shifted by one level
        n_max = ja.TABLE_CAPS[0]
        rows = ja.side_by_side_windings([ring(n) for n in range(1, n_max + 1)])
        for n, row in enumerate(rows, 1):
            assert len(row) == 2 * n + 15 and None not in row, n
            nonzero = {i: winding for i, winding in enumerate(row) if winding}
            assert nonzero == dict(zip(range(2 * n + 5, 2 * n + 9), (8, 24, 16, 16))), n
            assert [ja.relator_name(i) for i in nonzero] == [
                f"kappa^{n}((ad)^4)", f"kappa^{n}((adacac)^4)",
                f"kappa^{n + 1}((ad)^4)", f"kappa^{n + 1}((adacac)^4)",
            ], n

    def test_the_rings_grow_by_zeta(self):
        # ring(n + 1) is ring(n) with each letter x replaced by "a" + zeta(x),
        # zeta = {a: D, B: D, C: B, D: C}; pinned, never computed from
        zeta = str.maketrans({"a": "aD", "B": "aD", "C": "aB", "D": "aC"})
        for n in range(1, WORD_CAP):
            assert ring(n + 1) == ring(n).translate(zeta), n

    def test_low_t_row_is_spuriously_clean(self):
        # with only the relators of R_2, row 3 shows no contradictions
        rows = ja.table1(3, 12, 2)
        assert rows[2] == [True] * 12
        assert rows[1] == [p + 1 in (1, 2, 4, 8) for p in range(12)]


class TestOrbits:
    def test_smallest_orbit(self):
        assert fg.schreier_graph("a").vertices == ("*a", "a*")

    @pytest.mark.parametrize("n", [2, 3, 6, 9])
    def test_orbit_is_all_starrings(self, n):
        # every starring, in position order, linear and circular
        for letters, circular in ((build_w(n), False), (ring(n), True)):
            positions = range(len(letters) + (not circular))
            vertices = fg.schreier_graph(letters, circular).vertices
            assert vertices == tuple(letters[:j] + "*" + letters[j:] for j in positions)

    def test_rejects_other_words(self):
        with pytest.raises(ValueError):
            fg.schreier_graph("aBC")
        with pytest.raises(ValueError):
            fg.schreier_graph("aDa", circular=True)  # wraps a-to-a

    def test_cap_is_a_size_limit(self):
        assert len(fg.schreier_graph("aD" * 1024, circular=True).vertices) == 2**11
        with pytest.raises(SizeLimitError):
            fg.schreier_graph("aD" * 1025, circular=True)


@pytest.mark.parametrize("call, error, message", [
    (lambda: StarredWord("aDa", 4), ValueError, "star 4 out of range for 'aDa'"),
    (lambda: ja.relation_set(-1), ValueError, "t must be non-negative"),
    # refused before the expansion, which would hold about 2^23 letters at t = 17
    (lambda: ja.relation_set(ja.RELATION_SET_CAP + 1), SizeLimitError,
     "relator exponent 17 exceeds the cap 16"),
    (lambda: ja.relator_name(-1), ValueError, "relator index must be non-negative"),
    (lambda: ja.word_star_permutation("", {}), ValueError, "no tables given"),
    (lambda: ja.circular_jump_lift("", "a"), ValueError, "circular word must be nonempty"),
    (lambda: ja.reach_tables("aDa", 1, -1, "a"), ValueError, "reach must be non-negative"),
    # the jump tables read only a, B, C, D, and the reach only positions of the word
    (lambda: ja.linear_jump_permutation("x", "a"), ValueError,
     "invalid letter 'x'; expected one of aBCD"),
    (lambda: ja.circular_jump_permutation("x", "b"), ValueError, "invalid letter 'x'"),
    (lambda: ja.linear_jump_permutation("aDé", "a"), ValueError, "invalid letter 'é'"),
    (lambda: ja.circular_jump_lift("é", "c"), ValueError, "invalid letter 'é'"),
    (lambda: ja.linear_jump_permutation("a a", "d"), ValueError, "invalid letter ' '"),
    (lambda: ja.reach_tables("aXaB", 1, 1, "a"), ValueError, "invalid letter 'X'"),
    (lambda: ja.reach_tables("aDa", 10, 2, "a"), ValueError,
     r"position 10 out of range \[0, 3\]"),
    (lambda: ja.reach_tables("aDa", 4, 0, "a"), ValueError, r"position 4 out of range"),
    (lambda: ja.reach_tables("aDa", -1, 2, "a"), ValueError, r"position -1 out of range"),
], ids=["StarredWord", "relation_set", "relation_set-cap", "relator_name",
        "word_star_permutation", "circular_jump_lift", "reach_tables", "linear-letter", "circular-letter",
        "linear-non-ascii", "lift-non-ascii", "linear-blank", "reach_tables-letter",
        "reach_tables-past-end", "reach_tables-end-plus-one", "reach_tables-negative"])
def test_argument_refusals(call, error, message):
    with pytest.raises(error, match=message):
        call()
