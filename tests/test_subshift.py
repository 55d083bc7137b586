import collections
import copy
import hashlib
import itertools
import json
import math
import random
import time

import pytest

import oracles
from oracles import (
    canonical_rotation_by_tuples,
    closed_walk_traces,
    comb_forbidden_by_rules,
    languages_equal,
    naive_in_language,
    naive_words,
    orbit_sft_forbidden,
    periodic_orbit_count,
    periodic_points_by_dfs,
    periodic_points_by_product,
    pseudo_orbit_by_bisection,
    pseudo_orbit_by_scan,
)
from starshift import subshift as sm
from starshift.core_words import (
    build_w, language_contains, language_set, language_words, lex_key, rank_table, ring,
)
from starshift.errors import DisjointnessError, EmptySftError, SizeLimitError
from starshift.subshift import WangTile, ZSft


class TestZSft:
    def test_full_shift(self):
        full = ZSft.from_forbidden("01", [])
        assert full.order == 1 and full.forbidden == ()
        assert full.words(3) == {"".join(b) for b in itertools.product("01", repeat=3)}

    def test_single_orbit(self):
        x = ZSft.from_forbidden("01", ["1"])
        assert x.words(4) == {"0000"}
        assert not x.is_empty

    def test_empty(self):
        x = ZSft.from_forbidden("01", ["0", "1"])
        assert x.is_empty
        assert x.words(0) == set()
        assert x.words(2) == set()

    def test_words_against_naive_oracle(self):
        rng = random.Random(11)
        for _ in range(25):
            order = rng.randint(1, 3)
            pool = ["".join(random.Random(rng.random()).choices("01", k=order))
                    for _ in range(rng.randint(0, 3))]
            x = ZSft.from_forbidden("01", pool)
            for length in range(2 * max(x.order, 1) + 1):
                assert x.words(length) == naive_words(length, "01", pool, x.order), pool

    def test_approximation_block_digest(self):
        # the blocks of sft_approximation(12) in the order a < B < C < D
        blocks = sorted(sm.sft_approximation(12).blocks, key=lex_key)
        digest = "4fd5d90a9ee27ee7f8cbef7f8585ce15f87eb9c0d217fd70c0e4acf4579f8a3d"
        assert hashlib.sha256("\n".join(blocks).encode()).hexdigest() == digest

    def test_enumeration_cap_comes_first(self, monkeypatch):
        # 4^12 = 2^24 blocks of length 12, past the cap of 2^22
        def refuse(*args, **kwargs):
            raise AssertionError("from_forbidden enumerated words")

        monkeypatch.setattr(sm, "product", refuse)
        with pytest.raises(SizeLimitError):
            ZSft.from_forbidden("aBCD", ["a" * 12])

    def test_forbidden_complement_guard(self):
        big = sm.sft_approximation(64)
        with pytest.raises(SizeLimitError):
            _ = big.forbidden


class TestApproximation:
    def test_order_one_has_no_constraints(self):
        assert sm.sft_approximation(1).forbidden == ()

    def test_order_two_forbidden(self):
        forb = set(sm.sft_approximation(2).forbidden)
        assert {"aa", "BB", "BC", "BD", "CB", "CC", "CD", "DB", "DC", "DD"} == forb

    @pytest.mark.parametrize("order", [2, 3, 5, 9])
    def test_generator_words_accepted(self, order):
        x = sm.sft_approximation(order)
        for n in range(1, 9):
            w = build_w(n)
            if len(w) < order:
                continue
            assert all(
                w[i : i + order] in x.blocks for i in range(len(w) - order + 1)
            )

    def test_short_words_are_language_words(self):
        x = sm.sft_approximation(6)
        for length in range(6):
            assert x.words(length) == set(language_words(length))

    def test_refinement_is_nested(self):
        coarse, fine = sm.sft_approximation(4), sm.sft_approximation(8)
        for length in range(1, 10):
            assert fine.words(length) <= coarse.words(length)

    def test_refinement_is_strict(self):
        coarse, fine = sm.sft_approximation(4), sm.sft_approximation(8)
        assert languages_equal(coarse, fine, 4)
        assert not languages_equal(coarse, fine, 8)
        # the coarse approximation admits words with close repeated B's
        # that the true language spaces at least eight letters apart
        assert coarse.words(5) - fine.words(5) == {"BaDaB", "BaDaD", "DaDaB"}

    def test_cap(self):
        with pytest.raises(SizeLimitError, match="approximation order 257 exceeds the cap 256"):
            sm.sft_approximation(257)

    def test_matches_the_checked_constructor(self):
        for order in [*range(1, 65), sm.APPROXIMATION_CAP]:
            x = sm.sft_approximation(order)
            checked = ZSft.from_blocks("aBCD", order, language_set(order))
            assert (x.alphabet, x.order, x.blocks) == (
                checked.alphabet, checked.order, checked.blocks), order
            assert x._graph == checked._graph, order

    def test_blocks_are_not_checked_again(self, monkeypatch):
        # the listing holds only language words over aBCD: no symbol check
        def refuse(*args, **kwargs):
            raise AssertionError("sft_approximation checked its blocks")

        monkeypatch.setattr(sm, "check_symbols", refuse)
        assert sm.sft_approximation(12).blocks == language_set(12)


def _criterion_05_orders(top):
    # the orders criterion 05 scans, in its order
    order = 2
    while order <= top:
        yield order
        order = order + 1 if order < 8 else order + 4


def _scan_cases():
    # every (order, p) criterion 05 visits for p <= 16, stopping where the
    # count says the approximation has no period-p point
    for p in range(1, 17):
        for order in _criterion_05_orders(8 * p):
            x = sm.sft_approximation(order)
            yield x, p
            if not periodic_orbit_count(x, p):
                break


def _comb_cases():
    for k in (2, 3, 4):
        comb = sm.comb_sft([WangTile("T", "x", "x")], k)
        yield from ((comb, p) for p in range(1, 4 * k + 1))


def _order_one_sfts():
    # an order-1 SFT's origin state is empty, so its p = 1 points are read
    # in place at once; ("b", "a") ranks its letters against code points
    return (
        ZSft.from_forbidden("012", []),
        ZSft.from_forbidden("012", ["1"]),
        ZSft.from_forbidden(("b", "a"), []),
        ZSft.from_blocks("ab", 1, ["a"]),
        sm.sft_approximation(1),
    )


def _order_one_cases():
    for x in _order_one_sfts():
        yield from ((x, p) for p in range(1, 7))


def _union():
    return sm.union_sft(ZSft.from_forbidden("01", ["11"]), ZSft.from_forbidden("01", ["0"]))


def _union_cases():
    union = _union()
    yield from ((union, p) for p in range(1, 2 * union.order + 1))


def _random_forbidden(rng, alphabet):
    return ["".join(rng.choices(alphabet, k=rng.randint(1, 4))) for _ in range(rng.randint(1, 5))]


def _random_sfts():
    rng = random.Random(17)
    for _ in range(50):
        alphabet = rng.choice(("01", "012"))
        yield ZSft.from_forbidden(alphabet, _random_forbidden(rng, alphabet))


def _random_cases():
    for x in _random_sfts():
        yield from ((x, p) for p in range(1, 11))


_POINT_CASES = {
    "scan": _scan_cases,
    "comb": _comb_cases,
    "order-1": _order_one_cases,
    "union": _union_cases,
    "random": _random_cases,
}


_REGIME_SFTS = {
    "approximation": lambda: (sm.sft_approximation(order) for order in range(3, 11)),
    "comb": lambda: (sm.comb_sft([WangTile("T", "x", "x")], k) for k in (2, 3, 4)),
    "order-1": _order_one_sfts,
    "random": _random_sfts,
}


def _orbit_sft(word, alphabet):
    # blocks of the word's length: its rotations, so the only point of
    # period len(word) is the orbit of word^Z
    rotations = {word[i:] + word[:i] for i in range(len(word))}
    return ZSft.from_blocks(alphabet, len(word), rotations)


class TestPeriodicPoints:
    def test_survivor_at_order_four(self):
        pts = sm.periodic_points(sm.sft_approximation(4), 4)
        assert canonical_rotation_by_tuples("aDaC", "aBCD") in pts

    def test_no_fixed_points(self):
        assert sm.periodic_points(sm.sft_approximation(2), 1) == []

    def test_monotone_in_order(self):
        for p in (2, 4, 6):
            previous = None
            for order in (2, 4, 8, 16):
                current = set(sm.periodic_points(sm.sft_approximation(order), p))
                if previous is not None:
                    assert current <= previous
                previous = current

    def test_canonical_rotation(self):
        # the one orbit of a word's SFT comes out as its least rotation
        assert sm.periodic_points(_orbit_sft("aDaC", "aBCD"), 4) == ["aCaD"]
        assert sm.periodic_points(_orbit_sft("ba", "ab"), 2) == ["ab"]

    @pytest.mark.parametrize("alphabet", ["01", "012", "aBCD", "T_"])
    def test_canonical_rotation_matches_the_tuple_oracle(self, alphabet):
        rng = random.Random(alphabet)
        for _ in range(500):
            root = "".join(rng.choices(alphabet, k=rng.randint(1, 6)))
            word = root * rng.randint(1, 3) + root[: rng.randint(0, len(root))]
            expected = canonical_rotation_by_tuples(word, alphabet)
            for letters in (alphabet, tuple(alphabet)):
                points = sm.periodic_points(_orbit_sft(word, letters), len(word))
                assert points == [expected], word

    def test_jsonl_report(self):
        comb = sm.comb_sft([WangTile("T", "x", "x")], 2)
        points = {p: sm.periodic_points(comb, p) for p in (1, 2, 4)}
        lines = sm.periodic_points_jsonl(points).strip().split("\n")
        payloads = [json.loads(line) for line in lines]
        assert [p["period"] for p in payloads] == [1, 2, 4]
        assert payloads[1] == {"count": 1, "period": 2, "words": ["T_"]}

    def test_cap(self):
        with pytest.raises(SizeLimitError):
            sm.periodic_points(sm.sft_approximation(2), 65)

    @pytest.mark.parametrize("family", sorted(_POINT_CASES))
    def test_matches_the_oracles(self, family):
        for x, p in _POINT_CASES[family]():
            pts = sm.periodic_points(x, p)
            assert pts == periodic_points_by_product(x, p), (family, x.order, p)
            # the closed-path walk shares the automaton, and is slow on
            # the near-full random SFTs: a second oracle on the others
            if family != "random":
                assert pts == periodic_points_by_dfs(x, p), (family, x.order, p)
            assert len(pts) == periodic_orbit_count(x, p), (family, x.order, p)
            assert len(set(pts)) == len(pts)
            for word in pts:
                assert word == canonical_rotation_by_tuples(word, x.alphabet)
                ring = word * (x.order // p + 2)
                assert all(ring[i : i + x.order] in x.blocks for i in range(p))

    @pytest.mark.parametrize("family", sorted(_REGIME_SFTS))
    def test_periods_around_the_origin_state(self, family):
        # m = order - 1 letters make the origin state: below p = m it holds
        # the whole period, from p = m on the search extends it
        for x in _REGIME_SFTS[family]():
            m = x.order - 1
            for p in range(max(m - 1, 1), m + 2):
                expected = periodic_points_by_product(x, p)
                assert sm.periodic_points(x, p) == expected, (family, x.order, p)

    def test_points_come_out_in_order_without_a_sort(self, monkeypatch):
        # the graph, built once per block set, is built before the patch
        # (by ``is_empty``): the search stacks its branches in descending
        # order, reads the last letter in ascending order, and sorts nothing
        x = sm.sft_approximation(2)
        assert not x.is_empty
        expected = periodic_points_by_product(x, 16)

        def refuse(*args, **kwargs):
            raise AssertionError("periodic_points sorted")

        monkeypatch.setattr(sm, "sorted", refuse, raising=False)
        assert sm.periodic_points(sm.sft_approximation(2), 16) == expected

    def test_alternating_count_at_order_two(self):
        # the necklaces of the eight letters between the `a`s, over BCD
        x = sm.sft_approximation(2)
        assert len(sm.periodic_points(x, 16)) == periodic_orbit_count(x, 16) == 834


def _criterion_05_steps():
    # the (p, order) pairs criterion 05 visits: each period stops at its
    # first order with no period-p point
    steps = []
    for p in range(1, 17):
        for order in _criterion_05_orders(8 * p):
            steps.append((p, order))
            if not sm.periodic_points(sm.sft_approximation(order), p):
                break
    return steps


_GRAPH_FAMILIES = {
    "scan": lambda: [sm.sft_approximation(order) for order in _criterion_05_orders(64)],
    "comb": lambda: [sm.comb_sft([WangTile("T", "x", "x")], k) for k in (2, 3, 4)],
    "union": lambda: [_union()],
}


class TestFollowerGraph:
    """The trimmed automaton, its seeds and its cycle gcd d, built once per
    block set and shared: ``periodic_points`` answers [] without a search
    when d does not divide p."""

    @pytest.mark.parametrize("family", sorted(_GRAPH_FAMILIES))
    def test_points_match_the_product_oracle(self, family):
        for x in _GRAPH_FAMILIES[family]():
            for p in range(1, 21):
                assert sm.periodic_points(x, p) == periodic_points_by_product(x, p), (x.order, p)

    @pytest.mark.parametrize("family", sorted(_GRAPH_FAMILIES))
    def test_cycle_gcd_divides_every_closed_walk(self, family):
        # by the traces of the adjacency powers, which share no code with
        # the graph: d divides every length with a closed walk, and is their
        # gcd on these families, whose trimmed graphs are strongly connected
        for x in _GRAPH_FAMILIES[family]():
            if x.order > 32:
                continue  # past order 25 the closed walks are 16 letters apart
            traces = closed_walk_traces(x, 40)
            lengths = [p for p in range(1, 41) if traces[p]]
            d = x._graph.cycle_gcd
            assert all(p % d == 0 for p in lengths), (x.order, d)
            assert d == math.gcd(*lengths), (x.order, d)

    def test_cycle_gcd_is_the_least_period_of_the_scanned_orders(self):
        # d is 2^n for the least n >= 1 with L <= 3 * 2^n (ROADMAP item 3)
        for order in _criterion_05_orders(128):
            n = max(1, math.ceil(math.log2(order / 3)))
            assert sm.sft_approximation(order)._graph.cycle_gcd == 2**n, order

    def test_an_empty_graph_has_no_points(self):
        empty = ZSft.from_forbidden("01", ["0", "1"])
        assert empty._graph.cycle_gcd == 0
        assert all(sm.periodic_points(empty, p) == [] for p in range(1, 5))

    def test_approximations_share_one_graph(self):
        first, second = sm.sft_approximation(12), sm.sft_approximation(12)
        assert first is not second
        assert first._graph is second._graph

    def test_a_scan_builds_one_graph_per_order(self):
        sm._follower_graph.cache_clear()
        steps = _criterion_05_steps()
        orders = {order for _, order in steps}
        assert (len(steps), len(orders)) == (80, 18)
        assert sm._follower_graph.cache_info().misses == len(orders)

    @pytest.mark.parametrize("family", sorted(_GRAPH_FAMILIES))
    def test_searches_leave_the_shared_graph_unchanged(self, family):
        for x in _GRAPH_FAMILIES[family]():
            before = copy.deepcopy(x._graph)
            for p in range(1, 21):
                sm.periodic_points(x, p)
            for length in range(x.order + 2):
                x.words(length)
            assert x._graph == before, x.order

    def test_the_cache_is_bounded(self):
        maxsize = sm._follower_graph.cache_info().maxsize
        assert maxsize is not None and 18 <= maxsize < math.inf
        for i in range(maxsize + 8):
            assert not _orbit_sft("0" * i + "1", "01").is_empty
        assert sm._follower_graph.cache_info().currsize == maxsize


class TestUnion:
    def test_two_constants(self):
        x1 = ZSft.from_forbidden("01", ["1"])
        x2 = ZSft.from_forbidden("01", ["0"])
        union = sm.union_sft(x1, x2)
        assert set(union.forbidden) == {"01", "10"}
        assert union.words(5) == {"00000", "11111"}

    def test_language_is_the_union(self):
        x1 = ZSft.from_forbidden("01", ["11"])
        x2 = ZSft.from_forbidden("01", ["0"])
        union = sm.union_sft(x1, x2)
        for length in range(2 * union.order + 1):
            assert union.words(length) == x1.words(length) | x2.words(length)

    def test_disjoint_alphabet_copies(self):
        # both inputs live on the shared four-letter alphabet but use
        # disjoint halves of it
        x1 = ZSft.from_forbidden("0123", ["2", "3", "11"])
        x2 = ZSft.from_forbidden("0123", ["0", "1", "23"])
        union = sm.union_sft(x1, x2)
        for length in range(2 * union.order + 1):
            assert union.words(length) == x1.words(length) | x2.words(length)

    def test_periodic_orbit_pairs_against_naive(self):
        rng = random.Random(5)
        accepted = 0
        while accepted < 10:
            u = "".join(rng.choice("01") for _ in range(rng.randint(1, 4)))
            v = "".join(rng.choice("01") for _ in range(rng.randint(1, 4)))
            if canonical_rotation_by_tuples(u * 2, "01") == canonical_rotation_by_tuples(v * 2, "01"):
                continue  # same orbit when repeated to equal lengths
            fu, fv = orbit_sft_forbidden(u, "01"), orbit_sft_forbidden(v, "01")
            x1, x2 = ZSft.from_forbidden("01", fu), ZSft.from_forbidden("01", fv)
            try:
                union = sm.union_sft(x1, x2)
            except DisjointnessError:
                continue  # one orbit contained in the other's power
            horizon = 2 * union.order
            for length in range(horizon + 1):
                expected = naive_words(length, "01", fu, x1.order) | naive_words(
                    length, "01", fv, x2.order
                )
                assert union.words(length) == expected
            accepted += 1

    def test_not_disjoint_raises_with_witness(self):
        full = ZSft.from_forbidden("01", [])
        with pytest.raises(DisjointnessError) as err:
            sm.union_sft(full, ZSft.from_forbidden("01", ["11"]))
        assert err.value.witness in full.words(len(err.value.witness))

    def test_witness_is_least_in_the_alphabets_order(self):
        # with b < a, the least shared word is all b; by code point it
        # would be 'ababa'
        full = ZSft.from_forbidden(("b", "a"), [])
        with pytest.raises(DisjointnessError) as err:
            sm.union_sft(full, ZSft.from_forbidden(("b", "a"), ["aa"]))
        assert err.value.witness == "bbbbb"

    def test_alphabet_mismatch(self):
        with pytest.raises(ValueError):
            sm.union_sft(ZSft.from_forbidden("01", []), ZSft.from_forbidden("ab", []))

    def test_word_counts_are_the_listings(self):
        # the count the cap reads, against the words the union lists
        for x in _random_sfts():
            for length in range(max(x.order - 1, 0), x.order + 4):
                assert sm._word_count(x, length) == len(x.words(length)), (x.blocks, length)

    def test_inputs_sharing_a_configuration_are_refused_in_time(self):
        # both pairs share a configuration, 0^Z and (0001)^Z, so the graph of
        # their shared 4-blocks keeps a cycle and the union is refused at
        # once; listing up to hi (37 and 69) passed the cap at length 18.
        # The witness is the least word of length hi of the shared blocks
        for f1, f2, witness in (("0110", "111", "0" * 37), ("0000", "1111", ("0001" * 18)[:69])):
            x1, x2 = ZSft.from_forbidden("01", [f1]), ZSft.from_forbidden("01", [f2])
            start = time.perf_counter()
            with pytest.raises(DisjointnessError) as err:
                sm.union_sft(x1, x2)
            assert time.perf_counter() - start < 1
            assert err.value.witness == witness

    def test_a_witness_past_the_cap_is_refused(self):
        # forbidding 1^n and forbidding 0^n share (0^(n-1) 1)^Z and have
        # 2^(n-1) - 1 states each, so hi = n + (2^(n-1) - 1)^2 + 1: at
        # n = 8 the witness has 16,393 letters, at n = 9 and n = 16 it
        # would pass the cap of 65,536, and a billion letters at n = 16.
        # The refusal comes before the walk; the time is the union's own,
        # the inputs' graphs (32,767 states each at n = 16) built first
        def pair(n):
            x1, x2 = ZSft.from_forbidden("01", ["1" * n]), ZSft.from_forbidden("01", ["0" * n])
            x1._graph, x2._graph
            return x1, x2

        with pytest.raises(DisjointnessError) as err:
            sm.union_sft(*pair(8))
        assert err.value.witness == ("0" * 7 + "1") * 2049 + "0"
        for n, hi in ((9, 65546), (16, 1073741841)):
            x1, x2 = pair(n)
            start = time.perf_counter()
            with pytest.raises(SizeLimitError) as err:
                sm.union_sft(x1, x2)
            assert time.perf_counter() - start < 1
            assert str(err.value) == (
                f"the inputs of the union share a configuration, but its witness "
                f"of length {hi} is past the cap 65536"
            )

    def test_the_cap_guards_disjoint_inputs(self):
        # the second input is 0^Z, which the first lacks, so they share no
        # configuration; the first input's 17-words are refused before the
        # first listing
        x1, x2 = ZSft.from_forbidden("01", ["0" * 17]), ZSft.from_forbidden("01", ["1"])
        with pytest.raises(SizeLimitError) as err:
            sm.union_sft(x1, x2)
        assert str(err.value) == (
            "an input of the union has 131071 words of length 17, past the cap 65536"
        )

    def test_matches_the_listing_oracle(self):
        # 400 seeded pairs over 01 and 012, each input forbidding 1-5 words
        # of length 1-4 or carved out as the orbit of a word of 1-4 letters,
        # so that some disjoint pairs share words past the larger order.
        # The oracle lists both languages up to hi, so it runs at a cap of
        # 2^10 words; where it refuses, the answer is checked on its own.
        # A witness of the oracle is a word of both languages, and
        # union_sft's the least of a shared configuration: never before
        # it, and equal when the oracle's is one too.  A last, fixed pair
        # is refused by the oracle and answered by a union: the
        # non-decreasing words over 0123 (C(n+3, 3) of length n, 1,140 at
        # n = 17) and the orbit of (0123)^Z given at order 17
        outcomes = collections.Counter()
        for case, (x1, x2) in enumerate(_oracle_pairs()):
            alphabet = x1.alphabet
            lo = max(x1.order, x2.order)
            hi = lo + len(x1._graph.trans) * len(x2._graph.trans) + 1
            ranks = rank_table(alphabet)
            try:
                expected = oracles.union_by_listing(x1, x2, cap=2**10)
            except DisjointnessError as err:
                outcomes["disjointness"] += 1
                with pytest.raises(DisjointnessError) as got:
                    sm.union_sft(x1, x2)
                witness = got.value.witness
                assert len(witness) == hi, case
                assert witness.translate(ranks) >= err.witness.translate(ranks), case
                shared = ZSft.from_blocks(alphabet, lo, x1.words(lo) & x2.words(lo))
                if naive_in_language(err.witness, alphabet, shared.forbidden, lo):
                    assert witness == err.witness, case
            except SizeLimitError:
                try:
                    union = sm.union_sft(x1, x2)
                except DisjointnessError as got:
                    outcomes["refusal, then disjointness"] += 1
                    witness = got.witness
                else:
                    outcomes["refusal, then a union"] += 1
                    for n in range(2 * union.order + 1):
                        assert union.words(n) == x1.words(n) | x2.words(n), (case, n)
                    continue
            else:
                outcomes["union past the larger order" if expected.order > lo + 1 else "union"] += 1
                union = sm.union_sft(x1, x2)
                assert (union.order, union.blocks) == (expected.order, expected.blocks), case
                continue
            for x in (x1, x2):
                assert naive_in_language(witness, alphabet, x.forbidden, x.order), case
        assert outcomes.pop("refusal, then a union") >= 1, outcomes
        assert min(outcomes.values()) >= 15 and len(outcomes) == 4, outcomes


def _oracle_pairs():
    rng = random.Random(40)
    for _ in range(400):
        alphabet = rng.choice(("01", "012"))
        yield tuple(
            ZSft.from_forbidden(
                alphabet,
                orbit_sft_forbidden("".join(rng.choices(alphabet, k=rng.randint(1, 4))), alphabet)
                if rng.random() < 0.5
                else _random_forbidden(rng, alphabet),
            )
            for _ in range(2)
        )
    yield (
        ZSft.from_forbidden("0123", ["10", "20", "21", "30", "31", "32"]),
        ZSft.from_blocks("0123", 17, {("0123" * 5)[i : i + 17] for i in range(4)}),
    )


class TestComb:
    def test_single_tile_k2(self):
        comb = sm.comb_sft([WangTile("T", "x", "x")], 2)
        assert sm.periodic_points(comb, 2) == ["T_"]
        # the cyclic word T_ covers the two phase points
        assert sm.periodic_points(comb, 1) == []
        assert sm.periodic_points(comb, 3) == []
        assert sm.periodic_points(comb, 4) == ["T_T_"]

    def test_single_tile_k3(self):
        comb = sm.comb_sft([WangTile("T", "x", "x")], 3)
        for p in range(1, 13):
            pts = sm.periodic_points(comb, p)
            assert bool(pts) == (p % 3 == 0)

    def test_phase_uniqueness(self):
        tiles = [WangTile("R", "x", "y"), WangTile("S", "y", "x")]
        k = 2
        comb = sm.comb_sft(tiles, k)
        for p in range(1, 4 * k + 1):
            for word in sm.periodic_points(comb, p):
                residues = {
                    i % k for i, c in enumerate(word + word) if c != sm.BLANK
                }
                assert len(residues) == 1

    def test_unmatchable_colors_empty(self):
        with pytest.raises(EmptySftError):
            sm.comb_sft([WangTile("R", "x", "y")], 2)

    def test_k_must_be_at_least_two(self):
        with pytest.raises(ValueError):
            sm.comb_sft([WangTile("T", "x", "x")], 1)

    def test_blocks_match_the_rules(self):
        rng = random.Random(9)
        for _ in range(300):
            names = rng.sample("RSTU", rng.randint(1, 3))
            tiles = [WangTile(c, rng.choice("xy"), rng.choice("xy")) for c in names]
            k = rng.randint(2, 5)
            unmatched = [t.name + u.name for t in tiles for u in tiles if t.right != u.left]
            if not naive_words(1, names, unmatched, 2):  # the tile row is empty
                with pytest.raises(EmptySftError):
                    sm.comb_sft(tiles, k)
                continue
            rules = ZSft.from_forbidden(names + [sm.BLANK], comb_forbidden_by_rules(tiles, k))
            assert sm.comb_sft(tiles, k).blocks == rules.blocks, (tiles, k)

    def test_cap_comes_before_any_block(self, monkeypatch):
        # 2^23 words of length k + 1 = 23 over {T, _}, past the cap of 2^22;
        # the one SFT built is the tile row, on 2-blocks
        orders = []
        build = ZSft.from_blocks
        monkeypatch.setattr(ZSft, "from_blocks",
                            lambda alphabet, order, blocks: orders.append(order)
                            or build(alphabet, order, blocks))
        with pytest.raises(SizeLimitError):
            sm.comb_sft([WangTile("T", "x", "x")], 22)
        assert orders == [2]

    def test_blocks_are_written_not_enumerated(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("comb_sft enumerated words")

        monkeypatch.setattr(sm, "product", refuse)
        comb = sm.comb_sft([WangTile("T", "x", "x")], 16)
        assert comb.order == 17 and len(comb.blocks) == 16


class TestPseudoOrbit:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_all_checks_pass(self, n):
        report = sm.pseudo_orbit_demo(n)
        assert report.in_approximation
        assert report.action_well_defined
        assert report.outside_language
        assert report.all_passed

    def test_minimal_failing_lengths(self):
        # the longest periodic stretch in the language has 2^{n+2}-1
        # letters and a single phase, so failures start at 3*2^n + 1
        for n in range(1, sm.PSEUDO_ORBIT_CAP + 1):
            report = sm.pseudo_orbit_demo(n)
            assert report.minimal_failing_length == 3 * 2**n + 1

    def test_n2_witness_is_short(self):
        report = sm.pseudo_orbit_demo(2)
        assert report.minimal_failing_length <= 2 * len(build_w(3)) + 1
        assert report.failing_word == "CaDaCaDaCaDaC"

    def test_report_serializes(self):
        payload = json.loads(json.dumps(sm.pseudo_orbit_demo(1).to_dict()))
        assert payload["checks"]["outside_language"] is True
        assert payload["period"] == 2

    def test_cap(self):
        with pytest.raises(SizeLimitError):
            sm.pseudo_orbit_demo(9)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_the_length_scan(self, n):
        assert sm.pseudo_orbit_demo(n).to_dict() == pseudo_orbit_by_scan(n).to_dict()

    @pytest.mark.parametrize("n", range(1, sm.PSEUDO_ORBIT_CAP + 1))
    @pytest.mark.parametrize("t", [None, 0, 8])
    def test_matches_the_bisection(self, n, t):
        assert sm.pseudo_orbit_demo(n, t).to_dict() == pseudo_orbit_by_bisection(n, t).to_dict()

    @pytest.mark.parametrize("n", range(1, 7))
    def test_sweep_is_exact_for_any_factor_closed_language(self, monkeypatch, n):
        # the sweep relies on factor-closure alone: on languages avoiding a
        # few seeded excerpts of the repetition, some of them single letters
        # so that a start can reach nothing, it agrees with the bisection,
        # and it never asks about the empty word
        rep = ring(n) * 6
        rng = random.Random(n)
        for _ in range(40):
            avoided = [
                rep[s : s + rng.choice([1, rng.randrange(2, 9), rng.randrange(9, 4 * 2**n + 2)])]
                for s in rng.sample(range(2**n), rng.randrange(min(4, 2**n)))
            ]
            queries = []

            def avoids(word):
                return not any(f in word for f in avoided)

            monkeypatch.setattr(sm, "language_contains", lambda w: queries.append(w) or avoids(w))
            monkeypatch.setattr(oracles, "language_contains", avoids)
            report = sm.pseudo_orbit_demo(n, 0).to_dict()
            assert report == pseudo_orbit_by_bisection(n, 0).to_dict(), avoided
            assert "" not in queries, avoided

    def test_language_queries_are_few(self, monkeypatch):
        # one sweep whose prefix ends never move left, not a bisection per
        # start: at most three queries per start on average
        calls = []

        def counting(word):
            calls.append(word)
            return language_contains(word)

        monkeypatch.setattr(sm, "language_contains", counting)
        for n in range(1, sm.PSEUDO_ORBIT_CAP + 1):
            calls.clear()
            sm.pseudo_orbit_demo(n)
            assert len(calls) <= 3 * 2**n, n


@pytest.mark.parametrize("call, error, message", [
    (lambda: ZSft(("a",), 0, frozenset()), ValueError, "order must be positive"),
    (lambda: ZSft(("ab",), 1, frozenset()), ValueError,
     "alphabet symbols must be single characters: 'ab'"),
    (lambda: ZSft(("a", "b"), 2, frozenset({"a"})), ValueError, "bad admissible block 'a'"),
    # the rank order of an alphabet with a repeated symbol is ill-defined
    (lambda: ZSft.from_forbidden(("0", "1", "1"), ["11"]), ValueError,
     "alphabet symbol '1' repeats"),
    (lambda: ZSft.from_blocks("aba", 1, {"a"}), ValueError, "alphabet symbol 'a' repeats"),
    (lambda: ZSft.from_forbidden("ab", [""]), ValueError, "cannot forbid the empty word"),
    (lambda: ZSft.from_blocks("01", 2, ["0x"]), ValueError,
     "invalid symbol 'x'; expected one of 01"),
    # refused before the order is read: 2^30 words would be too many to enumerate
    (lambda: ZSft.from_forbidden("01", ["x"]), ValueError, "invalid symbol 'x'"),
    (lambda: ZSft.from_forbidden("01", ["x" * 30]), ValueError, "invalid symbol 'x'"),
    (lambda: sm.sft_approximation(3).words(-1), ValueError, "length must be non-negative"),
    (lambda: sm.sft_approximation(0), ValueError, "order must be positive"),
    (lambda: sm.periodic_points(sm.sft_approximation(3), 0), ValueError, "p must be positive"),
    (lambda: sm.pseudo_orbit_demo(0), ValueError, "n must be positive"),
    (lambda: WangTile("_", "x", "x"), ValueError, "tile names are single characters"),
    (lambda: sm.comb_sft([WangTile("T", "x", "x"), WangTile("T", "y", "y")], 2), ValueError,
     "tile names must be distinct"),
    # the alphabet is checked before the order: 3^30 and 3^40 words would
    # be too many to enumerate
    (lambda: ZSft.from_forbidden(("0", "1", "1"), ["1" * 30]), ValueError,
     "alphabet symbol '1' repeats"),
    (lambda: ZSft.from_forbidden(("ab", "cd", "ef"), ["ab" * 20]), ValueError,
     "alphabet symbols must be single characters: 'ab'"),
], ids=["order", "symbol", "block", "repeated-symbol", "repeated-block-symbol",
        "from_forbidden", "block-symbol", "forbidden-symbol", "forbidden-symbol-long",
        "words", "sft_approximation", "periodic_points", "pseudo_orbit_demo", "WangTile", "comb_sft",
        "repeated-symbol-long", "multi-character-symbol-long"])
def test_argument_refusals(call, error, message):
    with pytest.raises(error, match=message):
        call()
