"""Independent brute-force oracles used to cross-check the library.

SFT language membership is decided by explicit extension search, not by
the follower automaton.  Periodic points are listed from the admissible
blocks alone, every word whose cyclic windows are blocks kept if it is
least among its rotations, and counted from traces of the untrimmed
block graph, where the library enumerates necklaces on the trimmed
automaton; a second listing walks every closed path of that automaton
and reduces it to its least rotation.  Relators are checked here in
their expanded form, letter by letter against the jump tables, which the
library never does, and a circular repetition (w_n alpha)^p on its own
tables, where the library reads every p off one lift to the Z-cover, and
the relator pass composes each level's ad and every relator's table anew,
where the library reuses (ac)^2 as the next ad and composes relators as
steps only.  Membership in
the shift's own language is a substring search in a host w_{n+3}, the
words of one length are that host's factors, or every window of the
three pairs w_n alpha w_n, where the library lists the windows of one
pair that start in its first half and the middle windows of the other
two, and the factor map is
read from where a window's letters occur in w_16, where the library
parses the letters near the origin instead; the natural blocks are
listed from a parse of the whole window, where the library places the
one at the origin, and the tower of factor-map values is read one k at
a time from that listing.  The longest language prefixes of the
periodic pseudo-point are bisected start by start, where the library
reads them in one sweep.  Least rotations are chosen among all
rotations by their tuples of ranks, where the library reaches them as
necklaces.  Group words are reduced letter by
letter on a stack, where the library first checks whether they already
are, window walks fold single jump moves with the margin rule applied
at every step, orbit graphs are joined one jump move per position and
generator, where the library reads the jump tables, and they are
serialised by ``json.dumps`` and line by line in DOT, where the library
assembles each export in one join.  The tree action is read from the
leading block of ones of each vertex, one bit string at a time, where the
library follows the sections of the wreath recursion, and a word's
triviality up to a level and quadrant support from its table on a whole
level, composed from those one letter at a time, where the library reads
its sections one level at a time and builds no table.  The expanded
kappa^k, the jump rule read across the end of a circular word, the fixed
point of the letterwise substitution tau, the cocycle
evaluation that checks its pieces partition the neighborhoods, and the
length-by-length comparison of two SFT languages are references the
tests read and the library does not need.  The union of two SFTs is
decided by listing both languages up to the pigeonhole bound, where the
library reads the graph of their shared blocks.
"""

import json
from bisect import bisect_left
from functools import lru_cache
from itertools import accumulate, count, product
from math import gcd
from typing import Sequence

import numpy as np

from starshift.core_words import (
    GENERATORS, KAPPA, WORD_CAP, alpha_choice, build_w, free_reduce, is_alternating, kappa,
    language_contains, lex_key, phase, rank_table, ring,
)
from starshift.errors import DisjointnessError, MarginExhaustedError, SizeLimitError
from starshift.full_group import CocyclePiece
from starshift.jump_action import (
    JUMP_SETS,
    _after,
    _side_by_side_lifts,
    check_circular,
    circular_jump_permutation,
    linear_jump_permutation,
    moving_relator,
    relation_set,
)
from starshift.subshift import BLANK, UNION_WORD_CAP, PseudoOrbitReport, ZSft, _word_count

PLACEMENT_HOST = 16  # placements are occurrences in w_16
PLACEMENT_BITS = 8  # kept modulo 2^8, enough for blocks up to w_8


def admissible(word: str, forbidden) -> bool:
    return not any(b in word for b in forbidden)


def _extends(word: str, alphabet, forbidden, steps: int, to_right: bool) -> bool:
    # depth-first search for an admissible extension of the given length
    if steps == 0:
        return True
    for c in alphabet:
        candidate = word + c if to_right else c + word
        if admissible(candidate, forbidden) and _extends(
            candidate, alphabet, forbidden, steps - 1, to_right
        ):
            return True
    return False


def naive_in_language(word: str, alphabet, forbidden, order: int) -> bool:
    """Language membership for the SFT avoiding ``forbidden``.

    A word lies in the language iff it extends admissibly by K symbols
    on each side, where K is the number of admissible (order-1)-words:
    such a path must revisit a follower state and can then be pumped to
    a bi-infinite configuration.
    """
    if not admissible(word, forbidden):
        return False
    k = sum(
        1
        for u in product(alphabet, repeat=max(order - 1, 0))
        if admissible("".join(u), forbidden)
    )
    return _extends(word, alphabet, forbidden, k + 1, True) and _extends(
        word, alphabet, forbidden, k + 1, False
    )


def naive_words(length: int, alphabet, forbidden, order: int) -> set[str]:
    return {
        "".join(u)
        for u in product(alphabet, repeat=length)
        if naive_in_language("".join(u), alphabet, forbidden, order)
    }


def orbit_sft_forbidden(word: str, alphabet) -> list[str]:
    """Forbidden words carving out exactly the shift orbit of word^Z."""
    n = len(word)
    rotations = {word[i:] + word[:i] for i in range(n)}
    return sorted(
        "".join(u)
        for u in product(alphabet, repeat=n)
        if "".join(u) not in rotations
    )


def comb_forbidden_by_rules(tiles, k: int) -> list[str]:
    """Forbidden words of the comb over the tiles and a blank, each of its
    three rules through its shortest violations: k blanks in a row, two
    tiles closer than k, and a tile without a matching tile k later."""
    words = [BLANK * k]
    for t in tiles:
        words.append(t.name + BLANK * k)
        for u in tiles:
            words += [t.name + BLANK * gap + u.name for gap in range(k - 1)]
            if t.right != u.left:
                words.append(t.name + BLANK * (k - 1) + u.name)
    return words


def relator_fixes_all_starrings(relator: str, letters: str, circular: bool = False) -> bool:
    """True iff the expanded relator fixes every starring of ``letters``.

    Linear words have len+1 starrings, circular ones len starrings.
    """
    if circular:
        check_circular(letters)
        perms = {g: circular_jump_permutation(letters, g) for g in GENERATORS}
    else:
        if not is_alternating(letters):
            raise ValueError(f"{letters!r} is not alternating")
        perms = {g: linear_jump_permutation(letters, g) for g in GENERATORS}
    identity = np.arange(len(next(iter(perms.values()))), dtype=np.int64)
    return np.array_equal(_compose(relator, perms), identity)


def _compose(word: str, perms: dict[str, np.ndarray]) -> np.ndarray:
    # permutations of one finite set, composed right-to-left by indexing
    perm = np.arange(len(next(iter(perms.values()))), dtype=np.int64)
    for g in reversed(word):
        perm = perms[g][perm]
    return perm


def moving_relator_by_cover(letters: str, t: int) -> int | None:
    """Index in relation_set(t) of the first relator that moves a
    starring of the circular word ``letters``, read on its own
    permutation tables: a p-fold repetition is evaluated on tables of
    length p * len(base), where the library reads every p off one lift."""
    if t < 0:
        raise ValueError("t must be non-negative")
    perms = {g: circular_jump_permutation(letters, g) for g in GENERATORS}
    identity = np.arange(len(letters), dtype=np.int64)
    family = [(r, 0) for r in ("aa", "bb", "cc", "dd", "bcd")]
    family += [(r, k) for k in range(t + 1) for r in ("adadadad", "adacac" * 4)]
    level = 0
    for index, (relator, k) in enumerate(family):
        if k > level:  # replace the tables by their kappa-images
            a, b, c, d = (perms[g] for g in GENERATORS)
            perms, level = {"a": a[c[a]], "b": d, "c": b, "d": c}, k
        if not np.array_equal(_compose(relator, perms), identity):
            return index
    return None


def windings_by_levels(rings: list[str], t: int | None = None) -> list[list[int | None]]:
    """The relator pass of :func:`side_by_side_windings` level by level:
    every level composes its own ad from its a- and d-tables, every
    relator's table is composed with its step, the relators' steps are
    stacked into a new array at each level, and each ring's repeat key
    is read by its own ``tobytes``."""
    if t is not None and t < 0:
        raise ValueError("t must be non-negative")
    if not rings:
        raise ValueError("no circular words given")
    for ring in rings:
        check_circular(ring)
    sizes = [len(ring) for ring in rings]
    total = sum(sizes)
    starts = list(accumulate(sizes[:-1], initial=0))
    identity = np.arange(total, dtype=np.int64)

    def after(x, y):
        # x after y, each a (table, step) pair
        table = _after(x[1], y[0])
        return table, table - identity

    lifts = _side_by_side_lifts(rings, starts, sizes)
    perms = dict(zip(GENERATORS, zip(lifts, lifts - identity)))
    rows: list[list[int | None]] = [[] for _ in rings]
    live = set(range(len(rings)))  # the rows still reading
    seen = [set() for _ in rings]  # the repeat keys of each row's levels
    # the steps of the Klein relators aa, bb, cc, dd and bcd = b after cd
    a, b, c, d = perms.values()
    relators = [after(x, x)[1] for x in (a, b, c, d)] + [after(b, after(c, d))[1]]
    for k in count():
        # the windings of a row are all integers iff the gcd of its shifts
        # is a multiple of N, and their gcd is then that gcd over N
        shifts = np.gcd.reduceat(np.array(relators), starts, axis=1).T.tolist()
        for i in list(live):
            for shift in shifts[i]:
                if shift % total:
                    rows[i].append(None)
                    live.remove(i)
                    break
                rows[i].append(shift // total)
        if not live or k - 1 == t:  # or the kappa^t seeds were the last
            break
        if k:  # replace the tables by their kappa-images; aca is the last ac after a
            perms = {g: perms[image] if image in perms
                     else after(perms[image[:-1]], perms[image[-1]])
                     for g, image in KAPPA.items()}
        for i in list(live):
            key = (k % 3, perms["a"][0][starts[i] : starts[i] + sizes[i]].tobytes())
            if key in seen[i]:
                live.remove(i)
            seen[i].add(key)
        if not live:
            break
        # the seeds of _SEED_ROOTS: (ad)^4 and (adacac)^4, adacac = ad after (ac)^2
        ad = after(perms["a"], perms["d"])
        perms["ac"] = ac = after(perms["a"], perms["c"])  # kappa's next image reads it
        relators = []
        for root in (ad, after(ad, after(ac, ac))):
            square = after(root, root)
            relators.append(after(square, square)[1])
    return rows


def kappa_iter(word: str, k: int) -> str:
    """k-fold application of :func:`kappa`, reducing after each step."""
    if k < 0:
        raise ValueError("k must be non-negative")
    out = free_reduce(word)
    for _ in range(k):
        out = kappa(out)
    return out


# Letterwise substitution generating the same one-sided fixed point as
# the w_n words; on this alphabet it reads a -> aD, B -> aD, C -> aB,
# D -> aC.
_TAU = {"a": "aD", "B": "aD", "C": "aB", "D": "aC"}


def tau_fixed_point_prefix(length: int) -> str:
    """First ``length`` letters of the substitution fixed point from `a`.

    Agrees with the corresponding prefix of every sufficiently long w_n.
    """
    if length < 0:
        raise ValueError("length must be non-negative")
    if length > 2**WORD_CAP - 1:
        raise SizeLimitError(f"prefix length {length} exceeds cap 2^{WORD_CAP}-1")
    word = "a"
    while len(word) < length:
        word = "".join(_TAU[c] for c in word)
    return word[:length]


def evaluate_cocycle(pieces: Sequence[CocyclePiece], left: str, right: str) -> int:
    hits = [
        p.shift
        for p in pieces
        if (p.left is None or left in p.left) and (p.right is None or right in p.right)
    ]
    if len(hits) != 1:
        raise ValueError(f"cocycle pieces do not partition ({left!r}, {right!r})")
    return hits[0]


def languages_equal(x1: ZSft, x2: ZSft, up_to: int) -> bool:
    """Whether the two subshifts have the same words at every length <= up_to."""
    if tuple(x1.alphabet) != tuple(x2.alphabet):
        raise ValueError("languages are only compared over a shared alphabet")
    return all(x1.words(n) == x2.words(n) for n in range(up_to + 1))


def union_by_listing(x1: ZSft, x2: ZSft, cap: int = UNION_WORD_CAP) -> ZSft:
    """The union of two SFTs by listing alone, the reference for
    :func:`~starshift.subshift.union_sft`, which decides whether the
    inputs share a configuration on the graph of their shared blocks.

    Grows a window length m until the two languages share no m-word, up
    to hi = lo + |S1|·|S2| + 1, past which it raises DisjointnessError
    with the least shared hi-word: a word of both languages, not always
    of a shared configuration.  An (m+1)-block is admissible iff both of
    its m-subwords come from the same input.  More than ``cap`` m-words
    of either input raise SizeLimitError, before they are listed.
    """
    if tuple(x1.alphabet) != tuple(x2.alphabet):
        raise ValueError("union requires a shared alphabet")
    lo = max(x1.order, x2.order)
    hi = lo + len(x1._graph.trans) * len(x2._graph.trans) + 1
    m = lo
    while True:
        for x in (x1, x2):
            found = _word_count(x, m)
            if found > cap:
                raise SizeLimitError(
                    f"an input of the union has {found} words of length {m}, "
                    f"past the cap {cap}"
                )
        w1, w2 = x1.words(m), x2.words(m)
        shared = w1 & w2
        if not shared:
            break
        if m >= hi:
            ranks = rank_table(x1.alphabet)
            witness = min(shared, key=lambda w: w.translate(ranks))
            raise DisjointnessError(
                f"subshifts share arbitrarily long words, e.g. {witness!r}",
                witness=witness,
            )
        m += 1
    blocks = set()
    for words in (w1, w2):
        for w in words:
            for c in x1.alphabet:
                if (w + c)[1:] in words:
                    blocks.add(w + c)
    return ZSft.from_blocks(x1.alphabet, m + 1, blocks)


def alternating_by_pairs(word: str) -> bool:
    """Alternation read pair by pair: exactly one letter of each adjacent
    pair is `a`."""
    return all((x == "a") != (y == "a") for x, y in zip(word, word[1:]))


def language_words_by_host(length: int) -> list[str]:
    """The language words of one length as the distinct factors of the
    host w_{n+3}, n the least with length <= 2^n - 1, sorted by their
    tuples of letter ranks."""
    n = max(1, length.bit_length())
    host = build_w(n + 3)
    found = {host[i : i + length] for i in range(len(host) - length + 1)}
    rank = {c: i for i, c in enumerate("aBCD")}
    return sorted(found, key=lambda w: tuple(map(rank.__getitem__, w)))


_LETTER_DIGITS = str.maketrans("aBCD", "0123")


def language_words_by_slices(length: int) -> list[str]:
    """The language words of one length as every window of the three
    pairs w_n alpha w_n, n the least with length <= 2^n - 1, sorted with
    each letter written as the digit of its rank (a tuple of ranks per
    word would hold 8 bytes a letter, some 300 MB at 4095 letters)."""
    n = max(1, length.bit_length())
    w = build_w(n)
    doubles = [w + alpha + w for alpha in "BCD"]
    found = {d[i : i + length] for d in doubles for i in range(len(d) - length + 1)}
    return sorted(found, key=lambda w: w.translate(_LETTER_DIGITS))


def canonical_rotation_by_tuples(word: str, alphabet) -> str:
    """Least rotation of a word, every rotation built and compared by its
    tuple of ranks in the alphabet."""
    rank = {c: i for i, c in enumerate(alphabet)}
    rotations = [word[i:] + word[:i] for i in range(len(word))]
    return min(rotations, key=lambda w: tuple(rank[c] for c in w))


def host_language_contains(word: str) -> bool:
    """Membership in the shift's language: alternation, then a substring
    search, since a language word of length <= 2^n - 1 occurs in w_{n+3}."""
    if not is_alternating(word):
        return False
    n = max(1, len(word).bit_length())
    return word in build_w(n + 3)


@lru_cache(maxsize=None)
def placements(letters: str) -> frozenset[int]:
    """Start positions of every occurrence of ``letters`` in w_16,
    modulo 2^PLACEMENT_BITS; position p of w_16 has index p + 1 in the
    fixed point."""
    host = build_w(PLACEMENT_HOST)
    found, i = set(), host.find(letters)
    while i >= 0:
        found.add(i % 2**PLACEMENT_BITS)
        i = host.find(letters, i + 1)
    return frozenset(found)


@lru_cache(maxsize=None)
def _gray_codes(n: int) -> tuple[int, ...]:
    # phi_1 = (1, 0); phi_{n+1} appends 1 to phi_n, then 0 to phi_n reversed
    codes = (1, 0)
    for _ in range(n - 1):
        codes = tuple(2 * c + 1 for c in codes) + tuple(2 * c for c in reversed(codes))
    return codes


def psi_by_placement(x, k: int) -> set[str]:
    """First k Gray bits of the vertex below the window's origin, over
    every occurrence of its letters in w_16, where the natural w_{k+1}
    blocks start at the multiples of 2^{k+1}."""
    assert k + 1 <= PLACEMENT_BITS
    span = 2 ** (k + 1)
    codes = _gray_codes(k + 1)
    return {
        format(codes[(s + x.origin) % span], f"0{k + 1}b")[:k]
        for s in placements(x.letters)
    }


def natural_blocks_by_listing(x, n: int) -> list[int]:
    """Start offsets of every natural w_n block fully visible in a window,
    from :func:`core_words.phase` of all its letters; MarginExhaustedError
    when they do not fix the index of the first letter modulo 2^n."""
    r, m = phase(x.letters)
    if m < n:
        raise MarginExhaustedError(
            f"window too small to identify the natural w_{m + 1} blocks"
        )
    span = 2**n
    return list(range((1 - r) % span, len(x.letters) - span + 2, span))


def central_block_by_listing(x, n: int) -> int:
    """The one listed natural w_n block that holds the origin; raises
    MarginExhaustedError when the letters do not fix the blocks or no
    listed block holds the origin."""
    central = [o for o in natural_blocks_by_listing(x, n) if 0 <= x.origin - o < 2**n]
    if not central:
        raise MarginExhaustedError(
            f"the w_{n} block at the origin is not fully inside the window"
        )
    return central[0]


def psi_by_offsets(k: int, x) -> str:
    """First k Gray bits of the vertex below the window's origin, read
    from the listed natural w_{k+1} block that holds the origin."""
    code = _gray_codes(k + 1)[x.origin - central_block_by_listing(x, k + 1)]
    return format(code, f"0{k + 1}b")[:k]


def blocks_by_placement(x, n: int) -> set[tuple[int, ...]]:
    """Offsets of the fully visible w_n blocks, over every occurrence of
    the window's letters in w_16."""
    assert n <= PLACEMENT_BITS
    span = 2**n
    return {
        tuple(o for o in range(len(x.letters) - span + 2) if (s + o) % span == 0)
        for s in placements(x.letters)
    }


def pseudo_orbit_by_scan(n: int, t: int = 6) -> PseudoOrbitReport:
    """The periodic pseudo-point report with one membership query for
    every excerpt of every length, checked by substring search, and the
    relators expanded."""
    period = 2**n
    word_len = 4 * period
    ring = build_w(n) + alpha_choice(n)
    rep = ring * (word_len // period + 2)
    host = build_w(n + 1)
    check_i = all(
        host_language_contains(rep[s : s + period]) and rep[s : s + period] in host
        for s in range(period)
    )
    check_ii = all(relator_fixes_all_starrings(r, ring, circular=True) for r in relation_set(t))
    check_iii = all(
        not host_language_contains(rep[s : s + word_len]) for s in range(period)
    )
    minimal_len, witness = 0, ""
    for length in range(1, word_len + 1):
        bad = [
            rep[s : s + length]
            for s in range(period)
            if not host_language_contains(rep[s : s + length])
        ]
        if bad:
            minimal_len, witness = length, sorted(bad, key=lex_key)[0]
            break
    return PseudoOrbitReport(
        n=n,
        alpha=alpha_choice(n),
        period=period,
        window_length=word_len,
        in_approximation=check_i,
        action_well_defined=check_ii,
        outside_language=check_iii,
        minimal_failing_length=minimal_len,
        failing_word=witness,
    )


def pseudo_orbit_by_bisection(n: int, t: int | None = None) -> PseudoOrbitReport:
    """The periodic pseudo-point report with the longest language prefix
    of each start found by its own bisection over the lengths 1..4*2^n,
    about n + 3 membership queries per start."""
    period = 2**n
    word_len = 4 * period
    letters = ring(n)
    rep = letters * (word_len // period + 2)
    lengths = range(1, word_len + 1)
    reach = [
        bisect_left(lengths, True, key=lambda k: not language_contains(rep[s : s + k]))
        for s in range(period)
    ]
    minimal_len = min(reach) + 1 if min(reach) < word_len else 0
    bad = [rep[s : s + minimal_len] for s in range(period) if reach[s] < minimal_len]
    return PseudoOrbitReport(
        n=n,
        alpha=letters[-1],
        period=period,
        window_length=word_len,
        in_approximation=min(reach) >= period,
        action_well_defined=moving_relator(letters, t) is None,
        outside_language=max(reach) < word_len,
        minimal_failing_length=minimal_len,
        failing_word=min(bad, key=lex_key, default=""),
    )


def periodic_points_by_dfs(sft: ZSft, p: int) -> list[str]:
    """Every closed length-p path of the follower automaton from every
    state, each reduced to its canonical rotation, so an orbit is found
    once per closed walk through it; sorted by the tuple of ranks.  The
    automaton is in rank space, and each path is translated back."""
    trans, symbols = sft._graph.trans, dict(enumerate(sft.alphabet))
    found: set[str] = set()
    for start in trans:
        stack = [(start, "")]
        while stack:
            state, word = stack.pop()
            if len(word) == p:
                if state == start:
                    found.add(canonical_rotation_by_tuples(word.translate(symbols), sft.alphabet))
                continue
            for c, t in trans[state].items():
                stack.append((t, word + c))
    return sorted(found, key=lambda w: tuple(sft.alphabet.index(c) for c in w))


def periodic_points_by_product(sft: ZSft, p: int) -> list[str]:
    """Every length-p word whose cyclic windows of the SFT's order are
    all blocks and which is least among its rotations, sorted in the
    alphabet's order; reads ``sft.blocks`` and nothing else.

    The words are grown letter by letter through ``itertools.product``,
    a prefix kept while it is a prefix of a block, or, once it is as
    long as the order, while it ends in one: every prefix of a word
    passing the cyclic test does both, so none is lost.  Rotations are
    compared with each letter written as its rank in the alphabet.
    """
    order = sft.order
    ranks = str.maketrans({c: chr(i) for i, c in enumerate(sft.alphabet)})
    heads = {b[:i] for b in sft.blocks for i in range(1, min(order, p + 1))}
    words = [""]
    for length in range(1, p + 1):
        allowed = sft.blocks if length >= order else heads
        words = [w + c for w, c in product(words, sft.alphabet) if (w + c)[-order:] in allowed]
    found = []
    for word in words:
        ranked = word.translate(ranks)
        doubled = ranked + ranked
        if any(doubled[i : i + p] < ranked for i in range(1, p)):
            continue
        ring = word * (order // p + 2)
        if all(ring[i : i + order] in sft.blocks for i in range(p)):
            found.append((ranked, word))
    return [word for _, word in sorted(found)]


def closed_walk_traces(sft: ZSft, p_max: int) -> list[int]:
    """tr(A^d) for d = 1..p_max after tr(A^0), A the adjacency matrix of
    the block graph: an edge from the prefix to the suffix of every
    block, untrimmed, since a closed walk never visits a state off the
    bi-infinite paths.  Over Python ints, rows kept as dicts of the
    non-zero entries."""
    adjacency: dict[str, dict[str, int]] = {}
    for b in sft.blocks:
        adjacency.setdefault(b[1:], {})
        row = adjacency.setdefault(b[:-1], {})
        row[b[1:]] = row.get(b[1:], 0) + 1
    power = {s: {s: 1} for s in adjacency}
    traces = [len(adjacency)]
    for _ in range(p_max):
        nxt = {}
        for s, row in power.items():
            out: dict[str, int] = {}
            for k, v in row.items():
                for t, w in adjacency[k].items():
                    out[t] = out.get(t, 0) + v * w
            nxt[s] = out
        power = nxt
        traces.append(sum(row.get(s, 0) for s, row in power.items()))
    return traces


def periodic_orbit_count(sft: ZSft, p: int) -> int:
    """Number of period-p orbits by Burnside's lemma on the closed walks:
    (1/p) * sum over d | p of phi(p/d) * tr(A^d), since rotating a closed
    length-p walk by k places fixes exactly the walks of period gcd(k, p)."""
    traces = closed_walk_traces(sft, p)
    total = sum(
        _totient(p // d) * traces[d] for d in range(1, p + 1) if p % d == 0
    )
    assert total % p == 0
    return total // p


def _totient(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


_KLEIN = {
    ("b", "c"): "d", ("c", "b"): "d",
    ("b", "d"): "c", ("d", "b"): "c",
    ("c", "d"): "b", ("d", "c"): "b",
}


def free_reduce_by_stack(word: str) -> str:
    """Free reduction in Z2 * Z2^2, one letter at a time on a stack:
    equal letters cancel, and two letters of Z2^2 multiply."""
    out: list[str] = []
    for g in word:
        cur = g
        while cur is not None and out:
            top = out[-1]
            if top == cur:
                out.pop()
                cur = None
            elif top != "a" and cur != "a":
                out.pop()
                cur = _KLEIN[top, cur]
            else:
                break
        if cur is not None:
            out.append(cur)
    return "".join(out)


def star_step(letters: str, j: int, g: str, circular: bool = False) -> int:
    """The jump rule: where generator ``g`` moves a star at position ``j``.

    The star jumps right across ``letters[j]`` if it is in the jump set
    of ``g``, else left across ``letters[j - 1]`` if that is, else stays.
    Linear positions run over [0, len], circular ones wrap in [0, len).
    """
    jumps = JUMP_SETS[g]
    n = len(letters)
    if j < n and letters[j] in jumps:
        j += 1
    elif (j > 0 or circular) and letters[j - 1] in jumps:
        j -= 1
    return j % n if circular else j


def apply_word_by_steps(word: str, x) -> tuple[str, int, int]:
    """``(letters, origin, margin)`` after a group word acts right-to-left
    on a window, one jump move at a time: a move needs a margin of at
    least 1 and spends one unit if it moves the origin."""
    origin, margin = x.origin, x.margin
    for g in reversed(word):
        if margin < 1:
            raise MarginExhaustedError(f"margin {margin} too small to apply a generator")
        moved = star_step(x.letters, origin, g)
        margin -= moved != origin
        origin = moved
    return x.letters, origin, margin


def schreier_edges_by_steps(letters: str, circular: bool = False) -> tuple[tuple[int, str, int], ...]:
    """The edges of the orbit graph of every starring of ``letters``, one
    :func:`star_step` per position and generator, merged as a set of
    (lower end, upper end, generator) and sorted, each as (lower
    position, generator, upper position)."""
    positions = len(letters) + (not circular)
    edges = set()
    for j in range(positions):
        for g in GENERATORS:
            t = star_step(letters, j, g, circular)
            edges.add((min(j, t), max(j, t), g))
    return tuple((a, g, b) for a, b, g in sorted(edges))


def schreier_dot_by_lines(graph) -> str:
    """An orbit graph in DOT, written line by line, vertex 0 marked."""
    names = graph.vertices
    lines = ["graph schreier {"]
    for j, v in enumerate(names):
        attrs = " [peripheries=2]" if j == 0 else ""
        lines.append(f'  "{v}"{attrs};')
    for lo, label, hi in graph.edges:
        lines.append(f'  "{names[lo]}" -- "{names[hi]}" [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def schreier_json_by_dumps(graph) -> str:
    """An orbit graph through the standard library's JSON encoder, each
    edge end named by its starred word, vertex 0 marked."""
    names = graph.vertices
    payload = {
        "vertices": list(names),
        "marked": names[0],
        "edges": [[names[lo], label, names[hi]] for lo, label, hi in graph.edges],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


# b, c, d fix the vertices 1^n 0 alpha x whose n has this residue mod 3
_TREE_RESIDUES = {"b": 2, "c": 1, "d": 0}


def act_generator_by_residue(g: str, v: str) -> str:
    """One generator on a bit string: `a` flips the first bit; b, c, d
    read v = 1^n 0 alpha x and flip alpha unless n is congruent to the
    generator's residue mod 3.  Strings too short to contain alpha are
    fixed."""
    if g == "a":
        return ("1" if v[0] == "0" else "0") + v[1:] if v else v
    n = len(v) - len(v.lstrip("1"))
    i = n + 1  # position of alpha in 1^n 0 alpha x
    if i >= len(v) or n % 3 == _TREE_RESIDUES[g]:
        return v
    return v[:i] + ("1" if v[i] == "0" else "0") + v[i + 1 :]


def act_word_by_residue(word: str, v: str) -> str:
    """A group word on a bit string, right-to-left one letter at a time
    by :func:`act_generator_by_residue`, with no reduction."""
    for g in reversed(word):
        v = act_generator_by_residue(g, v)
    return v


def level_permutation_by_bits(g: str, m: int) -> np.ndarray:
    """The permutation of {0,1}^m under one generator, each vertex
    written out as a bit string (first bit most significant) and moved
    by :func:`act_generator_by_residue`."""
    if m == 0:  # the root alone; format() would write it as "0"
        return np.zeros(1, dtype=np.int64)
    return np.array(
        [int(act_generator_by_residue(g, format(v, f"0{m}b")), 2) for v in range(1 << m)],
        dtype=np.int64,
    )


@lru_cache(maxsize=None)
def _level_table_by_bits(g: str, m: int) -> np.ndarray:
    table = level_permutation_by_bits(g, m)
    table.setflags(write=False)
    return table


def word_permutation_by_bits(word: str, m: int) -> np.ndarray:
    """The permutation of {0,1}^m under a group word, composed
    right-to-left one letter at a time from :func:`level_permutation_by_bits`."""
    perm = np.arange(1 << m, dtype=np.int64)
    for g in reversed(word):
        perm = _level_table_by_bits(g, m)[perm]
    return perm


def tree_moves_by_table(word: str, depth: int) -> tuple[int | None, set[str]]:
    """Read from the table of a group word on level ``depth``
    (:func:`word_permutation_by_bits`): the least level at which it moves
    a vertex, None if it fixes level ``depth``, and the two-bit prefixes
    of the vertices it moves there.  The word fixes level m <= depth iff
    that level is None or above m, and the prefixes are its quadrant
    support once ``depth`` is deep enough for the word."""
    moved = word_permutation_by_bits(word, depth) ^ np.arange(1 << depth)
    if not moved.any():
        return None, set()
    least = depth + 1 - int(moved.max()).bit_length()  # the first bit that differs
    quadrants = np.unique(np.nonzero(moved)[0] >> (depth - 2))
    return least, {format(int(q), "02b") for q in quadrants}
