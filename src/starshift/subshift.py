"""One-dimensional subshifts of finite type over small alphabets.

An SFT is its admissible blocks of one fixed length (the order), and
nothing else: :meth:`ZSft.from_forbidden` turns forbidden words into
blocks once, and ``forbidden`` is read back as their complement.  The
one view a ZSft derives from its blocks is its follower graph: the
follower automaton, with the (order-1)-blocks as states and the
order-blocks as edges, trimmed to the states on bi-infinite paths.  Its
states are then exactly the language words of length order-1, so
shorter words are their prefixes; its bi-infinite paths are exactly the
configurations, so longer words are its paths, and periodic points the
closed paths that spell a necklace, walked once per orbit from its
origin state.  The graph, kept in rank space (each symbol written as
the character of its rank), with its prenecklace states and the gcd of
its cycle lengths, is a function of the blocks alone, built once per
distinct block set and shared, in a bounded cache, by every ZSft with
those blocks.

Alphabet symbols are single characters and words are strings, matching
the rest of the package.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from functools import cached_property, lru_cache
from itertools import product
from math import gcd
from typing import NamedTuple

from . import core_words
from .core_words import check_symbols, language_contains, language_set, rank_table
from .errors import DisjointnessError, EmptySftError, SizeLimitError
from .jump_action import moving_relator

APPROXIMATION_CAP = 256
PERIOD_CAP = 64
_ENUM_CAP = 1 << 22  # largest alphabet**order we are willing to enumerate
# most words of one length that union_sft lists from either input (only
# inputs that share no configuration are listed past the larger order),
# and most letters of the witness it gives for inputs that share one
UNION_WORD_CAP = 1 << 16
# distinct block sets whose follower graph stays cached: a round of the
# aperiodicity scans for p <= 16 visits 18 orders
_GRAPH_CACHE = 32

BLANK = "_"


@dataclass(frozen=True, eq=False)
class ZSft:
    """Subshift of finite type, given by its admissible order-blocks."""

    alphabet: tuple[str, ...]
    order: int
    blocks: frozenset[str]

    def __post_init__(self):
        if self.order < 1:
            raise ValueError("order must be positive")
        _check_alphabet(self.alphabet)
        if set(map(len, self.blocks)) - {self.order}:
            bad = next(w for w in self.blocks if len(w) != self.order)
            raise ValueError(f"bad admissible block {bad!r}")
        check_symbols("".join(self.blocks), "".join(self.alphabet), "symbol")

    @classmethod
    def from_forbidden(
        cls, alphabet: tuple[str, ...] | str, forbidden: list[str] | tuple[str, ...]
    ) -> "ZSft":
        """SFT avoiding the given words (lengths may be mixed), kept as its
        admissible blocks: the words of the longest forbidden length that
        contain none of them, from the one enumeration of order-words.  The
        alphabet is checked first, before the order sets what to enumerate."""
        alphabet = tuple(alphabet)
        _check_alphabet(alphabet)
        bad = tuple(sorted(set(forbidden)))
        if "" in bad:
            raise ValueError("cannot forbid the empty word")
        check_symbols("".join(bad), "".join(alphabet), "symbol")
        order = max((len(w) for w in bad), default=1)
        blocks = frozenset(
            u for u in _order_words(alphabet, order) if not any(b in u for b in bad)
        )
        return cls(alphabet, order, blocks)

    @classmethod
    def from_blocks(
        cls, alphabet: tuple[str, ...] | str, order: int, blocks
    ) -> "ZSft":
        return cls(tuple(alphabet), order, frozenset(blocks))

    @cached_property
    def _graph(self) -> _FollowerGraph:
        return _follower_graph(self.alphabet, self.blocks)

    @property
    def is_empty(self) -> bool:
        return not self._graph.trans

    @property
    def forbidden(self) -> tuple[str, ...]:
        """The order-words that are not admissible blocks, sorted; read
        from the enumeration that :meth:`from_forbidden` filters."""
        words = _order_words(self.alphabet, self.order)
        return tuple(sorted(u for u in words if u not in self.blocks))

    def words(self, length: int) -> set[str]:
        """Words of the given length appearing in some configuration, read
        off the follower graph in rank space and translated back: up to
        length order-1 the prefixes of its states, beyond that its paths."""
        if length < 0:
            raise ValueError("length must be non-negative")
        trans, symbols = self._graph.trans, self._graph.symbols
        m = self.order - 1
        if length <= m:
            found = {s[:length] for s in trans}
        else:
            out = {s: {s} for s in trans}  # suffix state -> words read so far
            for _ in range(length - m):
                nxt: dict[str, set[str]] = {}
                for state, words in out.items():
                    for c, t in trans[state].items():
                        nxt.setdefault(t, set()).update(w + c for w in words)
                out = nxt
            found = set().union(*out.values())
        return {w.translate(symbols) for w in found}


def _check_alphabet(alphabet: tuple[str, ...]) -> None:
    """Raise ValueError unless the alphabet's symbols are distinct single
    characters."""
    for i, sym in enumerate(alphabet):
        if len(sym) != 1:
            raise ValueError(f"alphabet symbols must be single characters: {sym!r}")
        if sym in alphabet[:i]:
            raise ValueError(f"alphabet symbol {sym!r} repeats")


def _order_words(alphabet: tuple[str, ...], order: int):
    """Every word of length ``order`` over the alphabet, one at a time;
    SizeLimitError, before the first, when there are more than _ENUM_CAP."""
    if len(alphabet) ** order > _ENUM_CAP:
        raise SizeLimitError(
            f"the {len(alphabet)}^{order} words of length {order} are too many to enumerate"
        )
    return map("".join, product(alphabet, repeat=order))


class _FollowerGraph(NamedTuple):
    """The one view a ZSft derives from its blocks, all of it a function
    of the blocks and the alphabet: the trimmed follower automaton, its
    prenecklace states, and the gcd of its cycle lengths.  The automaton
    is in rank space: every symbol is written as the character of its
    rank in the alphabet (:func:`~starshift.core_words.rank_table`), so
    words compare in the alphabet's order as plain strings.  Shared by
    every ZSft with the same blocks, so nothing may change it."""

    # states in ascending order, and each state's edges in ascending order
    # of their letter
    trans: dict[str, dict[str, str]]
    # the states that are prenecklaces, in ascending order, each with the
    # period of its longest Lyndon prefix: the origin states of the
    # periodic points, where their necklace search starts
    seeds: dict[str, int]
    cycle_gcd: int  # divides the length of every closed walk; 0 when empty
    symbols: dict[int, str]  # translation from rank space back to the alphabet


@lru_cache(maxsize=_GRAPH_CACHE)
def _follower_graph(alphabet: tuple[str, ...], blocks: frozenset[str]) -> _FollowerGraph:
    # the blocks fix the order, save when there are none and the graph is empty
    ranks = rank_table(alphabet)
    trans = _trimmed_transitions(sorted(w.translate(ranks) for w in blocks))
    return _FollowerGraph(
        trans, _prenecklace_seeds(trans), _cycle_gcd(trans), dict(enumerate(alphabet))
    )


def _trimmed_transitions(blocks: list[str]) -> dict[str, dict[str, str]]:
    # read in ascending order, the blocks put the states and their edges
    # in ascending order, and deletions keep it
    trans: dict[str, dict[str, str]] = {}
    for w in blocks:
        trans.setdefault(w[:-1], {})[w[-1]] = w[1:]
    # keep only states on bi-infinite paths
    while True:
        for edges in trans.values():
            for c in [c for c, t in edges.items() if t not in trans]:
                del edges[c]
        with_in = {t for edges in trans.values() for t in edges.values()}
        dead = [s for s, edges in trans.items() if not edges or s not in with_in]
        if not dead:
            return trans
        for s in dead:
            del trans[s]


def _prenecklace_seeds(trans: dict[str, dict[str, str]]) -> dict[str, int]:
    seeds = {}
    for state in trans:
        lyn = 1
        for i in range(1, len(state)):
            if state[i] != state[i - lyn]:
                if state[i] < state[i - lyn]:
                    break
                lyn = i + 1
        else:
            seeds[state] = lyn
    return seeds


def _cycle_gcd(trans: dict[str, dict[str, str]]) -> int:
    """The gcd over all edges u -> v of level(u) + 1 - level(v), the
    levels set by a search of each weakly connected component over its
    edges taken both ways.  Along a closed walk the levels cancel, so its
    length is a sum of these terms, and a multiple of their gcd.  Each
    edge is read once, from its source, when both levels are set."""
    back: dict[str, list[str]] = {s: [] for s in trans}
    for s, edges in trans.items():
        for t in edges.values():
            back[t].append(s)
    level: dict[str, int] = {}
    d = 0
    for root in trans:
        if root in level:
            continue
        level[root] = 0
        queue = [root]
        for u in queue:
            up = level[u] + 1
            for v in trans[u].values():
                if v in level:
                    d = gcd(d, up - level[v])
                else:
                    level[v] = up  # a term 0
                    queue.append(v)
            for v in back[u]:
                if v not in level:
                    level[v] = up - 2
                    queue.append(v)
    return d


def sft_approximation(order: int) -> ZSft:
    """The SFT whose forbidden words are the non-language words of one length.

    For large orders the forbidden set is astronomical, so the SFT is
    built from the admissible side, the unordered listing
    :func:`~starshift.core_words.language_set` taken as its blocks;
    ``forbidden`` stays available for small orders.  The listing holds
    only language words of length ``order`` over aBCD, so the blocks
    skip the checks of ``ZSft.__post_init__``: a scan builds one
    approximation per step, and reading every block again would take
    about a third of that.
    """
    if order < 1:
        raise ValueError("order must be positive")
    if order > APPROXIMATION_CAP:
        raise SizeLimitError(f"approximation order {order} exceeds the cap {APPROXIMATION_CAP}")
    return _valid_sft(tuple(core_words.LETTERS), order, language_set(order))


def _valid_sft(alphabet: tuple[str, ...], order: int, blocks: frozenset[str]) -> ZSft:
    """A ZSft from arguments already known to be valid, without the
    checks of ``ZSft.__post_init__``."""
    x = object.__new__(ZSft)
    object.__setattr__(x, "alphabet", alphabet)
    object.__setattr__(x, "order", order)
    object.__setattr__(x, "blocks", blocks)
    return x


def periodic_points(sft: ZSft, p: int) -> list[str]:
    """All period-p orbits, each as the least rotation of its repeating
    word, in the alphabet's order.

    A period-p orbit is that of ``w^Z`` for one necklace ``w`` of length
    p, its least rotation in the alphabet's order.  Its walk through the
    follower automaton starts at its origin state, the first m = order-1
    letters of ``w^Z``, which is a prenecklace; so walks start only at
    the prenecklace states (the follower graph's ``seeds``), and each
    orbit is walked once.  A walk extends its word by prenecklaces only
    (the rule of Fredricksen, Kessler and Maiorana): ``lyn`` is the
    period of the word's longest Lyndon prefix, and a letter below the
    one ``lyn`` places back is pruned.  Once the word holds p - 1
    letters, the last letter is read in place: the state's edges are
    tried in ascending order, a letter above the one ``lyn`` places back
    is kept (the word is then a Lyndon word), one equal to it only when
    ``lyn`` divides p, and either only when the automaton reads, from the
    edge's target, the m letters that follow in ``w^Z``, which are the
    origin state.  A seed of p letters or more (p <= m) is itself the
    whole period: it is kept when ``lyn`` divides p and the automaton
    reads the m letters that follow ``word[:p]`` in ``w^Z``.  The list is
    empty when no such point exists.

    The walk runs in rank space, where letters compare as characters.
    It is depth-first, with the seeds and each state's edges stacked in
    descending order and the last letter read in ascending order, so the
    points come out already sorted; a state with one edge extends the
    word in place.  Each point is translated back to the alphabet once.

    A periodic point is a closed walk of length p, and the length of
    every closed walk is a multiple of the automaton's cycle gcd d
    (``_cycle_gcd``); so when d does not divide p the list is empty, and
    no search is made.
    """
    if p < 1:
        raise ValueError("p must be positive")
    if p > PERIOD_CAP:
        raise SizeLimitError(f"period {p} exceeds the cap {PERIOD_CAP}")
    trans, seeds, cycle_gcd, symbols = sft._graph
    if not trans or p % cycle_gcd:
        return []
    m = sft.order - 1
    found = []
    stack = [(s, s, lyn) for s, lyn in reversed(seeds.items())]
    while stack:
        state, word, lyn = stack.pop()
        i = len(word)
        while i < p - 1:
            edges = trans[state]
            back = word[i - lyn] if i else ""  # an order-1 SFT's empty state
            if len(edges) > 1:
                for c, t in reversed(edges.items()):
                    if c > back:
                        stack.append((t, word + c, i + 1))
                    elif c == back:
                        stack.append((t, word + c, lyn))
                    else:
                        break
                break
            [(c, state)] = edges.items()  # a forced letter, read in place
            if c < back:
                break
            if c > back:
                lyn = i + 1
            word += c
            i += 1
        else:
            if i == p - 1:  # the last letter, read in place
                back = word[i - lyn] if i else ""
                origin = word[:m]
                for c, t in trans[state].items():
                    if (c > back or c == back and p % lyn == 0) and _reads(trans, t, origin):
                        found.append((word + c).translate(symbols))
            elif p % lyn == 0 and _reads(trans, state, word[i - p : i - p + m]):
                found.append(word[:p].translate(symbols))
    return found


def _reads(trans: dict[str, dict[str, str]], state: str, letters: str) -> bool:
    """Whether the automaton reads ``letters`` from ``state``."""
    for c in letters:
        state = trans[state].get(c)
        if state is None:
            return False
    return True


def periodic_points_jsonl(points: dict[int, list[str]]) -> str:
    """Periodic-point report from ``{period: periodic_points(sft, period)}``,
    one JSON object per period per line, in the dict's order."""
    lines = [
        json.dumps({"period": p, "count": len(words), "words": words}, sort_keys=True)
        for p, words in points.items()
    ]
    return "\n".join(lines) + "\n"


def union_sft(x1: ZSft, x2: ZSft) -> ZSft:
    """SFT whose configurations are exactly those of the two inputs.

    The inputs share one iff the SFT of the lo-blocks both languages hold
    (lo the larger order) is non-empty (Lind and Marcus, 1995, ch. 2-3),
    as its trimmed follower graph tells.  DisjointnessError then carries
    its least word of length hi = lo + |S1|·|S2| + 1 (S1, S2 the inputs'
    states), read from its least state along the first edge of each,
    since every trimmed state extends.  Otherwise m grows from lo until
    the languages share no m-word; a shared m-word walks m - lo + 1 edges
    of the shared blocks' graph, which has no cycle, so m stops.  An
    (m+1)-block is admissible iff both its m-words come from one input.
    Each input's m-words are counted before they are listed; more than
    :data:`UNION_WORD_CAP` of them, or an hi past that cap, raise
    SizeLimitError, the latter before the walk.
    """
    if tuple(x1.alphabet) != tuple(x2.alphabet):
        raise ValueError("union requires a shared alphabet")
    lo = max(x1.order, x2.order)
    m = lo
    while True:
        for x in (x1, x2):
            found = _word_count(x, m)
            if found > UNION_WORD_CAP:
                raise SizeLimitError(
                    f"an input of the union has {found} words of length {m}, "
                    f"past the cap {UNION_WORD_CAP}"
                )
        w1, w2 = x1.words(m), x2.words(m)
        shared = w1 & w2
        if not shared:
            break
        if m == lo:
            trans, _, _, symbols = _follower_graph(x1.alphabet, frozenset(shared))
            if trans:
                hi = lo + len(x1._graph.trans) * len(x2._graph.trans) + 1
                if hi > UNION_WORD_CAP:
                    raise SizeLimitError(
                        f"the inputs of the union share a configuration, but its witness "
                        f"of length {hi} is past the cap {UNION_WORD_CAP}"
                    )
                state = witness = next(iter(trans))  # the least state
                while len(witness) < hi:
                    c, state = next(iter(trans[state].items()))  # the first edge
                    witness += c
                witness = witness.translate(symbols)
                raise DisjointnessError(
                    f"subshifts share arbitrarily long words, e.g. {witness!r}", witness=witness
                )
        m += 1
    blocks = set()
    for words in (w1, w2):
        for w in words:
            for c in x1.alphabet:
                if (w + c)[1:] in words:
                    blocks.add(w + c)
    return ZSft.from_blocks(x1.alphabet, m + 1, blocks)


def _word_count(sft: ZSft, length: int) -> int:
    """The number of words that ``sft.words(length)`` lists, for a length
    of at least order - 1: its walks of length - order + 1 edges on the
    follower graph, one per word, counted in Python ints."""
    trans = sft._graph.trans
    walks = dict.fromkeys(trans, 1)  # the walks ending at each state
    for _ in range(length - sft.order + 1):
        longer = dict.fromkeys(trans, 0)
        for state, n in walks.items():
            for target in trans[state].values():
                longer[target] += n
        walks = longer
    return sum(walks.values())


@dataclass(frozen=True)
class WangTile:
    """A one-letter tile with colors facing the two generator directions."""

    name: str
    left: str
    right: str

    def __post_init__(self):
        if len(self.name) != 1 or self.name == BLANK:
            raise ValueError(f"tile names are single characters other than {BLANK!r}")


def comb_sft(tiles: list[WangTile] | tuple[WangTile, ...], k: int) -> ZSft:
    """Spread a tile SFT living on the subgroup of index k over all of Z.

    Symbols are the tiles plus a blank.  Three rules: tiles at distance
    k match colors; within distance < k of a tile everything is blank;
    and every length-k window contains a tile.  Valid configurations
    carry the tile system on a single residue class mod k (the phase)
    and blanks elsewhere.  Their (k+1)-blocks are written down directly:
    a lone tile strictly inside blanks, ``_^i t _^(k-i)`` for
    1 <= i <= k-1, and two matching tiles k apart, ``t _^(k-1) u``.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    tiles = tuple(tiles)
    names = [t.name for t in tiles]
    if len(set(names)) != len(names):
        raise ValueError("tile names must be distinct")
    pairs = [(t.name, u.name) for t in tiles for u in tiles if t.right == u.left]
    if ZSft.from_blocks(names, 2, (t + u for t, u in pairs)).is_empty:
        raise EmptySftError("the tile set admits no bi-infinite matching row")

    alphabet = tuple(names) + (BLANK,)
    # nothing is enumerated here, but the block length k + 1 stays within
    # the bound that from_forbidden and ``forbidden`` keep
    if len(alphabet) ** (k + 1) > _ENUM_CAP:
        raise SizeLimitError("comb construction too large to enumerate")
    lone = [BLANK * i + t + BLANK * (k - i) for t in names for i in range(1, k)]
    matched = [t + BLANK * (k - 1) + u for t, u in pairs]
    return ZSft.from_blocks(alphabet, k + 1, lone + matched)


PSEUDO_ORBIT_CAP = 8


@dataclass(frozen=True)
class PseudoOrbitReport:
    """Outcome of the three checks on the periodic pseudo-point (w_n alpha)^Z."""

    n: int
    alpha: str
    period: int
    window_length: int
    in_approximation: bool  # all words of length 2^n of the repetition are language words
    action_well_defined: bool  # the relator family fixes every circular starring
    outside_language: bool  # every window with both margins 2^{n+1} fails
    minimal_failing_length: int
    failing_word: str

    @property
    def all_passed(self) -> bool:
        return self.in_approximation and self.action_well_defined and self.outside_language

    def to_dict(self) -> dict:
        fields = asdict(self)
        checks = ("in_approximation", "action_well_defined", "outside_language")
        fields["checks"] = {name: fields.pop(name) for name in checks}
        return {**fields, "all_passed": self.all_passed}


def pseudo_orbit_demo(n: int, t: int | None = None) -> PseudoOrbitReport:
    """Checks making the repetition of w_n alpha a traceable-by-nothing orbit.

    (i) every word of length 2^n of the repetition is in the language
    (so the point survives the order-2^n approximation); (ii) the whole
    presentation (up to kappa^t for an integer t) fixes all starrings of
    the circular word, so the group acts on its orbit; (iii) yet no excerpt
    of length 4 * 2^n, both margins 2^{n+1} around the origin, is a
    language word, so the point is not in the shift space.  Checks (i)
    and (iii) and the shortest failing excerpt are read from the longest
    language prefix, up to that length, of the repetition at each start.
    Since the language is closed under factors, the end of that prefix
    never moves left as the start moves right, so one sweep over the
    starts reads all of them exactly: each start resumes at the previous
    end, gallops and bisects, about 2^n membership queries in all.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if n > PSEUDO_ORBIT_CAP:
        raise SizeLimitError(f"pseudo-orbit index {n} exceeds the cap {PSEUDO_ORBIT_CAP}")
    period = 2**n
    word_len = 4 * period
    ring = core_words.ring(n)
    alpha = ring[-1]
    rep = ring * (word_len // period + 2)

    # longest language prefix from each start, in one sweep: if rep[s:e] is
    # a language word so is its factor rep[s+1:e], so each start resumes at
    # the previous end, gallops, and bisects inside its last step
    reach = []
    end = 0
    for s in range(period):
        lo, top = max(end, s), s + word_len  # rep[s:lo] is a language word
        hi, step = top + 1, 1
        while lo < top:
            probe = min(lo + step, top)
            if not language_contains(rep[s:probe]):
                hi = probe
                break
            lo, step = probe, 2 * step
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if language_contains(rep[s:mid]):
                lo = mid
            else:
                hi = mid
        end = lo
        reach.append(end - s)
    check_i = min(reach) >= period
    check_ii = moving_relator(ring, t) is None
    check_iii = max(reach) < word_len
    minimal_len = min(reach) + 1 if min(reach) < word_len else 0
    bad = [rep[s : s + minimal_len] for s in range(period) if reach[s] < minimal_len]
    witness = min(bad, key=core_words.lex_key, default="")

    return PseudoOrbitReport(
        n=n,
        alpha=alpha,
        period=period,
        window_length=word_len,
        in_approximation=check_i,
        action_well_defined=check_ii,
        outside_language=check_iii,
        minimal_failing_length=minimal_len,
        failing_word=witness,
    )
