"""The jump action of Z2 * Z2^2 on starred alternating words.

A starred word carries a single movable star between letters.  Each
generator jumps the star across an adjacent letter from its jump set:

    a over a,   b over C or D,   c over B or D,   d over B or C.

On alternating words at most one neighbor qualifies, so the rule is a
well-defined involution for each generator.  The permutation tables are
that rule at every position, across the end on circular words.  Stars
and window origins move by one walk over them.  The Schreier graphs
read their edges from the tables, and the relator family is checked on
them through kappa, never expanded, on the lift of a
circular word to the Z-cover, which serves every p-fold repetition of
it at once.  Several circular words are checked in one pass, the lifts
of all four generators read from one jump-table build on the words
joined and kept side by side in one table that stores each value as its
residue plus the total length times its winding, so one composition
step, read from a table and a step, serves one ring and many alike;
each level composes its roots once, reusing the last level's (ac)^2 as
its ad, and seeds are powers of them by squaring, composed as steps
only.  The rings are checked to be circular words when they enter, so
kappa maps their tables within a finite set, and the check stops where
it repeats a ring's tables, keyed by k mod 3 and the ring's a-table,
deciding the whole presentation.  Words are validated once, when they
enter; moves skip the check, and a table checks its letters through
:func:`core_words.check_letters`, refusing any but a, B, C, D.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, count
from math import gcd
from typing import Iterable, Sequence

import numpy as np

from . import core_words
from .core_words import (
    GENERATORS, check_generator, check_generators, check_letters, is_alternating, kappa,
)
from .errors import MarginExhaustedError, SizeLimitError

JUMP_SETS = {"a": "a", "b": "CD", "c": "BD", "d": "BC"}

STAR = "*"

TABLE_CAPS = (12, 64)  # n_max, p_max
# largest t that relation_set expands: its letters grow as about 2^(t + 6),
# 4.2 million at t = 16
RELATION_SET_CAP = 16


@dataclass(frozen=True)
class StarredWord:
    """An alternating word with a star at position ``star`` in [0, len]."""

    word: str
    star: int

    def __post_init__(self):
        if not is_alternating(self.word):
            raise ValueError(f"{self.word!r} is not alternating")
        if not 0 <= self.star <= len(self.word):
            raise ValueError(f"star {self.star} out of range for {self.word!r}")

    def _moved(self, star: int) -> "StarredWord":
        # internal: the word was validated when it entered, only the star moves
        s = object.__new__(StarredWord)
        object.__setattr__(s, "word", self.word)
        object.__setattr__(s, "star", star)
        return s

    def __str__(self) -> str:
        return self.word[: self.star] + STAR + self.word[self.star :]


def parse_starred(text: str) -> StarredWord:
    """Inverse of ``str``: read a starred word like ``aDa*CaDa``."""
    if text.count(STAR) != 1:
        raise ValueError(f"expected exactly one {STAR!r} in {text!r}")
    star = text.index(STAR)
    return StarredWord(text.replace(STAR, ""), star)


def check_circular(letters: str) -> None:
    """Raise ValueError unless ``letters`` is a circular word: nonempty,
    and alternating when read cyclically, across the end as well."""
    if not letters:
        raise ValueError("circular word must be nonempty")
    # a lone letter doubles to a pair that does not alternate
    if not is_alternating(letters + letters[0]):
        raise ValueError(f"{letters!r} is not cyclically alternating")


def jump_generator(g: str, s: StarredWord) -> StarredWord:
    """One generator acting on a starred word."""
    check_generator(g)
    return jump_word(g, s)


def jump_word(word: str, s: StarredWord) -> StarredWord:
    """A group word acting right-to-left, walked with its length as the
    margin, which it cannot exhaust; other letters than a, b, c, d raise
    ValueError."""
    check_generators(word)
    start, tables = reach_tables(s.word, s.star, len(word), set(word))
    at, _ = walk(tables, word, s.star - start, len(word))
    return s._moved(start + at)


# byte translation tables: 1 for the letters of the jump set, 0 otherwise
_JUMP_MASKS = {g: bytes(chr(i) in js for i in range(256)) for g, js in JUMP_SETS.items()}


def _jump_table(padded: bytes, generators: Sequence[str]) -> np.ndarray:
    """The jump rule of each of ``generators``, one row each, at every
    position j, between ``padded[j]`` and ``padded[j + 1]``: the star
    jumps right across its right letter if that is in the jump set of the
    row's generator, else left if its left one is.

    One build serves several generators: their hit masks are read from
    ``padded`` into one array and the rule is applied to all rows at once.
    The callers pass generators only."""
    masks = b"".join(padded.translate(_JUMP_MASKS[g]) for g in generators)
    hit = np.frombuffer(masks, dtype=np.int8).reshape(len(generators), len(padded))
    left, right = hit[:, :-1], hit[:, 1:]
    return np.arange(len(padded) - 1, dtype=np.int64) + (right - (left > right))


def linear_jump_permutation(letters: str, g: str) -> np.ndarray:
    """Permutation of star positions [0, len] under one generator; a
    character other than a, B, C, D raises ValueError."""
    check_letters(letters)
    check_generator(g)
    return _jump_table(f" {letters} ".encode("ascii"), g)[0]  # no generator jumps a blank


def reach_tables(letters: str, at: int, reach: int,
                 generators: Iterable[str]) -> tuple[int, dict[str, list[int]]]:
    """The start of the excerpt of ``letters`` within ``reach`` of ``at``,
    and the jump tables of ``generators`` on it.  The excerpt is cut at
    the ends of the letters, which no generator jumps across; ``at``
    must be a position of the letters, in [0, len].  All the tables come
    from one build."""
    if reach < 0:
        raise ValueError("reach must be non-negative")
    if not 0 <= at <= len(letters):
        raise ValueError(f"position {at} out of range [0, {len(letters)}]")
    start = max(at - reach, 0)
    excerpt = letters[start : at + reach]
    generators = list(generators)
    check_letters(excerpt)
    for g in generators:
        check_generator(g)
    rows = _jump_table(f" {excerpt} ".encode("ascii"), generators).tolist()
    return start, dict(zip(generators, rows))


def walk(tables: dict[str, list[int]], word: str, at: int, margin: int) -> tuple[int, int]:
    """Walk a group word right-to-left from position ``at`` of
    :func:`reach_tables`; every letter needs a margin of at least 1, and
    each letter that moves the position spends one unit of it.

    Before each letter fewer moves have been made than the starting
    margin and than the letters of the word, so the walk reads only the
    letters within the smaller of the two of its start: on tables of that
    reach, a blank end it reads is an end of the letters.
    """
    for g in reversed(word):
        if margin < 1:
            raise MarginExhaustedError(f"margin {margin} too small to apply a generator")
        moved = tables[g][at]
        if moved != at:
            at, margin = moved, margin - 1
    return at, margin


def circular_jump_lift(letters: str, g: str) -> np.ndarray:
    """One generator on the star positions of the periodic word
    ``letters^Z``, read on [0, len): the values lie in [-1, len], and
    position x of the Z-cover goes to ``T[x % len] + (x - x % len)``."""
    if not letters:
        check_circular(letters)  # the empty word has no cover: refused as no circular word
    check_letters(letters)
    check_generator(g)
    return _jump_table((letters[-1:] + letters).encode("ascii"), g)[0]


def circular_jump_permutation(letters: str, g: str) -> np.ndarray:
    """Permutation of star positions [0, len) under one generator, cyclic."""
    return circular_jump_lift(letters, g) % len(letters)


def _after(step: np.ndarray, table: np.ndarray, base: np.ndarray | None = None,
           out: np.ndarray | None = None) -> np.ndarray:
    """The table of X after Y, from the step ``S_X = T_X - identity`` of
    X and the table ``T_Y`` of Y: x goes to ``T_Y[x] + S_X[T_Y[x] mod N]``
    on tables of size N.  Given the step ``S_Y`` of Y as ``base``, the
    step ``S_Y + S_X[T_Y mod N]`` of X after Y instead, and its table is
    never built; the result is written into ``out`` if given.  This is
    the one composition rule of the package."""
    # take's wrap mode is cheaper than %
    return np.add(table if base is None else base, step.take(table, mode="wrap"), out)


def word_star_permutation(word: str, gen_perms: dict[str, np.ndarray]) -> np.ndarray:
    """Compose generator tables along a group word, right-to-left, as a
    fold of the one composition step.

    Position x goes to ``T[x % size] + (x - x % size)`` under a table T
    of the given size: lifts (:func:`circular_jump_lift`) compose on the
    Z-cover, tables of rings side by side (:func:`side_by_side_windings`)
    on the disjoint union of their covers, and tables with values in
    [0, size) compose as permutations.  The letters may name any tables,
    such as relators already composed.
    """
    if not gen_perms:
        raise ValueError("no tables given")
    size = len(next(iter(gen_perms.values())))
    identity = np.arange(size, dtype=np.int64)
    if not word:
        return identity
    # on [0, size) the last letter's table is its own image: start there
    perm = gen_perms[word[-1]].astype(np.int64)
    steps = {g: gen_perms[g] - identity for g in set(word[:-1])}
    for g in reversed(word[:-1]):
        perm = _after(steps[g], perm)
    return perm


def _side_by_side_lifts(rings: list[str], starts: list[int], sizes: list[int]) -> np.ndarray:
    """The lifts of a, b, c, d on the rings side by side, one row each,
    of size N, the total length: the value ``q L_i + r`` of ring i's lift
    (:func:`circular_jump_lift`), with r in [0, L_i), is stored at its
    offset o_i as ``o_i + r + N q``.

    All four lifts of all rings come from one jump-table build
    (:func:`_jump_table`) on the rings joined: each ring is padded with
    its own last letter, so ring i sits at the padded offset o_i + i of
    the joined table, and the one position at each seam between two
    rings is dropped."""
    padded = "".join(ring[-1] + ring for ring in rings).encode("ascii")
    ring_of, offsets, lengths = np.repeat([range(len(rings)), starts, sizes], sizes, axis=1)
    at = np.arange(len(ring_of)) + ring_of  # the joined table without its seams
    moved = _jump_table(padded, GENERATORS).take(at, axis=1) - ring_of  # o_i + q L_i + r
    # q is -1 below the ring's offset, 1 past its end, and 0 in it
    wound = (moved >= offsets + lengths).view(np.int8) - (moved < offsets)
    return moved + wound * (len(ring_of) - lengths)


# the Lysenok relators: the Klein relators, then the seeds of the
# kappa-iterates, the fourth powers of these roots
_KLEIN_RELATORS = ("aa", "bb", "cc", "dd", "bcd")
_SEED_ROOTS = ("ad", "adacac")


@lru_cache(maxsize=None)
def relation_set(t: int) -> tuple[str, ...]:
    """Relators a^2, b^2, c^2, d^2, bcd and the kappa-iterates of
    (ad)^4 and (adacac)^4 up to exponent t, all fully expanded;
    SizeLimitError, before any expansion, for t past RELATION_SET_CAP."""
    if t < 0:
        raise ValueError("t must be non-negative")
    if t > RELATION_SET_CAP:
        raise SizeLimitError(f"relator exponent {t} exceeds the cap {RELATION_SET_CAP}")
    relators, seeds = _KLEIN_RELATORS, tuple(root * 4 for root in _SEED_ROOTS)
    for _ in range(t + 1):
        relators, seeds = relators + seeds, tuple(map(kappa, seeds))
    return relators


def relator_name(index: int) -> str:
    """The relator at ``index`` of the family of :func:`relation_set`,
    named in ASCII, never expanded: ``bcd``, ``(ad)^4``, ``kappa^7((ad)^4)``."""
    if index < 0:
        raise ValueError("relator index must be non-negative")
    if index < len(_KLEIN_RELATORS):
        return _KLEIN_RELATORS[index]
    k, i = divmod(index - len(_KLEIN_RELATORS), len(_SEED_ROOTS))
    seed = f"({_SEED_ROOTS[i]})^4"
    return f"kappa^{k}({seed})" if k else seed


def side_by_side_windings(rings: list[str], t: int | None = None) -> list[list[int | None]]:
    """How each relator of :func:`relation_set` acts on the lift of each
    circular word in ``rings`` to the Z-cover, all evaluated in one pass.

    Row i lists, in order, the gcd of the winding numbers (R(j) - j) / L
    of each relator R over the positions j of the cover of ring i, of
    length L, 0 when all are 0, up to the first relator that moves a
    starring of ring i itself (recorded as None), or to where kappa
    repeats its tables, or to kappa^t for an integer t.  Reducing mod pL
    maps the lifts onto the jump action on ``ring * p``, so R fixes every
    starring of ``ring * p`` iff p divides its entry.  Read there, the
    kappa-iterates are exact because kappa is an endomorphism of
    Z2 * Z2^2 and the Klein relators, checked first, hold there.

    kappa^k(r) is never expanded: its table under the tables P is that
    of r under the images of :data:`core_words.KAPPA`, P'_a = P_a P_c P_a,
    P'_b = P_d, P'_c = P_b, P'_d = P_c.  A level composes seven steps:
    ac, (ac)^2, adacac as ad after (ac)^2, and the square and fourth
    power of each root ad and adacac; before them, the kappa-image P'_a
    as ac after a.  Level 0 composes ad = a after d; every later level
    reuses the previous level's (ac)^2 as its ad, since kappa(ad) =
    aca c = (ac)^2.  All are exact, by associativity of the composition.

    The rings sit side by side in one table of size N, their total
    length.  Ring i at offset o_i has the lift T_i of length L_i
    (:func:`circular_jump_lift`); its value T_i[j] = q L_i + r, with r
    in [0, L_i), is stored as o_i + r + N q: the residue plus N times
    the winding.  All four lifts of all rings come from one jump-table
    build on the rings joined, each padded with its last letter
    (:func:`_side_by_side_lifts`).  On size N the one composition step,
    X after Y read from the table of Y and the step T_X - identity of X,
    composes on the disjoint union of the rings' covers; each table that
    a later step reads is kept with its step.  The relators are composed
    as steps only, S_XY = S_Y + S_X[T_Y], written into one relator
    buffer whose rows give the windings: no relator's table is built.

    Every ring passes :func:`check_circular`, so its lifts are bijections
    of its cover and kappa maps its tables within a finite set.  Each
    level's relators are read into the rows still live, and one rule
    stops a row: its first None, or the first level whose tables on its
    ring repeat an earlier level's, as its ring alone does.  The pass
    ends when no row is live.  Kappa only rotates the tables of b, c
    and d, which differ on every such ring, so (k mod 3, the ring's
    a-table) keys a level's four tables exactly; each ring's key is a
    slice of the bytes of the a-table.
    """
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
    a, b, c, d = zip(lifts, lifts - identity)
    rows: list[list[int | None]] = [[] for _ in rings]
    live = set(range(len(rings)))  # the rows still reading
    seen = [set() for _ in rings]  # the repeat keys of each row's levels
    width = identity.itemsize  # each ring's key is a slice of the a-table's bytes
    spans = [slice(width * start, width * (start + size)) for start, size in zip(starts, sizes)]
    # the relator buffer, whose rows are written in place: first the steps
    # of the Klein relators aa, bb, cc, dd and bcd = b after cd, then at
    # each level those of its seeds, in its first rows
    relators = np.empty((len(_KLEIN_RELATORS), total), dtype=np.int64)
    slots, seeds = list(relators), relators[: len(_SEED_ROOTS)]
    for slot, (table, step) in zip(slots, (a, b, c, d)):
        _after(step, table, step, slot)
    cd = after(c, d)
    _after(b[1], cd[0], cd[1], slots[4])
    for k in count():
        # the windings of a row are all integers iff the gcd of its shifts
        # is a multiple of N, and their gcd is then that gcd over N
        shifts = np.gcd.reduceat(relators, starts, axis=1).T.tolist()
        for i in list(live):
            for shift in shifts[i]:
                if shift % total:
                    rows[i].append(None)
                    live.remove(i)
                    break
                rows[i].append(shift // total)
        if not live or k - 1 == t:  # or the kappa^t seeds were the last
            break
        if k:  # the kappa-images: aca is the last ac after a, and ad the last (ac)^2
            a, b, c, d, ad = after(ac, a), d, b, c, acac
        else:
            ad = after(a, d)
        keys = a[0].tobytes()
        for i in list(live):
            key = (k % 3, keys[spans[i]])
            if key in seen[i]:
                live.remove(i)
            seen[i].add(key)
        if not live:
            break
        # the seeds of _SEED_ROOTS: (ad)^4 and (adacac)^4, adacac = ad after (ac)^2
        ac = after(a, c)
        acac = after(ac, ac)
        relators = seeds
        for slot, root in zip(slots, (ad, after(ad, acac))):
            square = after(root, root)
            _after(square[1], square[0], square[1], slot)
    return rows


def moving_relator(letters: str, t: int | None = None, p: int = 1) -> int | None:
    """Index in :func:`relation_set` of the first relator that moves a
    starring of the circular word ``letters * p``, or None: exact when
    ``t`` is None, else among the relators up to the kappa^t seeds.

    Read from the row of ``letters`` in :func:`side_by_side_windings`:
    the first relator whose entry is None or not a multiple of p.
    """
    if p < 1:
        raise ValueError("p must be positive")
    windings = side_by_side_windings([letters], t)[0]
    return next((i for i, w in enumerate(windings) if w is None or w % p), None)


def table1(n_max: int = 6, p_max: int = 50, t: int | None = None) -> list[list[bool]]:
    """Relator survival table for the circular words (w_n alpha)^p.

    Entry [n-1][p-1] is True iff every relator (up to kappa^t for an
    integer t) fixes all starrings of the circular repetition, that is
    iff p divides the gcd of the row's windings: one lifted evaluation
    of the rings w_n alpha side by side (:func:`side_by_side_windings`)
    serves every row and every p.  That gcd is 8 (0 below t = n), and
    the ones sit at its divisors p in {1, 2, 4, 8}.
    """
    caps = TABLE_CAPS
    if not (1 <= n_max <= caps[0] and 1 <= p_max <= caps[1]):
        raise SizeLimitError(f"table1 caps are n_max<={caps[0]}, p_max<={caps[1]}")
    rings = [core_words.ring(n) for n in range(1, n_max + 1)]
    rows = []
    for windings in side_by_side_windings(rings, t):
        period = None if None in windings else gcd(*windings)
        rows.append([period is not None and period % p == 0 for p in range(1, p_max + 1)])
    return rows
