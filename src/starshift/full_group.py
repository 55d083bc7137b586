"""Windows of the shift space and the topological-full-group mechanics.

A :class:`Window` is a finite excerpt of a bi-infinite configuration:
letters, a marked origin sitting between two letters, and an explicit
margin recording how far the excerpt is still guaranteed to be valid.
Generators act by moving the origin like the star of the jump action;
every move burns one unit of margin, and operations never fabricate
letters beyond the window.  A word walks the origin by the walk of the
starred words, on the jump tables of the excerpt within its reach of
the origin.  A stabilizer oracle builds them for the reach its queries
need, growing them only when a query could read past them.  It answers
a conjugate by walking the conjugator alone, on from the last one it
walked, and a reconstruction asks it the conjugates of one conjugator
at once: one walk per recovered letter, about budget letters walked,
and no query word built.

Origin-motion convention: "origin moves right" is the positive
direction.  Under the dictionary to shift notation sigma(x)_i = x_{i+1}
a move right of the origin is one application of sigma, i.e. the
letters slide one step to the left past the marked point.

The Schreier graph of a word, linear or circular, is every starring of
it joined by the same rule, read from one build of its jump tables,
each vertex indexed by its star position.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .core_words import (
    GENERATORS, LETTERS, check_generator, check_generators, is_alternating, language_contains,
    lex_key,
)
from .errors import MarginExhaustedError, ReconstructionError, SizeLimitError
from .jump_action import (
    JUMP_SETS, STAR, _jump_table, check_circular, linear_jump_permutation, reach_tables, walk,
)

# Letter at the origin -> generator realizing one step of the shift.
SHIFT_GENERATOR = {"a": "a", "B": "c", "C": "d", "D": "b"}

# The letter next to the origin of the points that each of b, c, d fixes:
# the one of B, C, D missing from its jump set.
_MATCHING_LETTER = {g: min(set("BCD") - set(JUMP_SETS[g])) for g in "bcd"}

# Alphabetically first generator that jumps across the given letter.
_MOVER = {x: min(g for g in GENERATORS if x in JUMP_SETS[g]) for x in LETTERS}

# at most 2^SCHREIER_LOG2_CAP starring positions in an orbit graph: every
# vertex is named by its whole word, so the output grows with the square
# of the positions (2^11 write 24 MiB in 0.6 s, 2^12 already 96 MiB)
SCHREIER_LOG2_CAP = 11

# letters either side that a stabilizer oracle first builds its tables for:
# a build costs about 13 us here, against 9 us at 8 letters and 1.3 ms at
# 8,000, and it serves the conjugators of budgets up to 32 unchanged
_ORACLE_REACH = 64


@dataclass(frozen=True)
class Window:
    """A language word with an origin and a validity margin.

    ``origin`` counts the letters strictly to the left of the marked
    point, so the letter "at" the origin is ``letters[origin]`` and the
    one before it is ``letters[origin - 1]``.  ``margin`` never exceeds
    the distance from the origin to either end.
    """

    letters: str
    origin: int
    margin: int = -1  # -1 requests the maximal margin

    def __post_init__(self):
        if not 0 <= self.origin <= len(self.letters):
            raise ValueError(f"origin {self.origin} out of range")
        limit = min(self.origin, len(self.letters) - self.origin)
        if self.margin == -1:
            object.__setattr__(self, "margin", limit)
        if not 0 <= self.margin <= limit:
            raise ValueError(f"margin {self.margin} exceeds the window bounds")
        if not language_contains(self.letters):
            raise ValueError("window content is not a language word")


def _window(letters: str, origin: int, margin: int) -> Window:
    # internal: the letters are those of a window already built, or their
    # mirror, and a walk or a mirror keeps 0 <= margin <= min(origin, len - origin)
    w = object.__new__(Window)
    object.__setattr__(w, "letters", letters)
    object.__setattr__(w, "origin", origin)
    object.__setattr__(w, "margin", margin)
    return w


def reverse_window(x: Window) -> Window:
    """Mirror a window; the letter at position p moves to -1-p.  The
    language is closed under reversal, so the mirror is not re-parsed."""
    return _window(x.letters[::-1], len(x.letters) - x.origin, x.margin)


@dataclass(frozen=True)
class CocyclePiece:
    """One clopen piece of a cocycle: constraints on the two letters
    adjacent to the origin, and the origin displacement on that piece."""

    left: frozenset[str] | None  # None = unconstrained
    right: frozenset[str] | None
    shift: int


@lru_cache(maxsize=None)
def generator_cocycle(g: str) -> tuple[CocyclePiece, ...]:
    """The three-piece cocycle of a generator: the level sets of the origin
    displacement by the jump tables over the 16 two-letter neighborhoods.

    The +1 piece is the letter cylinder U_g at the origin, the -1 piece
    is its shift, and the rest is fixed; U_g and its shift are disjoint
    on alternating words, as required for these swap-style elements.
    """
    every = frozenset(LETTERS)
    shifts = {(l, r): linear_jump_permutation(l + r, g)[1] - 1 for l in LETTERS for r in LETTERS}
    pieces = []
    for shift in (+1, -1, 0):
        # the level set is a cylinder: its left letters times its right letters
        cells = [cell for cell, d in shifts.items() if d == shift]
        left, right = (None if s == every else s for s in map(frozenset, zip(*cells)))
        pieces.append(CocyclePiece(left, right, shift))
    return tuple(pieces)


def apply_generator(g: str, x: Window) -> Window:
    """Move the origin of a window by one generator's jump rule; anything
    but one of a, b, c, d raises ValueError."""
    check_generator(g)
    return apply_word(g, x)


def apply_word(word: str, x: Window) -> Window:
    """Apply a group word right-to-left; margin is spent per move.

    The walk reads the jump tables of the word's letters on the excerpt
    within the reach of the word: no more moves than letters, and no
    more than the margin allows.  One window is built, at the end.
    A letter other than a, b, c, d raises ValueError before any move.
    """
    check_generators(word)
    reach = min(x.margin, len(word))
    start, tables = reach_tables(x.letters, x.origin, reach, set(word))
    at, margin = walk(tables, word, x.origin - start, x.margin)
    return _window(x.letters, start + at, margin)


def shift_as_tfg(x: Window) -> Window:
    """One step of the shift, realized inside the full group.

    The four letter cylinders at the origin are disjoint, and on each
    the chosen generator jumps right, so the origin always advances by
    exactly one.
    """
    if x.margin < 1:
        raise MarginExhaustedError(f"margin {x.margin} too small to shift")
    out = apply_generator(SHIFT_GENERATOR[x.letters[x.origin]], x)
    if out.origin != x.origin + 1:
        raise AssertionError("shift piece failed to advance the origin")
    return out


def window_stabilizer_oracle(x: Window) -> Callable[[str], bool]:
    """Oracle answering whether a group word fixes the window's point.

    A jump element fixes the point iff the origin returns to its start;
    queries walking outside the margin raise MarginExhaustedError, and a
    letter other than a, b, c, d raises ValueError.  The jump tables of
    all four generators come from one build, of the excerpt within
    min(margin, 64) letters of the origin, and are built again only when
    a query could read past them: a word of length l reads min(l, margin)
    letters either side.  A rebuild at least doubles the reach, up to the
    margin.

    A conjugate is answered by half a walk.  Every table is an
    involution, so the reversal of a word is its inverse, and an odd
    palindrome ``reversed(u) + t + u`` fixes the point iff ``t`` fixes
    ``u`` applied to it.  No longer than the margin, it cannot exhaust
    it, so only ``u`` is walked, reading |u| + 1 letters, resumed from
    the last ``u`` walked when it ends with that one.  Any other word is
    walked in full.

    ``oracle.conjugates(u, tested)`` lists the generators ``t`` of
    ``tested`` for which ``reversed(u) + t + u`` fixes the point, with
    one walk of ``u`` and one table read per ``t``, no word built.  Past
    the margin, or on a letter other than a, b, c, d, it asks the oracle
    each whole word, so its answers and errors are theirs.
    """
    margin = x.margin
    reach = min(margin, _ORACLE_REACH)
    start, tables = reach_tables(x.letters, x.origin, reach, GENERATORS)
    last = ("", x.origin - start)  # the last conjugator walked, and where it ends

    def cover(need: int) -> None:
        # rebuild the tables, and move the saved end with the excerpt,
        # when a query reads more than ``reach`` letters either side
        nonlocal reach, start, tables, last
        if need > reach:
            reach = min(margin, max(need, 2 * reach))
            old = start
            start, tables = reach_tables(x.letters, x.origin, reach, GENERATORS)
            last = (last[0], last[1] + old - start)

    def end_of(u: str) -> int:
        # where u takes the origin, walked on from the last conjugator
        nonlocal last
        cover(len(u) + 1)
        walked, at = last if u.endswith(last[0]) else ("", x.origin - start)
        new = u[: len(u) - len(walked)]
        last = (u, walk(tables, new, at, len(new))[0])
        return last[1]

    def oracle(word: str) -> bool:
        try:
            if len(word) > margin or not len(word) % 2 or word != word[::-1]:
                cover(min(len(word), margin))
                home = x.origin - start
                return walk(tables, word, home, margin)[0] == home
            half = len(word) // 2
            at = end_of(word[half + 1 :])
            return tables[word[half]][at] == at
        except KeyError:
            check_generators(word)
            raise

    def conjugates(u: str, tested: str) -> list[str]:
        if 2 * len(u) + 1 <= margin:
            try:
                at = end_of(u)
                return [t for t in tested if tables[t][at] == at]
            except KeyError:
                pass  # a letter outside the generators: the whole words refuse it
        return [t for t in tested if oracle(u[::-1] + t + u)]

    oracle.conjugates = conjugates
    return oracle


def reconstruct_from_stabilizer(oracle: Callable[[str], bool], budget: int) -> str:
    """Recover letters right of the origin of a hidden point, up to
    global reversal, using only stabilizer queries.

    Exactly one of b, c, d fixes any point (the one matching the non-`a`
    letter adjacent to the origin), which reveals that letter; the
    reading then restarts on the shifted point, whose stabilizer is the
    conjugate of the known one.  Which side of the origin carries the
    non-`a` letter is invisible to the oracle, hence the global
    reversal ambiguity.

    The three conjugates of a letter go to the oracle's ``conjugates``
    entry in one call, which walks the conjugator once; an oracle
    without one, a plain callable, is asked the three whole words
    ``reversed(conj) + t + conj``, in the order b, c, d.
    """
    if budget < 0:
        raise ValueError("budget must be non-negative")
    letters: list[str] = []
    conj = ""  # current point = conj applied to the hidden point
    # each word asked is reduced as it stands: conj alternates `a` with one
    # of b, c, d and starts with `a`, and the tested letter is one of b, c, d
    conjugates = getattr(oracle, "conjugates",
                         lambda u, tested: [t for t in tested if oracle(u[::-1] + t + u)])
    while len(letters) < budget:
        fixers = conjugates(conj, "bcd")
        if len(fixers) != 1:
            raise ReconstructionError(
                f"expected exactly one of b, c, d to fix, got {fixers!r}"
            )
        letter = _MATCHING_LETTER[fixers[0]]
        letters.append(letter)
        if len(letters) == budget:
            break
        letters.append("a")
        # cross the letter just read, then the forced `a` after it
        conj = "a" + _MOVER[letter] + conj
    return "".join(letters)


def vorobets_key(x: Window) -> Window:
    """Canonical representative of {window, mirrored window}.

    Picks the lexicographically smaller letter sequence under the order
    a < B < C < D, breaking ties by the smaller origin; idempotent by
    construction.
    """
    r = reverse_window(x)
    return min(x, r, key=lambda w: (lex_key(w.letters), w.origin))


@dataclass(frozen=True)
class SchreierGraph:
    """Orbit graph of every starring of one word: vertex j is the
    starring at position j, and each edge joins a lower position to an
    upper one by a generator.  The names are a view of the word, and
    both exports quote each of them once, into a list by position."""

    letters: str
    circular: bool
    edges: tuple[tuple[int, str, int], ...]  # (lower position, generator, upper position)

    @property
    def vertices(self) -> tuple[str, ...]:
        """The starred word at each position; vertex 0 is marked."""
        w = self.letters
        return tuple(w[:j] + STAR + w[j:] for j in range(len(w) + (not self.circular)))

    def to_dot(self) -> str:
        quoted = ['"' + v + '"' for v in self.vertices]
        parts = ["graph schreier {\n  ", quoted[0], " [peripheries=2];"]
        for q in quoted[1:]:
            parts += ("\n  ", q, ";")
        for lo, g, hi in self.edges:
            parts += ("\n  ", quoted[lo], " -- ", quoted[hi], ' [label="', g, '"];')
        parts.append("\n}\n")
        return "".join(parts)

    def to_json(self) -> str:
        """The graph as ``json.dumps(payload, indent=2, sort_keys=True)``
        of ``{"edges", "marked", "vertices"}`` plus a newline, written
        directly: names are starred words over ``aBCD*`` and labels are
        generators, which JSON quotes as they are, and an edge names its
        ends, so each name is quoted once.  Neither array is empty."""
        quoted = ['"' + v + '"' for v in self.vertices]
        # an item of an array of the top-level object opens with "\n    ",
        # after a comma from the second on
        parts = ['{\n  "edges": [']
        sep = "\n    [\n      "
        for lo, g, hi in self.edges:
            parts += (sep, quoted[lo], ',\n      "', g, '",\n      ', quoted[hi], "\n    ]")
            sep = ",\n    [\n      "
        parts += ('\n  ],\n  "marked": ', quoted[0], ',\n  "vertices": [\n    ',
                  ",\n    ".join(quoted), "\n  ]\n}\n")
        return "".join(parts)


def schreier_graph(letters: str, circular: bool = False) -> SchreierGraph:
    """The orbit graph of every starring of ``letters``, its edges read
    from the jump tables.

    The vertices are the star positions, [0, len] for a linear word and
    [0, len) for a circular one, the first one marked; every letter is
    jumped by some generator, so this is the whole orbit of any of them.
    Each table is an involution, so every edge is kept once, from its
    lower end, self-loops included, since they record stabilizer
    generators; the edges are sorted by their ends, then by generator.
    The letters must be alternating, cyclically so when ``circular``,
    and more than 2^``SCHREIER_LOG2_CAP`` positions raise SizeLimitError.
    """
    positions = len(letters) + (not circular)
    if positions > 2**SCHREIER_LOG2_CAP:
        raise SizeLimitError(f"a graph on {positions} starrings exceeds "
                             f"the cap of 2^{SCHREIER_LOG2_CAP}")
    if circular:
        check_circular(letters)
    elif not is_alternating(letters):
        raise ValueError(f"{letters!r} is not alternating")
    # one build of the four tables: a linear word is padded with blanks,
    # and a circular one with its last letter, its lift wrapped onto the ring
    padded = letters[-1:] + letters if circular else f" {letters} "
    tables = _jump_table(padded.encode("ascii"), GENERATORS) % positions
    at = np.arange(positions, dtype=np.int64)
    keys = []
    for index, t in enumerate(tables):
        keep = at <= t
        # sorting (lower end, upper end, generator) is sorting this key
        keys.append((at[keep] * positions + t[keep]) * len(GENERATORS) + index)
    ends, generators = np.divmod(np.sort(np.concatenate(keys)), len(GENERATORS))
    lows, highs = np.divmod(ends, positions)
    edges = zip(lows.tolist(), (GENERATORS[g] for g in generators.tolist()), highs.tolist())
    return SchreierGraph(letters, circular, tuple(edges))
