"""The defining action on vertices of the rooted binary tree.

A vertex at height m is a bit string of length m (a plain '0'/'1'
string).  The generators act by the wreath recursion

    a = swap,   b = (a, c),   c = (a, d),   d = (1, b):

`a` flips the first bit, and each of b, c, d keeps the first bit and
acts on the rest by its section below that bit (the first or the
second entry of the pair).  :data:`SECTIONS` is that table, and one
step reads it: a reduced word swaps the two subtrees or not and acts
below them by its two reduced sections, which G, contracting, keeps to
at most ceil(l/2) of its l >= 2 letters.  The action on a bit string
follows the sections along its bits; the table of a word at level m,
one generator or many letters alike, is the tables of its two sections
at level m - 1 side by side, with no per-letter composition; and the
word predicates build no table, so triviality is decided exactly.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .core_words import check_generator, check_symbols, free_reduce
from .errors import NotLevelTwoTrivialError, SizeLimitError

# The sections of b, c, d below a first bit 0 and 1; "" is the identity.
# `a` has trivial sections and swaps the two subtrees.
SECTIONS = {"b": ("a", "c"), "c": ("a", "d"), "d": ("", "b")}

DEPTH_CAP = 20


def _step(word: str) -> tuple[bool, tuple[str, str]]:
    # whether a group word swaps the subtrees (an odd number of `a`), and
    # its reduced sections below a first bit 0 and 1; the word acts
    # right-to-left, so a letter meets the bit flipped by the `a`s to its right
    swaps = right = word.count("a") % 2
    sections: tuple[list[str], list[str]] = ([], [])
    for g in word:
        if g == "a":
            right ^= 1
        else:
            sections[right].append(SECTIONS[g][0])
            sections[1 - right].append(SECTIONS[g][1])
    return swaps == 1, (free_reduce("".join(sections[0])), free_reduce("".join(sections[1])))


def act_word(word: str, v: str) -> str:
    """Apply a group word right-to-left to a bit string; the length is
    preserved.  Each bit is flipped if the current section swaps the
    subtrees, and the walk goes on with the section below that bit,
    until the section is the identity."""
    check_symbols(v, "01", "bit")
    word = free_reduce(word)
    out = []
    for i, bit in enumerate(v):
        if not word:
            return "".join(out) + v[i:]
        swaps, sections = _step(word)
        out.append("10"[int(bit)] if swaps else bit)
        word = sections[int(bit)]
    return "".join(out)


def _check_depth(m: int) -> None:
    if m < 0:
        raise ValueError("level must be non-negative")
    if m > DEPTH_CAP:
        raise SizeLimitError(f"level {m} exceeds the depth cap {DEPTH_CAP}")


def _level_table(word: str, m: int) -> np.ndarray:
    # the table of a reduced word at level m: the tables of its two
    # sections at level m - 1 side by side, the halves traded if it swaps
    if not word or m == 0:
        return np.arange(1 << m, dtype=np.int64)
    swaps, (s0, s1) = _step(word)
    half = 1 << (m - 1)
    table = np.concatenate([_level_table(s0, m - 1), _level_table(s1, m - 1) + half])
    return table ^ half if swaps else table


@lru_cache(maxsize=None)
def level_permutation(g: str, m: int) -> np.ndarray:
    """Permutation of {0,1}^m induced by a generator.

    Vertices are encoded as integers with the first bit of the string as
    the most significant bit.  Levels above DEPTH_CAP raise
    SizeLimitError before any table is built.
    """
    check_generator(g)
    _check_depth(m)
    perm = _level_table(g, m)
    perm.setflags(write=False)  # cached and shared, keep callers honest
    return perm


def word_permutation(word: str, m: int) -> np.ndarray:
    """Permutation of {0,1}^m induced by a group word (right-to-left),
    read from its sections like the table of one generator.

    Negative levels raise ValueError, and levels above DEPTH_CAP
    SizeLimitError, before any table is built.
    """
    _check_depth(m)
    return _level_table(free_reduce(word), m)


def _moves(word: str, m: float) -> bool:
    # whether a reduced word moves a vertex of level m (of any, for m = inf):
    # sections shrink from two letters on, and a generator meets `a` along
    # its first non-trivial section (b, c -> a; d -> 1, b)
    if not word or m < 1:
        return False
    swaps, sections = _step(word)
    return swaps or any(_moves(section, m - 1) for section in sections)


def is_trivial_up_to_depth(word: str, m: int) -> bool:
    """Whether a group word fixes every vertex of level m, read from its
    sections down to level m; m has no cap.

    Fixing level m fixes all shallower levels too, so this is a
    semi-decision for triviality: a True answer is only a necessary
    condition, no depth is claimed sufficient.
    """
    if m < 1:
        raise ValueError("depth must be positive")
    return not _moves(free_reduce(word), m)


def quadrant_support(word: str) -> set[str]:
    """The two-bit prefixes whose section of the word is not the identity:
    its exact decomposition into the four rigid stabilizers of the second
    level.  Words moving a vertex of level 1 or 2 raise NotLevelTwoTrivialError.
    """
    swaps, halves = _step(free_reduce(word))
    steps = [_step(half) for half in halves]
    if swaps or steps[0][0] or steps[1][0]:
        raise NotLevelTwoTrivialError(
            f"word {word!r} does not fix the first two tree levels pointwise"
        )
    return {f"{x}{y}" for x, (_, quarters) in enumerate(steps)
            for y, quarter in enumerate(quarters) if _moves(quarter, math.inf)}
