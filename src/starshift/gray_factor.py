"""The Gray-code conjugacy and the factor map onto the tree boundary.

Star positions of the word w_n correspond to level-n tree vertices
through a table phi_n given by the reflected Gray code: star position j
maps to the n-bit string whose letter i (the first being i = 0) is
1 minus bit i of j ^ (j >> 1).  Position 0 maps to 1^n and position
2^n - 1 to 1^{n-1}0, and the mirror image 2^n - 1 - j of a position
differs from it in the last letter only, as the palindrome
w_{n+1} = w_n alpha w_n demands.

In the fixed point the natural w_n blocks start at the indices that are
1 mod 2^n, so on windows the factor map is a sliding block code: the
index modulo 2^{k+1} of the letters within 2^{k+2} of the origin
(:func:`core_words.phase`) gives the origin's star position in the
w_{k+1} block there, whose Gray code leads with the first k bits of the
tree vertex.  Whenever the letters do not fix that index, or that block
is not fully visible, the operations raise MarginExhaustedError.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core_words import pairs, phase
from .errors import MarginExhaustedError, SizeLimitError
from .full_group import Window

GRAY_CAP = 20
FIBER_CAP = 16


@dataclass(frozen=True, eq=False)
class GrayTable:
    """Bijection from star positions [0, 2^n - 1] to n-bit strings.

    ``codes[j]`` holds the integer whose n-bit big-endian expansion is
    the vertex assigned to star position j.
    """

    n: int
    codes: np.ndarray = field(repr=False)


def _check_gray_cap(n: int) -> None:
    if n > GRAY_CAP:
        raise SizeLimitError(f"gray table for n={n} exceeds the cap {GRAY_CAP}")


def phi(n: int) -> GrayTable:
    """The conjugacy table for star positions of w_n: the n-bit reversal
    of the complemented Gray code ~(j ^ (j >> 1)), that is ~(r ^ r << 1)
    for the n-bit reversal r of j."""
    if n < 1:
        raise ValueError("n must be positive")
    _check_gray_cap(n)
    reversal = np.zeros(1, dtype=np.int64)
    for _ in range(n):
        # the reversal of j < 2^n is twice that of j mod 2^(n-1), plus its top bit
        reversal = np.concatenate([reversal * 2, reversal * 2 + 1])
    codes = ~(reversal ^ reversal << 1) & (2**n - 1)
    codes.setflags(write=False)
    return GrayTable(n=n, codes=codes)


def natural_decomposition(x: Window, n: int) -> int:
    """Start offset of the natural w_n block that holds the origin.

    The blocks start where the index is 1 mod 2^n, which any 2^{n+1}
    consecutive letters fix: :func:`core_words.phase` reads only those
    within 2^{n+1} of the origin.  When they do not fix it, or the block
    is not fully visible, MarginExhaustedError is raised.
    """
    if n < 1:
        raise ValueError("n must be positive")
    span = 2**n
    first = max(0, x.origin - 2 * span)
    r, m = phase(x.letters[first : x.origin + 2 * span])
    if m < n:
        raise MarginExhaustedError(
            f"window too small to identify the natural w_{m + 1} blocks"
        )
    # the index of the letter at the origin, less 1, modulo the span
    start = x.origin - (r + x.origin - first - 1) % span
    if start < 0 or start + span - 1 > len(x.letters):
        raise MarginExhaustedError(
            f"the w_{n} block at the origin is not fully inside the window"
        )
    return start


def psi_tower(k_max: int, x: Window) -> list[str]:
    """``[psi(k, x) for k in 1..k_max]``: the prefixes of
    ``psi(k_max, x)``, since letter i of psi reads bits i and i + 1 of
    the star position only, which the w_{k+1} blocks inside the natural
    w_{k_max+1} block share.  The tower raises exactly when
    ``psi(k_max, x)`` does.
    """
    top = psi(k_max, x)
    return [top[:k] for k in range(1, k_max + 1)]


def psi(k: int, x: Window) -> str:
    """First k coordinates of the tree vertex underneath a window, the
    first k letters of phi_{k+1} at the origin's star position ``at`` in
    the natural w_{k+1} block that holds it: letter i is 1 minus bit i
    of at ^ (at >> 1).  A margin of 2^{k+2} letters on each side of the
    origin always suffices; smaller windows may raise
    MarginExhaustedError.
    """
    if k < 1:
        raise ValueError("k must be positive")
    at = x.origin - natural_decomposition(x, k + 1)
    _check_gray_cap(k + 1)
    return format(~(at ^ at >> 1) & (2**k - 1), f"0{k}b")[::-1]


def six_fiber_witnesses(m: int) -> list[Window]:
    """The six windows sharing a tree vertex to all visible depths.

    On each of the three language words w_m alpha w_m of
    :func:`core_words.pairs` the origin is placed after the first w_m,
    and the mirrored window is the same word with the origin after
    alpha.  All six agree on psi(k, .) for every k <= m - 2.
    """
    if m < 1:
        raise ValueError("m must be positive")
    if m > FIBER_CAP:
        raise SizeLimitError(f"fiber witnesses for m={m} exceed the cap {FIBER_CAP}")
    half = 2**m - 1  # the length of w_m
    return [Window(pair, origin) for pair in pairs(m) for origin in (half, half + 1)]
