"""The Gray-code conjugacy and the factor map onto the tree boundary.

Star positions of the word w_n correspond to level-n tree vertices
through a reflected-Gray-code-like table phi_n: position 0 maps to 1^n,
position 2^n - 1 to 1^{n-1}0, and the second half of phi_{n+1} replays
phi_n backwards with a 0 appended, mirroring the palindrome structure
of w_{n+1} = w_n alpha w_n.

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
from functools import lru_cache

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

    def bits(self, j: int) -> str:
        if not 0 <= j < len(self.codes):
            raise ValueError(f"star position {j} out of range")
        return format(int(self.codes[j]), f"0{self.n}b")


@lru_cache(maxsize=None)
def _phi_codes(n: int) -> np.ndarray:
    if n == 1:
        codes = np.array([1, 0], dtype=np.int64)
    else:
        prev = _phi_codes(n - 1)
        # first half appends 1, second half replays the table backwards
        # and appends 0
        codes = np.concatenate([prev * 2 + 1, (prev * 2)[::-1]])
    codes.setflags(write=False)
    return codes


def phi(n: int) -> GrayTable:
    """The conjugacy table for star positions of w_n."""
    if n < 1:
        raise ValueError("n must be positive")
    if n > GRAY_CAP:
        raise SizeLimitError(f"gray table for n={n} exceeds the cap {GRAY_CAP}")
    return GrayTable(n=n, codes=_phi_codes(n))


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
    """``[psi(k, x) for k in 1..k_max]`` from the natural w_{k_max+1}
    block of :func:`natural_decomposition`: the origin at its star
    position ``at`` sits at position ``at mod 2^{k+1}`` of the w_{k+1}
    block inside it, so the tower raises exactly when ``psi(k_max, x)``
    does.
    """
    if k_max < 1:
        raise ValueError("k must be positive")
    at = x.origin - natural_decomposition(x, k_max + 1)
    return [phi(k + 1).bits(at % 2 ** (k + 1))[:k] for k in range(1, k_max + 1)]


def psi(k: int, x: Window) -> str:
    """First k coordinates of the tree vertex underneath a window: the
    first k bits of the Gray code of the origin's star position in the
    natural w_{k+1} block that holds it, the last value of
    :func:`psi_tower`, read from that one Gray code.  A margin of
    2^{k+2} letters on each side of the origin always suffices; smaller
    windows may raise MarginExhaustedError.
    """
    if k < 1:
        raise ValueError("k must be positive")
    at = x.origin - natural_decomposition(x, k + 1)
    return phi(k + 1).bits(at)[:k]


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
