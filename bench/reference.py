"""Independent expectations for the benchmark's checks.

Nothing here imports starshift: the words, Gray codes and jump moves are
rebuilt from their definitions, so a check that compares the program
against these values cannot pass because the program agrees with itself.
"""

from __future__ import annotations

from functools import lru_cache

JUMP_SETS = {"a": "a", "b": "CD", "c": "BD", "d": "BC"}
KAPPA = {"a": "aca", "b": "d", "c": "b", "d": "c"}
TABLE1_POWERS = (1, 2, 4, 8)


@lru_cache(maxsize=None)
def w(n: int) -> str:
    """w_1 = a, w_{n+1} = w_n alpha_n w_n with alpha cycling D, C, B."""
    if n == 1:
        return "a"
    prev = w(n - 1)
    return prev + "BDC"[(n - 1) % 3] + prev


def alpha(n: int) -> str:
    return "BDC"[n % 3]


def in_language(word: str) -> bool:
    """Language membership: every language word of length <= 2^n - 1
    occurs in w_{n+3}."""
    n = max(1, len(word).bit_length())
    return word in w(n + 3)


@lru_cache(maxsize=None)
def gray_codes(n: int) -> tuple[int, ...]:
    """phi_n: star position of w_n -> vertex code, phi_1 = (1, 0)."""
    if n == 1:
        return (1, 0)
    prev = gray_codes(n - 1)
    return tuple(c * 2 + 1 for c in prev) + tuple(c * 2 for c in reversed(prev))


def psi_of_position(k: int, position: int) -> str:
    """First k bits of the vertex below a point whose origin sits at
    ``position`` of a long w_N: the natural w_{k+1} blocks start at the
    multiples of 2^{k+1}."""
    span = 2 ** (k + 1)
    return format(gray_codes(k + 1)[position % span], f"0{k + 1}b")[:k]


def jump(letters: str, star: int, g: str) -> int:
    """Star position after one generator on a linear starred word."""
    jumps = JUMP_SETS[g]
    if star < len(letters) and letters[star] in jumps:
        return star + 1
    if star > 0 and letters[star - 1] in jumps:
        return star - 1
    return star


def kappa_power(word: str, k: int) -> str:
    """k-fold substitution a -> aca, b -> d, c -> b, d -> c, unreduced;
    the tree action reduces its input itself."""
    for _ in range(k):
        word = "".join(KAPPA[g] for g in word)
    return word


@lru_cache(maxsize=None)
def schreier_edges(n: int) -> frozenset[tuple[frozenset[str], str]]:
    """Undirected labeled edges of the orbit graph of the starrings of w_n."""
    letters = w(n)

    def name(j: int) -> str:
        return letters[:j] + "*" + letters[j:]

    return frozenset(
        (frozenset((name(j), name(jump(letters, j, g)))), g)
        for j in range(len(letters) + 1)
        for g in "abcd"
    )
