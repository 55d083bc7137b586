"""Independent brute-force oracles used to cross-check the library.

Nothing here touches the follower-automaton machinery: language
membership is decided by explicit extension search, so these functions
stay valid as oracles for the code paths they check.  Relators are
checked here in their expanded form, letter by letter against the jump
tables, which the library never does.
"""

from itertools import product

import numpy as np

from starshift.core_words import GENERATORS, is_alternating
from starshift.jump_action import (
    CircularWord,
    circular_jump_permutation,
    linear_jump_permutation,
    word_star_permutation,
)


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


def relator_fixes_all_starrings(relator: str, base: str | CircularWord) -> bool:
    """True iff the expanded relator fixes every starring of the base word.

    Linear bases have len+1 starrings, circular ones len starrings.
    """
    if isinstance(base, CircularWord):
        perms = {g: circular_jump_permutation(base.letters, g) for g in GENERATORS}
    else:
        if not is_alternating(base):
            raise ValueError(f"{base!r} is not alternating")
        perms = {g: linear_jump_permutation(base, g) for g in GENERATORS}
    identity = np.arange(len(next(iter(perms.values()))), dtype=np.int64)
    return np.array_equal(word_star_permutation(relator, perms), identity)
