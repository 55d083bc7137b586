"""Alternating words over {a, B, C, D} and the language they generate.

The shift space studied by this package is generated by the palindromes

    w_1 = a,   w_{n+1} = w_n alpha w_n,

where the middle letter alpha cycles through D, C, B as n runs through
1, 2, 3, ... (mod 3).  Their limit is a Toeplitz sequence: index i >= 1
of the fixed point carries `a` when i is odd and "BDC"[v2(i) % 3]
otherwise, v2 being the 2-adic valuation.  So the letters of a word fix
its index modulo some 2^m, and :func:`phase` reads that index off the
word one level at a time; language membership, the natural w_n blocks of
windows and the factor map onto the tree all read that one parse.  Words
of one length are listed from :func:`pairs`, and the circular words
(w_n alpha)^p repeat :func:`ring`.

Words are plain strings.  Group words over the generators {a, b, c, d}
of the free product Z2 * Z2^2 are also plain strings, kept in freely
reduced form by :func:`free_reduce`.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain

from .errors import SizeLimitError

LETTERS = "aBCD"
GENERATORS = "abcd"
# the cycle of the middle letter alpha of w_{n+1}: MIDDLE_LETTERS[n % 3]
MIDDLE_LETTERS = "BDC"

# Cap on the index n of w_n; |w_24| is ~16M letters.
WORD_CAP = 24
# Cap on the n of listed words, of up to 2^n - 1 letters: a listing holds
# about 3 * 2^n words of length L, so its memory grows with L^2.
LISTING_CAP = 12

# b, c, d -> B: a group word is freely reduced iff the image alternates
_KLEIN_TO_B = str.maketrans("bcd", "BBB")

# the substitution kappa, letter by letter; the relator check applies it to tables
KAPPA = {"a": "aca", "b": "d", "c": "b", "d": "c"}
_KAPPA_TABLE = str.maketrans(KAPPA)

# translations deleting the package's alphabets: letters, generators, tree bits
_DELETIONS = {a: str.maketrans("", "", a) for a in (LETTERS, GENERATORS, "01")}


def check_symbols(word: str, alphabet: str, kind: str) -> None:
    """Raise ValueError at the first character of ``word`` outside
    ``alphabet``, naming it as a ``kind``: one pass deleting the
    alphabet's characters.  The one symbol check of the package."""
    table = _DELETIONS.get(alphabet) or str.maketrans("", "", alphabet)
    stray = word.translate(table)
    if stray:
        raise ValueError(f"invalid {kind} {stray[0]!r}; expected one of {alphabet}")


def check_letters(word: str) -> None:
    """Raise ValueError at the first character of a word that is not a letter."""
    check_symbols(word, LETTERS, "letter")


def check_generators(word: str) -> None:
    """Raise ValueError at the first character of a group word that is not a generator."""
    check_symbols(word, GENERATORS, "generator")


def check_generator(g: str) -> None:
    """Raise ValueError unless ``g`` is exactly one generator."""
    check_generators(g)
    if len(g) != 1:
        raise ValueError(f"expected one generator, got {g!r}")


def rank_table(alphabet: str | tuple[str, ...]) -> dict[int, str]:
    """Translation sending each symbol to the character of its rank: the one
    word order of the package.  Callers pass only words validated over it."""
    return str.maketrans({c: chr(i) for i, c in enumerate(alphabet)})


_LETTER_RANKS = rank_table(LETTERS)


def lex_key(word: str) -> str:
    """Sort key realizing the letter order a < B < C < D; a character that
    is not a letter is refused by :func:`check_letters`."""
    check_letters(word)
    return word.translate(_LETTER_RANKS)


def alpha_choice(n: int) -> str:
    """Middle letter inserted between two copies of w_n to form w_{n+1}."""
    if n < 1:
        raise ValueError("n must be positive")
    return MIDDLE_LETTERS[n % 3]


@lru_cache(maxsize=None)
def _build_w(n: int) -> str:
    if n == 1:
        return "a"
    prev = _build_w(n - 1)
    return prev + alpha_choice(n - 1) + prev


def build_w(n: int) -> str:
    """The n-th generator word w_n, of length 2^n - 1.

    Raises SizeLimitError beyond WORD_CAP (the words grow exponentially,
    fail loudly rather than truncate).
    """
    if n < 1:
        raise ValueError("n must be positive")
    check_word_cap(n)
    return _build_w(n)


def check_word_cap(n: int) -> None:
    """Raise SizeLimitError if w_n is beyond WORD_CAP, before building it."""
    if n > WORD_CAP:
        raise SizeLimitError(f"w_{n} exceeds the cap n <= {WORD_CAP}")


def _alternates(word: str) -> bool:
    # one class of positions mod 2 holds only `a`, the other no `a`;
    # word[0] says which
    odd = 0 if word[:1] == "a" else 1
    return not word[odd::2].strip("a") and "a" not in word[1 - odd :: 2]


def is_alternating(word: str) -> bool:
    """True iff in every adjacent pair exactly one letter is `a`."""
    check_letters(word)
    return _alternates(word)


def free_reduce(word: str) -> str:
    """Freely reduced form of a group word over {a, b, c, d}.

    Cancels squares of all four generators and multiplies adjacent
    letters inside Z2^2 (bc -> d and so on).  Idempotent and never
    length-increasing.  A reduced word, in which `a` and the letters of
    Z2^2 alternate, is returned as it is after one check of that.
    """
    check_generators(word)
    if _alternates(word.translate(_KLEIN_TO_B)):
        return word
    out: list[str] = []  # freely reduced after every letter
    for g in word:
        top = out[-1] if out else ""
        if top == g:
            out.pop()
        elif top not in ("", "a") and g != "a":  # two distinct letters of Z2^2
            out[-1] = "bcd".replace(top, "").replace(g, "")  # multiply to the third
        else:
            out.append(g)
    return "".join(out)


def kappa(word: str) -> str:
    """Substitution a -> aca, b -> d, c -> b, d -> c, then free reduction."""
    return free_reduce(word.translate(_KAPPA_TABLE))  # a stray character is refused there


def _adequate_n(length: int, cap: int = WORD_CAP) -> int:
    # smallest n >= 1 with length <= 2^n - 1, at most cap
    n = max(1, length.bit_length())
    if n > cap:
        raise SizeLimitError(
            f"language query of length {length} exceeds the cap 2^{cap} - 1"
        )
    return n


def phase(word: str) -> tuple[int, int] | None:
    """Index of ``word[0]`` in the fixed point modulo 2^m, as ``(r, m)``
    with m as large as the letters decide; None outside the language.

    Level m keeps the letters at indices divisible by 2^m.  In one of
    their two classes the quotients are odd and every letter is
    "BDC"[m % 3] (`a` at level 0, which no higher level holds); the
    parse goes on with the other class.  When both classes fit, up to
    two letters leave the index undecided, since a lone B, C or D may
    sit at any higher level; with more, the first class is the odd one,
    as two letters 2^{m+1} apart cannot both sit higher.
    """
    check_letters(word)
    if not word:
        return 0, 0
    if not _alternates(word):
        return None
    start, m = int(word[0] == "a"), 1  # word[start::2**m] sits at the indices 0 mod 2^m
    while True:
        rest, sep = word[start :: 2**m], MIDDLE_LETTERS[m % 3]
        first, second = not rest[::2].strip(sep), not rest[1::2].strip(sep)
        if first and second:
            if len(rest) <= 2:
                return -start % 2**m, m
            second = False
        elif not (first or second):
            return None
        start += first << m  # go on with the other class
        m += 1


@lru_cache(maxsize=8192)
def language_contains(word: str) -> bool:
    """Whether ``word`` occurs in the shift space generated by the w_n.

    Words longer than |w_WORD_CAP| = 2^WORD_CAP - 1 letters are refused
    with SizeLimitError.  Cached:
    windows re-validate the same long content many times over.
    """
    _adequate_n(len(word))
    return phase(word) is not None


def pairs(n: int) -> tuple[str, str, str]:
    """The three language words w_n alpha w_n, alpha in B, C, D: every
    language word of length at most 2^n - 1 is a factor of one of them."""
    w = build_w(n)
    return tuple(w + alpha + w for alpha in "BCD")


def ring(n: int) -> str:
    """The word w_n alpha, alpha = :func:`alpha_choice` (n), of length
    2^n: read cyclically, its repetitions are the circular words
    (w_n alpha)^p of Table 1, the Schreier graphs and the pseudo-orbits."""
    return build_w(n) + alpha_choice(n)


def language_set(length: int) -> frozenset[str]:
    """All language words of the given length, unordered, refused with
    SizeLimitError past n = LISTING_CAP.  With n the least such that
    length <= 2^n - 1, they are the factors of w_n and the windows of
    each of :func:`pairs` that cover its middle letter: the windows of
    one pair that start in its first half, and the middle windows of the
    two others."""
    if length < 0:
        raise ValueError("length must be non-negative")
    n = _adequate_n(length, LISTING_CAP)
    half = 2**n  # the middle letter of a pair sits at index half - 1
    first, *others = pairs(n)
    return frozenset(
        chain(
            (first[i : i + length] for i in range(half)),
            (p[i : i + length] for p in others for i in range(half - length, half)),
        )
    )


def language_words(length: int) -> list[str]:
    """All language words of the given length, :func:`language_set` sorted
    with a < B < C < D."""
    return sorted(language_set(length), key=lex_key)
