"""Exception types shared across the package.

The command line reports every :class:`StarshiftError` as one stderr
line, ``error: <message>``, and exits 2: its refusals of sizes and of
flags that do not fit together all go that one way.
"""


class StarshiftError(Exception):
    """Base class for all package-specific errors."""


class SizeLimitError(StarshiftError):
    """A requested computation exceeds a configured size cap."""


class MarginExhaustedError(StarshiftError):
    """A window is too small to determine the requested quantity."""


class NotLevelTwoTrivialError(StarshiftError):
    """A group word does not fix the first two tree levels pointwise."""


class DisjointnessError(StarshiftError):
    """Two subshifts expected to be disjoint share a configuration."""

    def __init__(self, message: str, witness: str):
        super().__init__(message)
        self.witness = witness


class EmptySftError(StarshiftError):
    """A tile set admits no valid configuration."""


class ReconstructionError(StarshiftError):
    """A stabilizer oracle returned answers inconsistent with any point."""
