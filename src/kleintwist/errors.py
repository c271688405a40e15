"""Exception types shared across the package.

Every failure of a mathematical invariant gets its own class so callers
can distinguish "the input was malformed" from "the claimed structure
does not hold".
"""

from __future__ import annotations


class KleintwistError(Exception):
    """Base class for all package-specific errors."""


class EvaluationNotPermutation(KleintwistError):
    """A completion formula produced a matrix that is not a permutation matrix."""


class NonSplitQuotient(KleintwistError):
    """Character enumeration hit an operator whose minimal polynomial does
    not split over the rationals on some invariant block, so neither does
    the abelianization."""


class ClosureFailure(KleintwistError):
    """A convolution product or group operation landed outside the finite
    set it was supposed to stay in."""


class TwistNotHopf(KleintwistError):
    """The twisted structure tensors failed a Hopf *-algebra axiom."""


class PatternMismatch(KleintwistError):
    """A sign pattern disagreed with the value predicted by the bicharacter."""


class SignMismatch(KleintwistError):
    """A monomial reordering sign disagreed with its predicted value."""


class InfiniteCharacterSpace(KleintwistError):
    """The requested presentation has infinitely many one-dimensional
    representations, so enumeration is refused."""


class RelationFailure(KleintwistError):
    """A defining relation of a presentation failed on a candidate solution."""


class CharacterActionMismatch(KleintwistError):
    """An automorphism did not act on the character set the way the claimed
    correspondence requires."""


class CountMismatch(KleintwistError):
    """An enumerated finite set has the wrong cardinality."""


class NotASubgroup(KleintwistError):
    """A set of permutations expected to form a subgroup does not."""


class UnknownCheck(KleintwistError):
    """Requested check id is not in the registry."""
