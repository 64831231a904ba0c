"""Exception hierarchy shared by the whole package.

DomainError marks violated preconditions on otherwise well-formed data
(e.g. multiplicities requested for a non-simple polytope).
InternalConsistencyError marks a broken mathematical identity that the
code guarantees by construction; it always indicates a bug.
`Polytope._broken` makes one naming the polytope and face it failed on.
"""


class PolyinvError(Exception):
    pass


class DomainError(PolyinvError):
    """A precondition on the input data does not hold."""


class NotSimpleError(DomainError):
    """Operation defined only for simple polytopes."""


class InternalConsistencyError(PolyinvError):
    """An exact identity that must hold by construction failed."""
