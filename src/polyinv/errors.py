"""Exception hierarchy shared by the whole package.

DomainError marks violated preconditions on otherwise well-formed data
(e.g. multiplicities requested for a non-simple polytope).
InternalConsistencyError marks a broken mathematical identity that the
code guarantees by construction; it always indicates a bug.
"""


class PolyinvError(Exception):
    pass


class DomainError(PolyinvError):
    """A precondition on the input data does not hold."""


class NotSimpleError(DomainError):
    """Operation defined only for simple polytopes."""


class InternalConsistencyError(PolyinvError):
    """An exact identity that must hold by construction failed."""


def broken_identity(identity: str, face) -> InternalConsistencyError:
    """The error for an identity that failed on a face: it names the
    identity, the owning polytope (or "unnamed") and the face's vertex ids."""
    name = face.owner.name or "unnamed"
    return InternalConsistencyError(
        f"{identity} (polytope {name}, face {face.vertex_ids})"
    )
