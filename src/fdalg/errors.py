"""Exception taxonomy shared across the package."""


class FdalgError(Exception):
    """Base class for all package errors."""


class BadParameter(FdalgError):
    """A construction parameter is outside its documented range."""


class AmbientMismatch(FdalgError):
    """Subspace or vector operands live in different ambient spaces."""


class ParentMismatch(FdalgError):
    """Elements of two different algebras were combined."""


class NotAGroup(FdalgError):
    """A Cayley table fails one of the group axioms."""

    def __init__(self, axiom, detail=""):
        self.axiom = axiom
        super().__init__(f"not a group: {axiom}" + (f" ({detail})" if detail else ""))


class NotIdempotent(FdalgError):
    """Corner passage requires an idempotent element."""


class QuiverSyntaxError(FdalgError):
    """Parse error in the quiver DSL, with source position."""

    def __init__(self, message, line, col):
        self.line = line
        self.col = col
        super().__init__(f"{message} (line {line}, col {col})")


class NotAdmissible(FdalgError):
    """The relation ideal does not truncate the path algebra."""


class UnsupportedRelations(FdalgError):
    """Relation shape outside the supported (length-homogeneous) fragment."""


class NotSplit(FdalgError):
    """Operation requires the ground field to split the algebra."""


class SplitUndecided(FdalgError):
    """Whether A/J splits is undecided: over Q, a piece's minimal polynomials
    admit no rational linear split; over F_p, where field pieces are certified,
    no candidate split a piece that is not a field."""


class NotBasic(FdalgError):
    """Operation requires a basic algebra."""


class NotFull(FdalgError):
    """The idempotent does not generate the whole algebra as an ideal."""


class NotLocal(FdalgError):
    """Operation requires a local algebra."""


class CharZero(FdalgError):
    """Operation requires positive characteristic."""


class GeneratorFailed(FdalgError):
    """A seeded random generator exhausted its retry budget."""


class TooLarge(FdalgError):
    """Instance exceeds the documented size cap for this routine."""


class InternalInconsistency(FdalgError, RuntimeError):
    """A certificate step or internal invariant failed: a bug, not bad input.

    Raised instead of ``assert`` so that ``python -O`` cannot strip the check.
    """
