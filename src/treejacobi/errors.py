"""Exception hierarchy shared by all treejacobi modules."""


class TreeJacobiError(Exception):
    """Base class for all errors raised by this package."""


class DivisionError(TreeJacobiError, ArithmeticError):
    """An exact polynomial division left a nonzero remainder.

    Raised when a divisibility claim that the algorithms rely on is
    violated; this always indicates a bug or corrupted input, never a
    legitimate runtime condition.
    """


class ParseError(TreeJacobiError, ValueError):
    """A text or JSON document could not be parsed."""


class ValidationError(TreeJacobiError, ValueError):
    """A structural invariant of a tree or field is violated.

    The message names the offending vertex whenever one is known.
    """


class UnknownVertexError(TreeJacobiError, KeyError):
    """A vertex identifier is not present in the tree."""

    def __str__(self) -> str:
        # KeyError would print the repr of the message
        return str(self.args[0]) if self.args else ""


class ConstructionError(TreeJacobiError):
    """An inductive matrix construction hit a case its theory excludes."""


class PositivityError(TreeJacobiError):
    """A quantity certified positive failed an exact positivity check."""
