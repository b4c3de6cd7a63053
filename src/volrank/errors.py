"""Exception hierarchy shared by every module in the package.

The command line front end maps these onto process exit codes, so each
class marks a distinct failure family rather than a single call site.
"""

__all__ = [
    "DegenerateInputError",
    "NumericError",
    "ParseError",
    "ShapeError",
    "VolrankError",
]


class VolrankError(Exception):
    """Base class for all package-specific errors."""


class ShapeError(VolrankError, ValueError):
    """Operands have missing, mismatched, or non-positive dimensions."""


class NumericError(VolrankError, ArithmeticError):
    """Non-finite values or a numerical routine that failed to converge."""


class DegenerateInputError(VolrankError, ValueError):
    """Input is degenerate for the requested quantity (e.g. zero norm)."""


class ParseError(VolrankError, ValueError):
    """Malformed binary volume or model payload.

    Parameters
    ----------
    message : str
        Human-readable description of the defect.
    offset : int, optional
        Byte offset where parsing failed; embedded in the message so the
        single-line CLI error output pinpoints the corrupt region.
    """

    def __init__(self, message, offset=None):
        if offset is not None:
            message = f"{message} (at byte offset {offset})"
        super().__init__(message)
        self.offset = offset
