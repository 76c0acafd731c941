"""Exception types shared across the toolkit.

The CLI maps these onto exit codes: input problems (parsing, annotation)
exit with 2, key/response pairing problems with 3.
"""


class CorefEvalError(Exception):
    """Base class for all toolkit errors."""


class ConlluParseError(CorefEvalError):
    """Malformed CoNLL-U input (columns, ids, brackets, part indices)."""

    def __init__(self, message: str, path: str | None = None, line: int | None = None):
        self.path = path
        self.line = line
        super().__init__(message)

    def __reduce__(self):
        return (ConlluParseError, (self.args[0], self.path, self.line))

    def __str__(self) -> str:
        where = ""
        if self.path is not None:
            where = f"{self.path}:"
            if self.line is not None:
                where += f"{self.line}:"
            where += " "
        elif self.line is not None:
            where = f"line {self.line}: "
        return where + super().__str__()


class DocumentPairError(CorefEvalError):
    """Key and response files cannot be paired (documents or tokens differ)."""


class SerializationError(CorefEvalError):
    """Document state that the CoNLL-U/CorefUD format cannot represent."""
