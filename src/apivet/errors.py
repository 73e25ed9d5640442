"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: configuration/usage problems exit 1,
data and parse problems exit 2, proposer/provider failures exit 3.
"""


class ApivetError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(ApivetError):
    """Invalid configuration value, missing input file, unwritable output
    path, or bad wiring."""


class SchemaError(ApivetError):
    """Entity or attribute definitions violate a schema invariant."""


class ParseError(ApivetError):
    """Input text that a grammar rejects at a line and column."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class DdlParseError(ParseError):
    """Unsupported or malformed DDL input."""


class IngestError(ApivetError):
    """Malformed log or label line in strict mode."""

    def __init__(self, message: str, line_no: int):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class ReplayError(ApivetError):
    """Binary log events cannot be applied consistently."""


class StoreLookupError(ApivetError):
    """Unknown table or column requested from a temporal store."""


class TrainingError(ApivetError):
    """Sequence model training received an unusable corpus."""


class InferenceError(ApivetError):
    """Relationship inference produced no usable result in strict mode."""


class DslSyntaxError(ParseError):
    """Invariant text does not conform to the grammar."""


class DslScopeError(ParseError):
    """A field reference escapes the quantifier binding its entity."""


class EvaluationError(ApivetError):
    """An invariant references an entity that is not bound in the group.

    This signals a configuration bug, not a data violation.
    """


class ProposalError(ApivetError):
    """The proposer could not produce a usable response."""


class ExtractionError(ApivetError):
    """No fenced block of the expected tag in a proposer response."""


class MetricsError(ApivetError):
    """Labels are missing or inconsistent with the report."""
