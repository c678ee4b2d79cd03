"""Exception hierarchy shared by the whole toolkit.

Every error carries an ``exit_code`` so the CLI can map failure classes to
distinct process exit statuses (documented in the README).
"""


class ScoreFuseError(Exception):
    """Base class for all toolkit errors."""

    exit_code = 1


class ParseError(ScoreFuseError):
    """Malformed input file (bad row, bad header, bad JSON line)."""

    exit_code = 3


class RangeViolationError(ParseError):
    """A score lies outside the table's declared range."""


class DuplicatePairError(ParseError):
    """The same (probe_id, reference_id) key appears twice."""


class ContractError(ScoreFuseError):
    """A documented precondition of an operation was violated."""

    exit_code = 4


class UnknownEntityError(ContractError):
    """A referenced entity id does not resolve in the embedding set."""


class UndefinedEffectError(ContractError):
    """Effect size is undefined (zero pooled variance)."""


class UnsupportedOracleError(ContractError):
    """A closed-form oracle was asked outside its validity domain."""


class TrainingError(ContractError):
    """Fuser training produced a non-finite loss."""


class AlignmentError(ScoreFuseError):
    """Comparison keys do not line up across matcher tables."""

    exit_code = 5


class ConsistencyError(AlignmentError):
    """Ground truth or metadata disagrees across tables for the same key."""


class LeakageError(ScoreFuseError):
    """Validation and test partitions share comparison pairs."""

    exit_code = 6


IO_EXIT_CODE = 7
