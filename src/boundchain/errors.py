"""Shared error types, each mapped to a CLI exit code."""


class ToolError(Exception):
    """Base class for structured failures; ``exit_code`` and the stderr
    prefix ``label`` drive the CLI."""

    exit_code = 1
    label = "error"


class ValidationError(ToolError):
    """Invalid input or a violated precondition."""

    exit_code = 2


class ResourceLimitError(ValidationError):
    """A configured cap (class size, state count, jump count) was exceeded."""


class InfeasibleError(ToolError):
    """No result exists under the requested tolerances or horizons."""

    exit_code = 3
    label = "infeasible"


class StabilizationError(InfeasibleError):
    """Exact tail rates do not match any admissible tail model."""


class ConsistencyError(ToolError):
    """An internal cross-check failed; results cannot be trusted."""

    exit_code = 4
    label = "inconsistency"
