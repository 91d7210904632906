"""Exception types shared across the toolkit."""

from __future__ import annotations


class BinprovError(Exception):
    """Base class for all toolkit errors."""


class SchemaError(BinprovError):
    """Input document is structurally malformed (bad field, bad line, bad type)."""


class InvariantError(BinprovError):
    """The solver produced a model that violates one of its constraints.

    Malformed models (dangling edges, duplicate ids) raise ``SchemaError``."""


class ParseError(BinprovError):
    """Condition expression could not be parsed."""

    def __init__(self, message: str, column: int):
        super().__init__(f"{message} (column {column})")
        self.column = column


class ConfigError(BinprovError):
    """A configuration assignment references unknown macros or units."""


class BuildFailureError(BinprovError):
    """The (simulated or external) build did not produce a binary."""


class OracleUnavailableError(BinprovError):
    """No toolchain is configured for the requested compiler/version."""


class BudgetExceededError(BinprovError):
    """Option inference hit its build/compare budget before deciding."""


class MapGapError(BinprovError):
    """A decided macro or unit is not covered by any config-map flag."""
