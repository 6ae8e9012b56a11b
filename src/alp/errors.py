"""Exception types shared across the toolkit."""


class AlpError(Exception):
    """Base class for all toolkit errors."""


class ConfigurationError(AlpError, ValueError):
    """Raised for unknown mechanisms, evaluators, or invalid parameter setups."""


class DatasetLoadError(AlpError, ValueError):
    """Raised when an input file cannot be parsed; carries per-line problems."""

    def __init__(self, message, problems=None):
        self.problems = list(problems or [])
        if self.problems:
            detail = "; ".join(f"line {ln}: {msg}" for ln, msg in self.problems)
            message = f"{message}: {detail}"
        super().__init__(message)


def lookup(table, kind: str, name: str):
    """``table[name]``; an unknown name raises a ConfigurationError that lists the table."""
    try:
        return table[name]
    except KeyError:
        raise ConfigurationError(f"unknown {kind} {name!r}; registered: {', '.join(sorted(table))}") from None
