"""Exception hierarchy shared across the package."""


class PathlensError(Exception):
    """Base class for all pathlens errors."""


class InputError(PathlensError):
    """Invalid data, moments, or configuration (CLI exit code 2)."""


class InfeasibleError(PathlensError):
    """No path satisfies the requested constraints (CLI exit code 3)."""


class BudgetError(PathlensError):
    """Enumeration would exceed the configured candidate budget (CLI exit code 3)."""


def not_utf8(path, exc: UnicodeDecodeError) -> InputError:
    """The InputError for a file whose bytes do not decode as UTF-8."""
    bad = exc.object[exc.start : exc.end]
    return InputError(f"{path}: not valid UTF-8 ({exc.reason}: {bad!r})")
