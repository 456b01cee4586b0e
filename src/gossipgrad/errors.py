"""Exception types shared across the package, and the guard that reports a size numpy refuses as one."""

from contextlib import contextmanager


class ConfigError(Exception):
    """Invalid or inconsistent run configuration."""


class SingularPointError(ArithmeticError):
    """Objective derivative requested at a point where it is undefined."""


class DegenerateCurvatureError(ArithmeticError):
    """Curvature estimate is zero or negative; no stepsize can be derived from it."""


class DegenerateFitError(ValueError):
    """Error sequence has too few usable points for a decay-rate fit."""


class AnalysisError(Exception):
    """Requested analysis needs data the run does not provide (e.g. a known optimizer)."""


@contextmanager
def allocating(what: str):
    """Reports a size numpy cannot even index as a ConfigError naming ``what``.

    numpy refuses such a size with ValueError (IndexError from linspace near
    2**63); one it can index but not allocate is a MemoryError, left to the caller.
    """
    try:
        yield
    except (ValueError, IndexError) as exc:
        raise ConfigError(f"cannot allocate {what}: {exc}") from exc
