"""Exception types shared across the package."""


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
