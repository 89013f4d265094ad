"""Exception types shared across the package."""


class GeometryError(ValueError):
    """Invalid array geometry (non-square block count, bad spacing)."""


class ArchitectureError(ValueError):
    """Invalid reuse architecture (non-divisible sizes, infeasible phases)."""


class NumericError(RuntimeError):
    """Numerical failure (rank deficiency, indefinite matrix, SVD breakdown)."""


class ConfigError(ValueError):
    """Malformed or invalid experiment configuration."""
