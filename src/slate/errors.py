"""Exception types shared across the package."""


class SlateError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(SlateError):
    """Invalid parameter combination or malformed run configuration."""


class EdgeListParseError(SlateError):
    """Malformed edge-list input. Carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class NodeBoundsError(SlateError):
    """Node id outside the declared node range."""


class DegenerateWindowError(SlateError):
    """Window contains a snapshot with no edges; no connected multi-layer graph exists."""


class ConnectivityError(SlateError):
    """Multi-layer graph is disconnected. Carries the offending gap, if known."""

    def __init__(self, message: str, gap: tuple[int, int] | None = None):
        super().__init__(message)
        self.gap = gap


class ConvergenceError(SlateError):
    """Iterative eigensolver failed to converge. Carries per-pair residual norms."""

    def __init__(self, message: str, residuals=None):
        super().__init__(message)
        self.residuals = residuals


class ShapeError(SlateError):
    """Tensor operands do not conform."""


class UndefinedMetricError(SlateError):
    """Metric is undefined for the given input: single-class labels, a label
    other than 0 or 1, labels and scores of different lengths, or a NaN or
    infinite score."""


class TrainingError(SlateError):
    """Training-loop invariant violated (e.g. parameter update without gradients)."""
