"""Exception types shared across the package."""


class PolarKitError(Exception):
    """Base class for all polar-kit errors."""


class InvalidLane(PolarKitError):
    """A polyline or lane grid cannot represent a usable lane."""


class NearHorizontalAnchor(PolarKitError):
    """Anchor angle too close to +-pi/2 for the x = f(y) sampling to be stable."""


class InvalidK(PolarKitError):
    """Top-K selection asked for more items than available."""


class ShapeError(PolarKitError):
    """Array shapes are inconsistent with the declared wiring."""


class MissingO2OScores(PolarKitError):
    """Dual confidence selection requires one-to-one scores to be populated."""


class InvalidInput(PolarKitError):
    """Numeric input outside its documented domain."""


class InfeasibleAssignment(PolarKitError):
    """One-to-one assignment needs at least as many predictions as ground truths."""


class TooFewRows(PolarKitError):
    """Lane valid range too short for the requested segmentation."""


class InvalidSpec(PolarKitError):
    """A generator spec is internally contradictory or out of range."""


class ConfigError(PolarKitError):
    """Malformed or unknown configuration values (CLI exit code 2)."""


class ParseError(PolarKitError):
    """Malformed data file (CLI exit code 3). Carries the path; the message names the field."""

    def __init__(self, message: str, path: str | None = None):
        self.path = path
        super().__init__(message if path is None else f"{path}: {message}")


class VersionError(ParseError):
    """Data file declares an unsupported format version."""
