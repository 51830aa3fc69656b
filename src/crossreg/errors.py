"""Exception types shared across the package.

Precondition violations subclass ValueError (an index out of range, IndexError)
so callers can treat them uniformly; NoConsensusError is a runtime outcome.
"""


class CrossregError(Exception):
    """Base class for every package-specific error."""


class InvalidRotationError(CrossregError, ValueError):
    """Matrix is not a proper rotation within tolerance."""


class NonPositiveDepthError(CrossregError, ValueError):
    """Projection or backprojection hit a depth <= 0."""


class MissingDepthError(CrossregError, ValueError):
    """A required depth-map pixel is invalid."""


class DegenerateNeighborhoodError(CrossregError, ValueError):
    """Neighborhood covariance has no unique smallest eigenvector."""


class NotNormalizedError(CrossregError, ValueError):
    """Feature rows expected to be unit length are not."""


class EmptyOverlapError(CrossregError, ValueError):
    """No jointly valid elements to compare."""


class ChannelMismatchError(CrossregError, ValueError):
    """Feature fields disagree on channel count."""


class EmptyPatchError(CrossregError, ValueError):
    """A patch has no member pixels or points."""


class InsufficientPointsError(CrossregError, ValueError):
    """Too few correspondences for the requested solver."""


class DegenerateConfigurationError(CrossregError, ValueError):
    """Correspondence geometry is coplanar/collinear beyond recovery."""


class NoConsensusError(CrossregError, RuntimeError):
    """RANSAC found no hypothesis with enough inliers."""


class EmptyCorrespondencesError(CrossregError, ValueError):
    """Metric requested over an empty correspondence set."""


class EmptySampleError(CrossregError, ValueError):
    """Statistical distance requested over an empty sample."""


class EmptyVisibleSetError(CrossregError, RuntimeError):
    """Generated scene has no point visible in the image."""


class CoordinateOverflowError(CrossregError, ValueError):
    """Coordinates too large for the arithmetic that consumes them."""


class LengthMismatchError(CrossregError, ValueError):
    """Paired sequences have different lengths."""


class PointIndexError(CrossregError, IndexError):
    """A correspondence names a point outside its cloud."""


class ConfigError(CrossregError, ValueError):
    """Config document failed schema validation."""


class BundleError(CrossregError, ValueError):
    """Scene bundle directory is missing or malformed."""


# register_scene outcomes meaning the scene did not register, as opposed to
# bad input: the CLI exits 2 on them and a sweep scores the scene as a miss.
REGISTRATION_FAILURES = (
    NoConsensusError,
    InsufficientPointsError,
    EmptyCorrespondencesError,
)
