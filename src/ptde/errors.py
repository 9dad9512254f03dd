"""Exception types shared across the package.

Every error raised on purpose derives from PtdeError so callers (and the
CLI) can separate contract violations from genuine bugs.
"""


class PtdeError(Exception):
    """Base class for all package-theft-detector errors."""


# feature segmenting / aggregation
class EmptyVideo(PtdeError):
    """Video is shorter than one segment, nothing to score."""


class NonFiniteInput(PtdeError):
    pass


class EmptySegment(PtdeError):
    pass


class DimensionMismatch(PtdeError):
    pass


# pose parsing
class MalformedPoseFile(PtdeError):
    """Pose keypoint document violates the extractor file contract."""


# fusion
class MissingPose(PtdeError):
    pass


# loss
class EmptyBag(PtdeError):
    pass


class NegativeLambda(PtdeError):
    pass


class EmptyBatch(PtdeError):
    pass


# training
class ShapeMismatch(PtdeError):
    pass


class InsufficientData(PtdeError):
    """Training set lacks a positive or a negative bag."""


class NonFiniteLoss(PtdeError):
    """Objective diverged; aborting instead of silently clamping."""


# metrics
class DegenerateLabels(PtdeError):
    """Only one class present, AUC undefined."""


class LengthMismatch(PtdeError):
    pass


class MissingGroundTruth(PtdeError):
    """Segment-level evaluation needs annotations the manifest does not have."""


# dataset and checkpoint IO
class ManifestSyntax(PtdeError):
    pass


class MissingFeatureFile(PtdeError):
    pass


class InconsistentDimension(PtdeError):
    pass


class BadCategory(PtdeError):
    pass


class CorruptFeatureFile(PtdeError):
    pass


class UnknownVideo(PtdeError):
    pass


class UnsupportedVersion(PtdeError):
    pass


class CorruptCheckpoint(PtdeError):
    pass


# output files: synth's dataset tree and the CLI's output paths
class IoFailure(PtdeError):
    pass
