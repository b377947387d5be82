"""Exception types shared across the pipeline."""


class AxisForgeError(Exception):
    """Base class for all pipeline errors."""


# --- camera / projection ---

class NonPositiveDepth(AxisForgeError):
    """Point lies at or behind the camera plane."""


class DegenerateAxis(AxisForgeError):
    """An object axis projects to (almost) a single image point."""

    def __init__(self, axis: int):
        self.axis = axis
        super().__init__(f"axis {axis} is image-degenerate")


# --- extraction ---

class EmptyChannel(AxisForgeError):
    """A tri-axis channel has too few pixels above threshold."""

    def __init__(self, channel: int):
        self.channel = channel
        super().__init__(f"channel {channel} is empty")


class DegenerateChannel(AxisForgeError):
    """Channel moments are isotropic: a blob, not a line."""

    def __init__(self, channel: int):
        self.channel = channel
        super().__init__(f"channel {channel} is not line-like")


class NoIntersection(AxisForgeError):
    """The three axis lines admit no well-posed intersection point."""


class VanishingMass(AxisForgeError):
    """Soft-thresholded channel mass is below the numeric floor."""

    def __init__(self, channel: int):
        self.channel = channel
        super().__init__(f"channel {channel} has vanishing soft mass")


# --- tri-axis solver ---

class NoValidSolution(AxisForgeError):
    """No real root of the plane quadratic gives a frame along the observed axes."""


# --- diffusion ---

class InvalidSchedule(AxisForgeError):
    """Variance-schedule parameters violate their preconditions."""


class DivergedLoss(AxisForgeError):
    """Training loss ran away from its initial value."""


# --- pipeline ---

class DegenerateSamplingExhausted(AxisForgeError):
    """Pose rejection sampling failed too many times in a row."""


class ManifestError(AxisForgeError):
    """Dataset manifest is missing, malformed, or inconsistent."""
