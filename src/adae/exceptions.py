"""Exception hierarchy shared across the package."""


class AdaeError(Exception):
    """Base class for all package-specific errors."""


class NotInResolventSet(AdaeError):
    """lam*E - A is rank deficient under the active tolerance policy."""

    def __init__(self, lam, detail=""):
        self.lam = lam
        msg = f"lambda = {lam} is not in the sampled resolvent set"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class SingularPencil(AdaeError):
    """det(lam*E - A) vanishes identically on the probe set."""


class GridTooCoarse(AdaeError):
    """A time grid has too few samples for the requested diagnostic."""


class ChainNotStabilized(AdaeError):
    """Kernel/range chains did not stabilize within the allowed depth."""


class ChainStalled(AdaeError):
    """Tractability chain stopped making progress on a nonzero kernel."""


class PatternViolation(AdaeError):
    """Staircase zero pattern exceeds the residual tolerance."""


class NotInjectiveOnVk(AdaeError):
    """Compressed pseudo-resolvent is not injective on the stabilized range."""


class InsufficientSmoothness(AdaeError):
    """Forcing does not expose enough derivatives for the detected index."""

    def __init__(self, needed, available):
        self.needed = needed
        self.available = available
        super().__init__(
            f"forcing derivative order {needed} required, only {available} available"
        )


class StepSingular(AdaeError):
    """E - h*A stayed singular after step-size retries."""
