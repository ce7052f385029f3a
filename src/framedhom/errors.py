"""Exception types shared across the package."""


class FramedHomError(Exception):
    """Base class for every validation or precondition failure."""


class InvalidSurface(FramedHomError):
    """Bad genus / marked-point data, e.g. a kappa sum that is not 2g-2."""


class DimensionMismatch(FramedHomError):
    """Vector or matrix of the wrong length for its surface."""


class SpecMismatch(FramedHomError):
    """Two objects built over different surfaces were combined."""


class MissingArcData(FramedHomError):
    """Arc winding numbers required but absent (n >= 2)."""


class SomeKappaOdd(FramedHomError):
    """No classical spin structure: some kappa entry is odd."""


class PointPushOnArcs(FramedHomError):
    """Point-push letters cannot act on framings that carry arc data."""


class NotSymplectic(FramedHomError):
    """Matrix does not preserve the intersection pairing."""


class NotPrimitive(FramedHomError):
    """Lattice vector required to be primitive is not."""


class NoLiftExists(FramedHomError):
    """No kernel element exists over the requested transvection."""


class ArfMismatch(FramedHomError):
    """Framings with different Arf invariants cannot be matched."""


class QVectorMismatch(FramedHomError):
    """Framings whose quadratic forms q_phi differ (in some basis winding parity) cannot be matched."""


class WindingParityMismatch(FramedHomError):
    """A twist letter declares a winding of the wrong parity for the framing's class."""


class MoveError(FramedHomError):
    """A basis move's precondition does not hold for this framing."""


class TooLarge(FramedHomError):
    """Requested exhaustive computation exceeds the supported size."""


class InvalidCount(FramedHomError):
    """A count is below its minimum, e.g. verify --trials 0 or run_suite(..., trials=0)."""


class WordSyntaxError(FramedHomError):
    """Unparseable word or vector expression."""


class FileFormatError(FramedHomError):
    """Malformed framing or automorphism file, or a malformed number on the command line."""


class UnknownSuite(FramedHomError):
    """A verification suite name that is not registered."""


class UnreadOption(FramedHomError):
    """An option given to a verification suite that does not read it, e.g. verify kernel-order --g 3."""
