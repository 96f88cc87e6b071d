"""Exception types shared across the package."""


class NlgpError(Exception):
    """Base class for all package errors."""


class ConfigError(NlgpError):
    """Malformed or inconsistent run configuration."""


class OutOfRangeError(ConfigError):
    """Tabulated symbol queried beyond its table: an input too short for the run."""


class NoSoundSpeedError(NlgpError):
    """W_hat(0) <= 0: the subsonic regime is empty."""


class CertificationError(NlgpError):
    """No admissible (sigma, kappa) pair found on the sample lattice."""


class SupersonicMultiplierError(NlgpError):
    """M_c is not strictly positive on the frequency lattice."""


class VortexError(NlgpError):
    """Amplitude vanishes (or crosses the positivity floor): lifting impossible."""


class OutOfRegimeError(NlgpError):
    """Speed outside the certified subsonic interval."""


class GridTooSmallError(NlgpError):
    """Construction needs more room than the grid provides."""


class UnderresolvedTailError(NlgpError):
    """Too few tail samples above the fit floor; enlarge the domain."""
