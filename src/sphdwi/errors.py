"""Exception types shared across the package.

Each class carries the exit code the CLI returns for it in ``exit_code``:
validation/parse problems exit 2, numerical failures exit 3, file-level
failures exit 4.
"""


class SphdwiError(Exception):
    """Base class for all package-specific errors."""

    exit_code = 2


class ShapeError(SphdwiError):
    """An array does not have the channel/volume layout an operation expects."""


class IllPosedFitError(SphdwiError):
    """The least-squares system is underdetermined or numerically rank deficient."""

    exit_code = 3


class MissingB0Error(SphdwiError):
    """The acquisition contains no non-diffusion-weighted (b=0) volume."""


class GradientParseError(SphdwiError):
    """A bvals/bvecs file could not be parsed or is internally inconsistent."""


class KernelMismatchError(SphdwiError):
    """A convolution kernel does not match the geometry it is applied with."""


class NiftiError(SphdwiError):
    """Base class for NIfTI-1 read/write failures."""

    exit_code = 4


class NiftiMagicError(NiftiError):
    """The file does not identify as single-file NIfTI-1."""


class NiftiDatatypeError(NiftiError):
    """The on-disk datatype code is not supported."""


class NiftiTruncatedError(NiftiError):
    """The file ends before the header or voxel data it promises."""
