"""Spherical-harmonic representation and local spherical convolution of
diffusion-MRI q-space signals.

The public surface mirrors the processing pipeline: gradient-table and
NIfTI-1 I/O (:mod:`sphdwi.dwio`), b0 normalization and the regularized
sample <-> SH transforms (:mod:`sphdwi.fitting`), ring-kernel local
spherical convolution (:mod:`sphdwi.lsc`), synthetic phantoms
(:mod:`sphdwi.phantom`) and the batched-vs-naive benchmark
(:mod:`sphdwi.bench`).
"""

from .bench import BenchReport, BenchRow, naive_sh_to_signal, naive_signal_to_sh, run_bench
from .directions import unit_sphere_directions
from .dwio import (
    GradientScheme,
    Shell,
    detect_shells,
    read_bvals_bvecs,
    read_nifti,
    write_bvals_bvecs,
    write_nifti,
)
from .errors import (
    GradientParseError,
    IllPosedFitError,
    KernelMismatchError,
    MissingB0Error,
    NiftiDatatypeError,
    NiftiError,
    NiftiMagicError,
    NiftiTruncatedError,
    ShapeError,
    SphdwiError,
)
from .fitting import (
    DwiVolume,
    FitOperator,
    ShVolume,
    make_fit_operator,
    normalize_b0,
    sh_to_signal,
    signal_to_sh,
)
from .lsc import (
    LscGeometry,
    LscKernel,
    build_lsc_geometry,
    load_kernel_json,
    lsc_forward,
    lsc_operator,
    make_identity_kernel,
    make_moving_average_kernel,
    save_kernel_json,
)
from .phantom import PhantomResult, PhantomSpec, generate_phantom, make_phantom, make_scheme
from .shcore import (
    ShBasisSpec,
    as_unit_directions,
    basis_degrees,
    coeff_count,
    degree_energies,
    eval_basis,
    high_degree_energy_fraction,
    laplace_beltrami_diag,
    ring_directions,
    sh_degree_order,
    sh_index,
    tangent_basis,
)

__version__ = "0.1.0"


def default_backend() -> str:
    """Name of the kernel backend, always ``"numpy"``.

    There is one implementation of every transform. The function stays
    because the ``perfbench`` worker records its value after every run;
    without it every benchmark run would fail.
    """
    return "numpy"
