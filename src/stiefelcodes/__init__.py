"""Optimal codes in real and complex Stiefel manifolds.

Constructions that meet the simplex bound sqrt(2rn/(n-1)) and the orthoplex
bound sqrt(2r), a certifier for arbitrary codes, the supporting bound and
combinatorial layers (Radon-Hurwitz numbers, Hadamard matrices, Plotkin-cap
binary codes, resolvable block designs), and a deterministic max-min
optimizer for parameters no exact construction covers.
"""

from . import errors
from ._kernels import backend as kernel_backend
from .atlas import (
    O2Solution,
    best_exact,
    best_known,
    circle_code,
    find_ssc,
    o2_code,
    o2_k,
    o2_solution,
)
from .binary import (
    BinaryCode,
    HadamardMatrix,
    exhaustive_optimal_code,
    hadamard,
    min_hamming_distance,
    plotkin_optimal_code,
)
from .bounds import (
    BoundKind,
    BoundResult,
    orthoplex_bound,
    orthoplex_bound_sq,
    orthoplex_cap,
    orthoplex_result,
    plotkin_cap,
    radon_hurwitz,
    simplex_bound,
    simplex_bound_sq,
    simplex_cap,
    simplex_result,
)
from .core import (
    DEFAULT_STIEFEL_TOL,
    Field,
    StiefelCode,
    StiefelPoint,
    frobenius_distance,
    is_stiefel,
    real_trace_inner,
)
from .designs import (
    BIBD,
    CheckResult,
    Resolution,
    builtin_design,
    find_resolution,
    load_design_file,
    verify_bibd,
    verify_resolution,
)
from .io import dumps_code, loads_code, read_code_file, write_code_file
from .optimize import OptimizerConfig, gradient_check, optimize, random_stiefel
from .orthoplex import soc_complex_orbit, soc_real_hadamard, soc_sphere_real
from .simplex import (
    SimplexVertices,
    hurwitz_radon_family,
    simplex_vertices,
    ssc_complexify,
    ssc_from_bibd,
    ssc_kronecker,
    ssc_pad_row,
    ssc_radon_hurwitz,
    ssc_realify,
    ssc_regular_representation,
    ssc_sphere,
    ssc_symplectic_lift,
)
from .verify import Classification, CodeReport, certify, min_distance

__version__ = "0.1.0"

__all__ = [
    "BIBD",
    "BinaryCode",
    "BoundKind",
    "BoundResult",
    "CheckResult",
    "Classification",
    "CodeReport",
    "DEFAULT_STIEFEL_TOL",
    "Field",
    "HadamardMatrix",
    "O2Solution",
    "OptimizerConfig",
    "Resolution",
    "SimplexVertices",
    "StiefelCode",
    "StiefelPoint",
    "best_exact",
    "best_known",
    "builtin_design",
    "certify",
    "circle_code",
    "dumps_code",
    "errors",
    "exhaustive_optimal_code",
    "find_resolution",
    "find_ssc",
    "frobenius_distance",
    "gradient_check",
    "hadamard",
    "hurwitz_radon_family",
    "is_stiefel",
    "kernel_backend",
    "load_design_file",
    "loads_code",
    "min_distance",
    "min_hamming_distance",
    "o2_code",
    "o2_k",
    "o2_solution",
    "optimize",
    "orthoplex_bound",
    "orthoplex_bound_sq",
    "orthoplex_cap",
    "orthoplex_result",
    "plotkin_cap",
    "plotkin_optimal_code",
    "radon_hurwitz",
    "random_stiefel",
    "read_code_file",
    "real_trace_inner",
    "simplex_bound",
    "simplex_bound_sq",
    "simplex_cap",
    "simplex_result",
    "simplex_vertices",
    "soc_complex_orbit",
    "soc_real_hadamard",
    "soc_sphere_real",
    "ssc_complexify",
    "ssc_from_bibd",
    "ssc_kronecker",
    "ssc_pad_row",
    "ssc_radon_hurwitz",
    "ssc_realify",
    "ssc_regular_representation",
    "ssc_sphere",
    "ssc_symplectic_lift",
    "verify_bibd",
    "verify_resolution",
    "write_code_file",
]
