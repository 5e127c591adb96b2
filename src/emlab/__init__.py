"""Numerical laboratory for radially structured variational problems.

Solves the optimality equation of integrands F(|grad u|, u) on embedded 2D
grids, assembles the associated divergence-free tensor field, and verifies
its claimed properties at desk scale: symmetry, closed-form spectrum,
definiteness, the maximum location of the principal eigenvalue, integral
identities of Rellich/Pohozaev type, and pointwise gradient bounds.

EMLAB_THREADS caps the BLAS/OpenMP threads; it is applied here, before any
submodule imports numpy, because the BLAS reads its thread count once.
"""

import os

if "EMLAB_THREADS" in os.environ:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, os.environ["EMLAB_THREADS"])

from .errors import (ConfigError, DegenerateGridError, EllipticityError,
                     EmlabError, EvaluationError, OriginLimitError,
                     UnconvergedError)
from .geometry import (DiscreteDomain, Shape, boundary_integral, build_domain,
                       make_shape, volume_integral)
from .identities import (nonexistence_obstruction, run_identity_suite,
                         verify_pohozaev_identity, verify_rellich_identity,
                         verify_rellich_source_form)
from .lagrangian import (CATALOG, HypothesisReport, Jet2, LagrangianModel,
                         candidate_p2_derivative, check_hypotheses,
                         divergence_coefficients, eval_jet,
                         make_expression_model, make_model,
                         pfunction_identity_residual)
from .pfunction import (check_max_principle_conditions, gradient_bound_check,
                        locate_max)
from .pipeline import (RunConfig, RunReport, export_fields, load_config,
                       load_run, parse_config, run_pipeline, validate_report)
from .solver import (RadialProfile, SolveResult, SolverConfig, el_residual,
                     solve_euler_lagrange, solve_radial)
from .tensor_field import (SpectralField, assemble_field, classify_definiteness,
                           divergence_residual)

__version__ = "0.1.0"
