"""Laguerre needlet frames on the positive orthant.

Stable Laguerre function evaluation, Gauss-Laguerre quadrature with the
exponentially rescaled cubature, localized kernels, dual needlet
analysis/synthesis transforms, and Triebel-Lizorkin / Besov sequence and
continuous norms, with numerical diagnostics for the localization, frame,
and norm-equivalence properties.
"""

from .special import (
    AlphaVector,
    MultiIndex,
    laguerre_fn_batch,
    laguerre_fn_F_deriv,
    multivariate_F,
    kernel_F_m,
)
from .cutoffs import CutoffSpec, CutoffPair, make_cutoff, make_dual_pair, frame_default, frame_alt
from .quadrature import (
    QuadratureRule,
    CubatureGrid,
    gauss_laguerre,
    christoffel,
    cubature_grid,
    weight_W,
    tile_measure,
    level_node_count,
)
from .kernels import (
    lambda_kernel,
    lambda_tilde,
    lambda_star,
    lambda_deriv,
    lower_bound_check,
    kernel_decay_profile,
)
from .needlets import (
    CoeffFn,
    NeedletCoeffs,
    NeedletSystem,
    build_system,
    evaluate_needlet,
    analyze,
    synthesize,
    frame_bounds,
)
from .spaces import (
    NormParams,
    PiecewiseCellFn,
    f_norm_seq,
    b_norm_seq,
    F_norm_cont,
    B_norm_cont,
    seminorm_P_star,
    multiplier_apply,
    maximal_fn,
    nikolskii_report,
    equivalence_report,
    make_test_corpus,
)

__version__ = "0.1.0"
