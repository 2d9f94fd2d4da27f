"""Level-one modular forms mod p and their Eisenstein-local structure.

Exact-arithmetic computation of q-expansion bases, Hecke algebras
localized at Eisenstein maximal ideals, companion-form dimensions,
Gorenstein diagnostics of the local algebras, and a checkpointed scanner
for mirror pairs of irregular Bernoulli indices.
"""

from .bernoulli import (
    ScanRecord,
    bernoulli_mod,
    bernoulli_table_mod,
    irregular_indices,
    pair_scan,
)
from .companions import (
    CompanionReport,
    companion_dimension,
    companion_report,
    filtration,
    has_companion,
    mirror_check,
    theta_series,
)
from .hecke import (
    EisLocalPiece,
    duality_pairing_matrix,
    eisenstein_localize,
    full_hecke_algebra,
    hecke_action,
    hecke_matrix,
    hecke_report,
    ordinary_dim,
    ordinary_projector,
    t_p_redundancy_check,
)
from .lambda_eis import (
    LambdaEisenstein,
    build_lambda_eisenstein,
    lambda_eis_coeff,
    specialize_and_compare,
)
from .linalg import (
    EchelonSpace,
    MatFp,
    algebra_closure,
    generalized_eigenspace,
    kernel,
    rref,
    solve,
    stable_idempotent,
)
from .localstruct import (
    LocalAlgebra,
    StructureReport,
    eis_ideal_min_gens,
    gorenstein,
    restrict_algebra,
    socle_dim,
    structure_report,
)
from .padic import (
    FpElem,
    LambdaPoly,
    PadicInt,
    a_t_poly,
    eval_lambda,
    gamma_generator,
    plog,
    s_exponent,
    teichmuller,
)
from .qexp import (
    FormSpace,
    PrecisionPlan,
    QSeries,
    delta_q,
    eisenstein_q,
    membership,
    miller_basis,
    p_deprived_eisenstein_q,
    plan_companion,
    space_dim,
    sturm,
)
from .scan import scan_range

__version__ = "0.1.0"
