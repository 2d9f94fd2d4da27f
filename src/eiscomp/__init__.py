"""Level-one modular forms mod p and their Eisenstein-local structure.

Exact-arithmetic computation of q-expansion bases, Hecke algebras
localized at Eisenstein maximal ideals, companion-form dimensions,
Gorenstein diagnostics of the local algebras, and a checkpointed scanner
for mirror pairs of irregular Bernoulli indices.
"""

from .bernoulli import (
    ScanRecord,
    bernoulli_table_mod,
    irregular_indices,
    pair_scan,
)
from .companions import (
    CompanionReport,
    companion_report,
)
from .hecke import (
    EisLocalPiece,
    duality_pairing_matrix,
    eisenstein_localize,
    full_hecke_algebra,
    hecke_action,
    hecke_matrix,
    hecke_report,
    t_p_redundancy_check,
)
from .lambda_eis import (
    LambdaEisenstein,
    build_lambda_eisenstein,
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
    restrict_algebra,
    socle_dim,
    structure_report,
)
from .padic import (
    a_t_poly,
    s_exponent,
    teichmuller,
)
from .qexp import (
    PrecisionPlan,
    delta_q,
    membership,
    miller_basis,
    plan_companion,
    space_dim,
    sturm,
)
from .scan import scan_range

__version__ = "0.1.0"
