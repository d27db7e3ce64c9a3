"""(k,l)-colourability of cographs.

Cotree recognition, the kappa/lambda partition-sequence calculus, Ferrers
diagram representations, box-cograph obstruction certificates, and an
exhaustive oracle for small graphs.
"""

from .certificate import (
    BoxCertificate,
    box_cograph_failure,
    certify_non_colourable,
    verify_box_cograph,
)
from .cotree import (
    Cotree,
    CotreeNode,
    P4Witness,
    build_cotree,
    check_cotree,
    complement_cotree,
    cotree_from_json,
    cotree_from_text,
    cotree_to_json,
    cotree_to_text,
    evaluate_cotree,
)
from .ferrers import (
    FerrersRepresentation,
    build_ferrers,
    build_ferrers_naive,
    read_colouring,
    read_obstruction,
    render_ascii,
    render_svg,
    validate_ferrers,
    validate_ferrers_against_cotree,
)
from .generate import deep_alternating_cotree, random_cotree
from .graphs import (
    Graph,
    GraphFormatError,
    complement,
    disjoint_union,
    induced_subgraph,
    join,
    parse_edge_list,
    parse_graph6,
)
from .oracle import (
    BudgetExceededError,
    OracleBudget,
    box_cograph_dimension,
    is_kl_colourable_exhaustive,
    kappa_hat_oracle,
)
from .sequences import (
    KLColouring,
    PartitionSequence,
    bichromatic_number,
    cochromatic_number,
    conjugate,
    entrywise_add,
    is_kl_colourable,
    kappa_at,
    kappa_hat,
    kappa_hat_naive,
    lambda_hat,
    star_merge,
    validate_colouring,
)

__version__ = "0.1.0"
