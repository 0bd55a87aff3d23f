"""radiolab: radio labelings of Moore-type graphs from finite geometry.

The package builds the classic low-diameter graph families (Moore graphs,
incidence graphs of generalized polygons, polarity and related difference-set
graphs), decides radio gracefulness with certified verdicts, constructs
minimum-span radio labelings for the girth-8 and girth-12 cages, and cross-checks
everything against an exact branch-and-bound oracle at small scale.
"""

from .budget import DEFAULT_NODE_BUDGET, TIMEOUT, SearchBudget
from .errors import (
    BadCertificate,
    BadParams,
    BadPermutation,
    ConstructionFailed,
    Disconnected,
    LoopError,
    NotInjective,
    NotPrimePower,
    ParseError,
    PreconditionFailed,
    RadioLabError,
    TooLarge,
    UnsupportedDiameter,
    UnsupportedOrder,
    ZeroInverse,
)
from .field import (
    DifferenceSet,
    FieldSpec,
    field_add,
    field_inv,
    field_mul,
    field_neg,
    field_pow,
    field_sub,
    is_planar_difference_set,
    make_field,
    primitive_element,
    singer_difference_set,
)
from .graphcore import (
    UNREACHABLE,
    Graph,
    all_pairs_distances,
    antipodal,
    are_isomorphic,
    bipartite_moore_bound,
    bipartition,
    complement,
    components,
    diameter,
    girth,
    moore_bound,
    regularity,
)
from .families import (
    BUILTIN_GRAPHS,
    BUILTIN_SEQUENCES,
    builtin_graph,
    builtin_sequence,
    complete,
    complete_bipartite,
    cycle,
    erdos_renyi_polarity,
    generalized_quadrangle_incidence,
    hoffman_singleton,
    load_edge_list,
    mms_graph,
    path,
    petersen,
    projective_plane_incidence,
    read_edge_list,
    singer_graph,
    tadpole,
    write_edge_list,
)
from .hamsearch import (
    PathCertificate,
    dirac_hamiltonian_path,
    find_cycle_power,
    find_hamiltonian_path,
    verify_certificate,
)
from .radio import (
    NOT_RADIO_GRACEFUL,
    RADIO_GRACEFUL,
    UNKNOWN,
    AnalysisVerdict,
    Obstruction,
    RadioLabeling,
    analyze,
    label_from_antipodal_path,
    label_hexagon_cage,
    label_quadrangle_cage,
    labeling_from_json,
    labeling_to_json,
    radio_number_exact,
    require_antipodal_path_diameter,
    settle,
    singer_label_erq,
    singer_label_erq_complement,
    verify,
)

__version__ = "0.1.0"
