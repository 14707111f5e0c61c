"""cwkit: clique-width boundedness classification for forbidden-pattern graph
classes, with witness-family generators, lower-bound certificates, a label-
expression DSL, and an exact clique-width oracle for tiny graphs."""

from .graphs import (
    Graph,
    complement,
    disjoint_union,
    induced_subgraph,
    delete_vertex,
    subdivide_edge,
    contract_edge,
    dissolve_vertex,
    complement_subgraph,
    complement_bipartite,
    from_graph6,
    to_graph6,
    from_edge_list,
    to_edge_list,
)
from .isomorphism import canonical_key, find_isomorphism, is_isomorphic
from .patterns import (
    Embedding,
    contains_induced,
    has_induced,
    is_free,
    in_class_S,
    is_planar,
)
from .names import parse_name, realize, recognize, format_name, graph_named
from .cwexpr import parse_cwexpr, eval_cwexpr, width, format_cwexpr
from .cwexact import cliquewidth, cliquewidth_at_most
from .certificate import (
    LayeredPartition,
    CertificateReport,
    check_certificate,
    lower_bound,
    parse_partition,
    format_partition,
)
from .witnesses import (
    wall,
    subdivided_wall,
    grid,
    p6_diamond_base,
    p6_diamond_witness,
    two_clique_grid,
)
from .classifier import (
    Status,
    Verdict,
    classify_single,
    classify_pair,
    classify_relation,
    classify_colouring,
    equivalence_class,
)
from .scan import scan_pairs

__version__ = "0.1.0"
