"""Recognition of undirected squares of oriented graphs.

A graph is the undirected square of an oriented graph exactly when it admits
a partial orientation as a quasi-transitive mixed graph.  This package
provides the graph and mixed-graph types, an exact solver for the decision
problem with witness production and verification, polynomial deciders for
maximum degree three and for triangle-free inputs, and a compiler from
Monotone NAE3SAT instances to equivalent graph instances.
"""

from .graphs import (
    Arc,
    Edge,
    Graph,
    MixedGraph,
    delete_vertices,
    edge,
    find_odd_cycle,
    girth,
    mixed_square,
    triangle_free_edges,
    underlying,
    undirected_square,
)
from .formats import (
    GraphFormatError,
    graph_to_dot,
    mixed_to_dot,
    parse_graph,
    parse_mixed,
    serialize_graph,
    serialize_mixed,
)
from .solver import (
    BudgetExceeded,
    InducedTwoDipath,
    PartialOrientation,
    QtViolation,
    Signature,
    SolveOptions,
    UncoveredEdge,
    VertexStatus,
    WitnessCheck,
    WitnessError,
    decide_qt,
    enumerate_qt,
    is_qt,
    signature,
    verify_witness,
    vertex_status,
)
from .structure import (
    NetEmbedding,
    RemovalTrace,
    decide_deg3,
    decide_girth4,
    embed_universal,
    find_net,
    orient_deg3,
    reduce_removable,
    removable_vertices,
)
from .reduction import (
    Assignment,
    CnfInstance,
    GadgetSignatureReport,
    ReductionMap,
    assignment_to_witness,
    brute_nae,
    build_reduction,
    clause_gadget,
    gadget_signature_report,
    gadget_templates,
    is_nae_satisfying,
    parse_dimacs,
    parse_reduction_map,
    serialize_assignment,
    serialize_dimacs,
    serialize_reduction_map,
    witness_to_assignment,
)

__version__ = "0.1.0"
