"""Foundational graph type and classical subroutines."""

from .connectivity import (
    blocks,
    find_two_separation,
    is_three_connected,
)
from .flow import (
    EdgeCut,
    edge_disjoint_paths,
    exact_cut,
    fan_paths,
    min_edge_cut_between,
    vertex_disjoint_paths,
)
from .graph import Graph, bfs_path, edge_key, identify_vertices, path_edges
from .isomorphism import is_isomorphic_small
from .named import (
    NAMED_CATALOGUE,
    claw,
    complete_graph,
    cycle_graph,
    make_named,
    path_graph,
    prism_graph,
    squared_cycle,
    squared_cycle_6_minus_edge,
    squared_cycle_minus_vertex,
    theta_graph,
    wheel_5,
)

__all__ = [
    "EdgeCut",
    "Graph",
    "NAMED_CATALOGUE",
    "bfs_path",
    "blocks",
    "claw",
    "complete_graph",
    "cycle_graph",
    "edge_disjoint_paths",
    "edge_key",
    "exact_cut",
    "fan_paths",
    "find_two_separation",
    "identify_vertices",
    "is_isomorphic_small",
    "is_three_connected",
    "make_named",
    "min_edge_cut_between",
    "path_edges",
    "path_graph",
    "prism_graph",
    "squared_cycle",
    "squared_cycle_6_minus_edge",
    "squared_cycle_minus_vertex",
    "theta_graph",
    "vertex_disjoint_paths",
    "wheel_5",
]
