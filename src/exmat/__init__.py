"""Exact desk-scale computations for forbidden 0-1 matrix patterns.

The package computes weight and column extremal values of 0-1 matrices
avoiding fixed patterns (exact automaton searches plus independent brute
oracles), generates the named pattern families and lower-bound
constructions used to certify those values, and reduces matrices to bar
visibility hypergraphs with exact rational sweep geometry.
"""

from .matrix import (
    DegeneratePatternError,
    Matrix01,
    PatternSet,
    SizeLimitError,
    avoids_all,
    contains,
    contains_oracle,
    flip_h,
    flip_v,
    format_pattern_set,
    is_range_overlapping,
    parse_matrix,
    parse_pattern_set,
    transpose,
)
from .patterns import generate_T, pattern_L, pattern_P
from .search import (
    UNBOUNDED,
    ExtremalResult,
    avoiders,
    ex_columns,
    ex_weight,
    ex_weight_oracle,
)
from .constructions import (
    build_column_graph,
    cluster_split,
    coloring_induction,
    construct_K_prime,
    degree_growth_bound,
    greedy_coloring,
    lower_bound_witness,
    pigeonhole_witness,
)
from .visibility import (
    Bar,
    BarLayout,
    LayoutError,
    VisEdge,
    avoider_weight_bound,
    format_layout,
    matrix_to_visibility,
    parse_layout,
    sweep_edges,
    sweep_edges_oracle,
    witness_is_exact,
)
from .render import layout_svg

__version__ = "0.1.0"
