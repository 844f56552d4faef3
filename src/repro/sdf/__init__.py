"""Timed synchronous dataflow graphs and their classical analyses.

This subpackage is the substrate the paper builds on: the SDF graph model
itself (Definitions 1 and 2 of the paper), repetition vectors and
consistency (Lee & Messerschmitt, 1987), admissible sequential schedules,
self-timed execution with state-space throughput analysis (Ghamarian et
al., ACSD 2006 — reference [8]), and the *traditional* SDF-to-HSDF
conversion (references [11, 15]) that Section 6 of the paper improves on.
"""

from repro.sdf.graph import Actor, Edge, SDFGraph
from repro.sdf.repetition import repetition_vector, is_consistent, iteration_length
from repro.sdf.schedule import block_schedule, sequential_schedule, is_live
from repro.sdf.simulation import SelfTimedSimulation, simulation_throughput
from repro.sdf.transform import traditional_hsdf
from repro.sdf.compose import disjoint_union, feedback, renamed, serial
from repro.sdf.dot import to_dot
from repro.sdf.gantt import gantt
from repro.sdf.validation import validate_graph

__all__ = [
    "Actor",
    "Edge",
    "SDFGraph",
    "repetition_vector",
    "is_consistent",
    "iteration_length",
    "block_schedule",
    "sequential_schedule",
    "is_live",
    "SelfTimedSimulation",
    "simulation_throughput",
    "traditional_hsdf",
    "disjoint_union",
    "feedback",
    "renamed",
    "serial",
    "to_dot",
    "gantt",
    "validate_graph",
]
