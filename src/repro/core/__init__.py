"""The paper's contributions: abstraction and the symbolic HSDF conversion.

* :mod:`repro.core.abstraction` / :mod:`repro.core.unfolding` /
  :mod:`repro.core.conservativity` — the graph reduction of Sections 4-5
  (Definitions 3-5, Propositions 1-4, Theorem 1);
* :mod:`repro.core.symbolic` / :mod:`repro.core.hsdf_conversion` — the
  novel SDF-to-HSDF conversion of Section 6 (Algorithm 1, Figure 4);
* :mod:`repro.core.pruning` — redundant parallel-edge removal (Section 4.2);
* :mod:`repro.core.grouping` — automatic discovery of valid abstractions
  for (almost) regular graphs.
"""

from repro.core.abstraction import Abstraction, abstract_graph
from repro.core.unfolding import unfold
from repro.core.conservativity import dominates, verify_abstraction
from repro.core.symbolic import symbolic_iteration, SymbolicIteration, TokenId
from repro.core.hsdf_conversion import convert_to_hsdf, sdf_to_maxplus_matrix, HsdfConversion
from repro.core.pruning import prune_redundant_edges
from repro.core.grouping import discover_abstraction

__all__ = [
    "Abstraction",
    "abstract_graph",
    "unfold",
    "dominates",
    "verify_abstraction",
    "symbolic_iteration",
    "SymbolicIteration",
    "TokenId",
    "convert_to_hsdf",
    "sdf_to_maxplus_matrix",
    "HsdfConversion",
    "prune_redundant_edges",
    "discover_abstraction",
]
