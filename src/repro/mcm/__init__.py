"""Maximum cycle mean (MCM) and maximum cycle ratio (MCR) solvers.

Throughput of an HSDF graph is the inverse of its maximum cycle ratio
(total execution time around a cycle divided by the number of initial
tokens on it), and the eigenvalue of a max-plus matrix is the maximum
cycle *mean* of its precedence graph.  These solvers are the paper's
analysis back-end; reference [5] of the paper (Dasdan, Irani, Gupta,
DAC'99) surveys the algorithm family implemented here.

One exact solver (over rational weights) per job:

* :func:`repro.mcm.karp.karp_mcm` — Karp's dynamic program, O(nm),
  transit times ≡ 1: the iteration matrix's eigenvalue
  (``kernel="exact"`` and the numpy kernel's fallback);
* :func:`repro.mcm.howard.howard_mcr` — Howard's policy iteration,
  fast in practice, general transit times: the cycle ratio of the
  classical HSDF expansion (``method="hsdf"``).
"""

from repro.mcm.graphlib import RatioGraph, RatioEdge, CycleRatioResult, ZeroTransitCycleError
from repro.mcm.karp import karp_mcm
from repro.mcm.howard import howard_mcr

__all__ = [
    "RatioGraph",
    "RatioEdge",
    "CycleRatioResult",
    "ZeroTransitCycleError",
    "karp_mcm",
    "howard_mcr",
]
