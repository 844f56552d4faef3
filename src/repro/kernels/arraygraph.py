"""CSR-style array adjacency for :class:`~repro.mcm.graphlib.RatioGraph`.

:class:`ArrayGraph` is the substrate of the numpy Howard kernel, which
serves ``throughput(method="hsdf")``.  It freezes one strongly connected
ratio graph (a nontrivial SCC of an HSDF cycle-ratio graph) into flat
arrays:

* ``nodes`` / ``edges`` keep the original node labels and
  :class:`~repro.mcm.graphlib.RatioEdge` objects in insertion order, so
  a cycle found by index arithmetic maps straight back to exact edges
  (and from there to provenance witness arcs).
* ``src`` / ``dst`` are int64 node indices per edge, ``transits`` the
  int64 token counts.
* Edge weights are Fractions in the reference graph; here they are
  scaled by ``scale`` — the LCM of all weight denominators — into the
  integers ``weight_ints`` and mirrored as the float64 array
  ``weights``.  Construction guards ``(n+1) * max|weight|`` against
  :data:`~repro.kernels.backend.MAX_EXACT_FLOAT_SUM` so every
  dynamic-programming sum of at most ``n`` scaled weights is an exactly
  representable float64; oversized weights raise
  :class:`~repro.kernels.backend.NumericalGuardError` and the caller
  falls back to the exact kernel.
* Two CSR index layers: ``in_order``/``in_indptr`` group edge indices
  by target node (the certificate's per-node max over incoming
  relaxations via ``np.maximum.reduceat``) and ``out_order``/
  ``out_indptr`` group them by source node (Howard's per-node policy
  improvement).

Because the graph is strongly connected with at least one edge, every
node has both an incoming and an outgoing edge — so every CSR segment
is non-empty and ``reduceat`` needs no empty-segment fix-up.  The
constructor enforces this invariant.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import List, Sequence

from repro.kernels.backend import (
    MAX_EXACT_FLOAT_SUM,
    NumericalGuardError,
    require_numpy,
)
from repro.mcm.graphlib import RatioEdge, RatioGraph

__all__ = ["ArrayGraph"]


def _lcm(a: int, b: int) -> int:
    return a // gcd(a, b) * b


class ArrayGraph:
    """Flat-array view of one strongly connected :class:`RatioGraph`."""

    __slots__ = (
        "nodes",
        "node_index",
        "edges",
        "src",
        "dst",
        "transits",
        "weight_ints",
        "weights",
        "scale",
        "in_order",
        "in_indptr",
        "out_order",
        "out_indptr",
    )

    def __init__(self, nodes: Sequence[object], edges: Sequence[RatioEdge]):
        np = require_numpy()
        if not edges:
            raise ValueError("ArrayGraph requires at least one edge")
        self.nodes: List[object] = list(nodes)
        self.node_index = {node: index for index, node in enumerate(self.nodes)}
        self.edges: List[RatioEdge] = list(edges)
        n = len(self.nodes)
        m = len(self.edges)

        self.src = np.fromiter(
            (self.node_index[edge.source] for edge in self.edges),
            dtype=np.int64, count=m)
        self.dst = np.fromiter(
            (self.node_index[edge.target] for edge in self.edges),
            dtype=np.int64, count=m)
        self.transits = np.fromiter(
            (edge.transit for edge in self.edges), dtype=np.int64, count=m)

        scale = 1
        for edge in self.edges:
            scale = _lcm(scale, Fraction(edge.weight).denominator)
        self.scale = scale
        self.weight_ints = [
            int(Fraction(edge.weight) * scale) for edge in self.edges
        ]
        largest = max(abs(w) for w in self.weight_ints)
        if (n + 1) * largest >= MAX_EXACT_FLOAT_SUM:
            raise NumericalGuardError(
                f"scaled weights too large for exact float64 sums: "
                f"({n} + 1) * {largest} >= 2**53"
            )
        self.weights = np.array(self.weight_ints, dtype=np.float64)

        self.in_order = np.argsort(self.dst, kind="stable").astype(np.int64)
        self.in_indptr = self._indptr(np, self.dst[self.in_order], n)
        self.out_order = np.argsort(self.src, kind="stable").astype(np.int64)
        self.out_indptr = self._indptr(np, self.src[self.out_order], n)
        in_degree = np.diff(self.in_indptr)
        out_degree = np.diff(self.out_indptr)
        if not ((in_degree > 0).all() and (out_degree > 0).all()):
            raise ValueError(
                "ArrayGraph requires every node to have incoming and "
                "outgoing edges (build it from a nontrivial SCC)"
            )

    @staticmethod
    def _indptr(np, sorted_keys, n: int):
        return np.searchsorted(
            sorted_keys, np.arange(n + 1, dtype=np.int64), side="left"
        ).astype(np.int64)

    @classmethod
    def from_ratio_graph(cls, graph: RatioGraph) -> "ArrayGraph":
        """Freeze ``graph`` (typically one nontrivial SCC) into arrays."""
        return cls(graph.nodes, graph.edges)

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def exact_weight(self, edge_index: int) -> Fraction:
        """The unscaled exact weight of edge ``edge_index``."""
        return Fraction(self.weight_ints[edge_index], self.scale)
