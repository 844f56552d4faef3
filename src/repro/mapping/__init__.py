"""Multiprocessor binding: the design-flow context of the paper.

The paper's motivation (and references [3, 13, 16]) is predictable
multiprocessor system design: applications *and* platform are modelled
as one timed SDF graph whose analysis yields guaranteed throughput.
This subpackage supplies that substrate:

* :func:`repro.mapping.binding.bind` — turn a processor assignment with
  static-order schedules into a *binding-aware* graph by adding resource
  serialisation edges (more dependencies ⇒ conservative, by the same
  Proposition-1 monotonicity the paper's abstraction uses);
* :func:`repro.mapping.binding.mapped_throughput` /
  :func:`processor_utilisation` — guaranteed rates and per-processor
  load under a mapping;
* :mod:`repro.mapping.explore` — a small design-space exploration loop
  (greedy load balancing over a processor-count sweep), the kind of
  automated flow the reductions are meant to accelerate.
"""

from repro.mapping.binding import (
    Mapping,
    bind,
    mapped_throughput,
    processor_utilisation,
)
from repro.mapping.explore import greedy_load_balance, sweep_processor_counts

__all__ = [
    "Mapping",
    "bind",
    "mapped_throughput",
    "processor_utilisation",
    "greedy_load_balance",
    "sweep_processor_counts",
]
