"""Benchmark and example graphs.

* :mod:`repro.graphs.examples` — the paper's illustrative figures
  (Section 4.1 / Figure 1, Figure 2, Figure 3);
* :mod:`repro.graphs.synthetic` — parameterised families: the regular
  prefetch graphs of Figure 1 and the remote-memory-access model of
  Figure 5 / Section 7;
* :mod:`repro.graphs.dsp` and :mod:`repro.graphs.multimedia` —
  reconstructions of the eight applications of Table 1 (see DESIGN.md
  for the substitution notes: the published repetition vectors are
  matched exactly, token placement follows SDF3 modelling conventions);
* :mod:`repro.graphs.random_sdf` — random consistent/live graph
  generators for property-based testing;
* :mod:`repro.graphs.registry` — the Table-1 case list used by the
  benchmark harness.
"""

from repro.graphs.examples import figure2_graph, figure3_graph, section41_example
from repro.graphs.synthetic import regular_prefetch, remote_memory_access, homogeneous_pipeline
from repro.graphs.dsp import modem, sample_rate_converter, satellite_receiver
from repro.graphs.multimedia import (
    h263_decoder,
    h263_encoder,
    mp3_decoder_block_parallel,
    mp3_decoder_granule_parallel,
    mp3_playback,
)
from repro.graphs.random_sdf import (
    random_consistent_sdf,
    random_live_hsdf,
    random_ratio_graph,
)
from repro.graphs.registry import TABLE1_CASES, Table1Case

__all__ = [
    "figure2_graph",
    "figure3_graph",
    "section41_example",
    "regular_prefetch",
    "remote_memory_access",
    "homogeneous_pipeline",
    "modem",
    "sample_rate_converter",
    "satellite_receiver",
    "h263_decoder",
    "h263_encoder",
    "mp3_decoder_block_parallel",
    "mp3_decoder_granule_parallel",
    "mp3_playback",
    "random_consistent_sdf",
    "random_live_hsdf",
    "random_ratio_graph",
    "TABLE1_CASES",
    "Table1Case",
]
