"""Scalability sweeps: the quadratic-size law of the compact conversion.

Two empirical laws from the paper made visible:

* the compact conversion grows with the *square of the token count* and
  not with Σγ (Section 6's whole point) — swept by growing a pipeline's
  feedback token count;
* the classical expansion (and any analysis on it) grows with Σγ —
  swept by scaling the rates of a two-actor multirate graph, which
  leaves the compact conversion's size untouched.
"""

from repro.core.hsdf_conversion import convert_to_hsdf
from repro.graphs.synthetic import homogeneous_pipeline
from repro.sdf.graph import SDFGraph
from repro.sdf.repetition import iteration_length


def multirate_pair(scale: int) -> SDFGraph:
    """γ = (scale, 1): Σγ grows linearly with ``scale``; exactly two
    initial tokens (the self-loops) regardless of scale — the mp3-style
    shape where the compact conversion's advantage is largest."""
    g = SDFGraph(f"pair-{scale}")
    g.add_actor("producer", 1)
    g.add_actor("consumer", scale)
    g.add_edge("producer", "producer", tokens=1, name="self_p")
    g.add_edge("consumer", "consumer", tokens=1, name="self_c")
    g.add_edge("producer", "consumer", production=1, consumption=scale)
    return g


def test_token_count_sweep(report):
    report("Compact conversion size vs token count (pipeline, growing feedback)")
    report(f"{'tokens N':>9} {'actors':>7} {'N(N+2)':>7} {'edges':>6}")
    for tokens in (1, 2, 4, 8, 16):
        g = homogeneous_pipeline(4, execution_times=[1, 2, 3, 4], tokens=tokens)
        conv = convert_to_hsdf(g)
        n = len(conv.token_ids)
        assert conv.within_paper_bounds()
        report(f"{n:>9} {conv.actor_count:>7} {n * (n + 2):>7} {conv.edge_count:>6}")
    report.save("scalability_tokens")


def test_rate_sweep_leaves_compact_size_unchanged(report):
    report("Σγ grows with rates; the compact conversion does not")
    report(f"{'scale':>6} {'sum gamma':>10} {'traditional':>11} {'compact':>8}")
    sizes = set()
    for scale in (2, 8, 32, 128, 512):
        g = multirate_pair(scale)
        conv = convert_to_hsdf(g)
        report(
            f"{scale:>6} {iteration_length(g):>10} {iteration_length(g):>11} "
            f"{conv.actor_count:>8}"
        )
        sizes.add(conv.actor_count)
        assert conv.within_paper_bounds()
    # Token structure is scale-independent, so the compact size is one
    # constant while the traditional expansion grows linearly.
    assert len(sizes) == 1
    report.save("scalability_rates")
