"""Hypothesis strategies for dataflow structures.

Graphs are built correct-by-construction (consistent, live, token-bound)
so properties quantify over *meaningful* inputs; shrinking still works
because everything derives from plain integer draws.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from hypothesis import strategies as st

from repro.sdf.graph import SDFGraph


@st.composite
def live_hsdf_graphs(draw, max_actors: int = 6, max_extra: int = 6, max_time: int = 9):
    """A live, token-bound homogeneous graph (self-loops everywhere,
    zero-token edges follow a drawn topological order)."""
    n = draw(st.integers(min_value=1, max_value=max_actors))
    order = draw(st.permutations(list(range(n))))
    position = {a: i for i, a in enumerate(order)}

    g = SDFGraph("hyp-hsdf")
    for i in range(n):
        g.add_actor(f"h{i}", draw(st.integers(min_value=0, max_value=max_time)))
        g.add_edge(f"h{i}", f"h{i}", tokens=1, name=f"self_h{i}")
    for a, b in zip(order, order[1:]):
        g.add_edge(f"h{a}", f"h{b}")
    if n > 1:
        g.add_edge(
            f"h{order[-1]}",
            f"h{order[0]}",
            tokens=draw(st.integers(min_value=1, max_value=3)),
        )
    extra = draw(st.integers(min_value=0, max_value=max_extra))
    for _ in range(extra):
        if n < 2:
            break
        a = draw(st.integers(min_value=0, max_value=n - 1))
        b = draw(st.integers(min_value=0, max_value=n - 1))
        if a == b:
            continue
        backward = position[a] >= position[b]
        tokens = draw(st.integers(min_value=1, max_value=3)) if backward else 0
        g.add_edge(f"h{a}", f"h{b}", tokens=tokens)
    return g


@st.composite
def consistent_connected_sdf_graphs(
    draw,
    max_actors: int = 5,
    max_repetition: int = 4,
    max_extra_edges: int = 3,
    max_time: int = 8,
    min_time: int = 0,
    max_extra_tokens: int = 0,
    name: str = "hyp-sdf",
):
    """A consistent, connected, live, token-bound multirate SDF graph.

    Construction (correct by construction, so every draw is analysable
    by all three throughput back-ends):

    * draw a repetition vector γ with entries in ``1..max_repetition``
      and wire a pipeline in a drawn actor order with the minimal
      consistent rates ``p = γ(b)/gcd``, ``c = γ(a)/gcd`` — rates are
      therefore bounded by ``max_repetition``;
    * close the pipeline with a feedback edge carrying one iteration of
      tokens (liveness) and give every actor a one-token self-loop
      (token-boundedness / no auto-concurrency);
    * sprinkle ``0..max_extra_edges`` extra consistent edges (backward
      ones carry a full iteration of tokens);
    * when ``max_extra_tokens > 0``, add a drawn surplus of initial
      tokens on the feedback edge (slack never hurts liveness).

    Pass ``min_time=1`` to exclude zero-execution-time cycles (λ = 0:
    throughput degenerates and the state-space simulator rejects them).

    Shrinking stays effective because everything derives from plain
    integer draws.
    """
    n = draw(st.integers(min_value=1, max_value=max_actors))
    order = draw(st.permutations(list(range(n))))
    position = {a: i for i, a in enumerate(order)}
    gamma = [draw(st.integers(min_value=1, max_value=max_repetition)) for _ in range(n)]

    g = SDFGraph(name)
    for i in range(n):
        g.add_actor(f"a{i}", draw(st.integers(min_value=min_time, max_value=max_time)))
        g.add_edge(f"a{i}", f"a{i}", tokens=1, name=f"self_a{i}")

    def add(a: int, b: int, backward: bool, surplus: int = 0) -> None:
        div = gcd(gamma[a], gamma[b])
        p, c = gamma[b] // div, gamma[a] // div
        tokens = gamma[b] * c + surplus if backward else 0
        g.add_edge(f"a{a}", f"a{b}", production=p, consumption=c, tokens=tokens)

    for a, b in zip(order, order[1:]):
        add(a, b, backward=False)
    if n > 1:
        surplus = (
            draw(st.integers(min_value=0, max_value=max_extra_tokens))
            if max_extra_tokens > 0
            else 0
        )
        add(order[-1], order[0], backward=True, surplus=surplus)
    extra = draw(st.integers(min_value=0, max_value=max_extra_edges))
    for _ in range(extra):
        if n < 2:
            break
        a = draw(st.integers(min_value=0, max_value=n - 1))
        b = draw(st.integers(min_value=0, max_value=n - 1))
        if a == b:
            continue
        add(a, b, backward=position[a] >= position[b])
    return g


@st.composite
def live_sdf_graphs(
    draw,
    max_actors: int = 5,
    max_repetition: int = 4,
    max_extra: int = 3,
    max_time: int = 8,
):
    """A consistent, live, token-bound multirate graph: random pipeline
    with minimal consistent rates, feedback with one iteration of
    tokens, self-loops, plus a few consistent extra edges."""
    return draw(
        consistent_connected_sdf_graphs(
            max_actors=max_actors,
            max_repetition=max_repetition,
            max_extra_edges=max_extra,
            max_time=max_time,
        )
    )


#: Self-loop reshapes drawn by :func:`symbolic_stress_graphs` (``keep``
#: repeated so most actors keep the common one-token loop).
_LOOP_SHAPES = ("keep", "keep", "tokens", "parallel", "rate2", "drop",
                "unbalanced")


@st.composite
def symbolic_stress_graphs(draw, max_actors: int = 4, max_repetition: int = 4):
    """A :func:`consistent_connected_sdf_graphs` draw reshaped to reach
    every path of the symbolic engines.

    Each actor may get a fractional execution time, and its one-token
    self-loop is kept or drawn into another shape: ``d > 1`` tokens, a
    parallel second self-loop, rates ``p = c = 2``, dropped (the actor
    becomes auto-concurrent; only when it has another in-edge), or
    ``p ≠ c`` — which makes the graph inconsistent, so the engines must
    agree on the error instead.
    """
    g = draw(consistent_connected_sdf_graphs(
        max_actors=max_actors, max_repetition=max_repetition,
        max_extra_edges=3, max_extra_tokens=2, name="hyp-symbolic"))
    for actor in g.actor_names:
        if draw(st.booleans()):
            g.set_execution_time(actor, Fraction(
                draw(st.integers(min_value=0, max_value=12)),
                draw(st.integers(min_value=1, max_value=4))))
        loop = f"self_{actor}"
        shape = draw(st.sampled_from(_LOOP_SHAPES))
        if shape == "tokens":
            g.set_tokens(loop, draw(st.integers(min_value=2, max_value=4)))
        elif shape == "parallel":
            g.add_edge(actor, actor, name=f"{loop}_2",
                       tokens=draw(st.integers(min_value=1, max_value=3)))
        elif shape == "rate2":
            g.set_rates(loop, 2, 2)
            g.set_tokens(loop, draw(st.integers(min_value=2, max_value=5)))
        elif shape == "drop" and len(g.in_edges(actor)) > 1:
            g.remove_edge(loop)
        elif shape == "unbalanced":
            production = draw(st.integers(min_value=1, max_value=3))
            consumption = draw(st.integers(min_value=1, max_value=3)
                               .filter(lambda c: c != production))
            g.set_rates(loop, production, consumption)
            g.set_tokens(loop, consumption
                         + draw(st.integers(min_value=0, max_value=3)))
    return g


@st.composite
def shuffled_clones(draw, graph: SDFGraph):
    """A structurally identical copy of ``graph`` rebuilt in a drawn
    actor/edge insertion order (same fingerprint, different memory
    layout) — for cache-coherence properties."""
    clone = SDFGraph(graph.name + "-shuffled")
    for actor_name in draw(st.permutations(graph.actor_names)):
        clone.add_actor(actor_name, graph.actor(actor_name).execution_time)
    for edge in draw(st.permutations(graph.edges)):
        clone.add_edge(
            edge.source,
            edge.target,
            edge.production,
            edge.consumption,
            edge.tokens,
            name=edge.name,
        )
    return clone
