"""Block-batched symbolic execution of one SDF iteration (Algorithm 1).

Array mirror of the exact walk in :mod:`repro.core.symbolic`.  The
schedule is a list of maximal runs ``(actor, k)``
(:func:`repro.sdf.schedule.block_schedule`); this engine executes each
run as a handful of array operations instead of ``k`` Python firings:

* **Channels** are FIFOs of ``(rows × N)`` float64 stamp blocks, ε being
  ``-inf``; the initial tokens are rows of one max-plus identity.
* **Ordinary in-edges.**  A run of ``k`` firings pops ``k·c`` rows,
  reshapes them to ``(k, c, N)`` and max-reduces over ``c``; the start
  stamps are the maximum across in-edges.  Each completion ``start + T``
  is pushed ``p`` times onto every out-edge.
* **The common self-loop** (``p = c = 1`` holding ``d`` tokens) makes
  firing ``i`` wait for firing ``i − d``: ``s_i = max(e_i, s_{i−d} + T)``.
  Per residue class mod ``d`` this is a prefix maximum, so with
  ``q = ⌊i/d⌋`` it is solved in closed form as
  ``q·T + maximum.accumulate(e − q·T)``.
* **Other self-loops** (parallel ones, ``p ≠ 1`` or ``c ≠ 1``) run in
  chunks of as many firings as their current tokens allow — the minimum
  in-run lag — each chunk one array step.

**Exactness is proven before the engine runs.**  Execution times are
scaled by the LCM ``L`` of their denominators, so every finite stamp is
an integer no larger than ``B = Σ_runs k·T(a)·L`` (the longest
dependency path of the executed firings; no firing occurs on it twice).
The closed form's intermediates lie in ``[−B, B]``.  When ``B`` is below
:data:`~repro.kernels.backend.MAX_EXACT_FLOAT_SUM` every float64 max and
add here is exact; otherwise :class:`NumericalGuardError` is raised
before any work and the caller uses the exact walk.  Results are decoded
back to ints (all execution times ints) or Fractions over ``L``, so
matrices and stamps equal the exact walk's.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from functools import partial
from math import isinf, lcm
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.core.symbolic import check_whole_iteration, not_admissible
from repro.kernels.backend import MAX_EXACT_FLOAT_SUM, NumericalGuardError
from repro.maxplus.algebra import EPSILON
from repro.sdf.graph import SDFGraph
from repro.sdf.schedule import run_limit

__all__ = ["block_walk"]


class _Fifo:
    """A channel: a FIFO of stamp blocks (views are never written to)."""

    __slots__ = ("blocks", "length")

    def __init__(self):
        self.blocks: deque = deque()
        self.length = 0

    def push(self, block) -> None:
        if len(block):
            self.blocks.append(block)
            self.length += len(block)

    def pop(self, n: int):
        """The first ``n`` rows (``n ≤ length``) as one block."""
        self.length -= n
        parts = []
        while n:
            head = self.blocks[0]
            if len(head) > n:
                parts.append(head[:n])
                self.blocks[0] = head[n:]
                break
            parts.append(self.blocks.popleft())
            n -= len(head)
        return parts[0] if len(parts) == 1 else np.concatenate(parts)

    def rows(self):
        return np.concatenate(self.blocks) if self.blocks else None


def _decode_rows(block, scale: int, integral: bool) -> List[tuple]:
    """Scaled float stamps → entry tuples (ε, int or Fraction)."""
    if block is None:
        return []
    if integral:
        return [tuple([EPSILON if isinf(x) else int(x) for x in row])
                for row in block.tolist()]
    return [tuple([EPSILON if isinf(x) else Fraction(int(x), scale)
                   for x in row])
            for row in block.tolist()]


def _reduce(block, consumption: int):
    """Per firing, the maximum of the ``consumption`` consecutive rows it
    consumed: the ``(k, c, N)`` reduction over ``c``."""
    if consumption == 1:
        return block
    return block.reshape(-1, consumption, block.shape[1]).max(axis=1)


def _chain(ext, fifo: _Fifo, count: int, time: float, size: int):
    """Start stamps of ``count`` firings behind one ``p = c = 1``
    self-loop: ``s_i = max(e_i, s_{i−d} + T)`` with the ``d`` tokens the
    loop holds standing in for ``s_{i−d} + T`` when ``i < d``."""
    lag = fifo.length
    held = min(count, lag)
    periods = -(-count // lag)
    stamps = np.empty((periods * lag, size))
    stamps[count:] = -np.inf
    shift = (np.arange(count) // lag * time)[:, None]
    if ext is None:
        stamps[:count] = -np.inf
    else:
        np.subtract(ext, shift, out=stamps[:count])
    # The first d firings (shift 0) take the tokens the loop holds.
    np.maximum(stamps[:held], fifo.pop(held), out=stamps[:held])
    if periods > 1:
        stamps = np.maximum.accumulate(
            stamps.reshape(periods, lag, size), axis=0
        ).reshape(periods * lag, size)
    return stamps[:count] + shift, held


def block_walk(graph: SDFGraph, runs: Sequence[Tuple[str, int]], size: int,
               deadline=None):
    """Execute the run schedule ``runs`` on ``size`` initial tokens.

    Returns the matrix rows (entry tuples in channel order), the start
    stamps of every run as ``(k × size)`` blocks, and the decoder that
    turns a block into entry tuples.  Raises :class:`NumericalGuardError`
    before any work when float64 cannot be proven exact (module
    docstring), and the exact walk's :class:`ValidationError` for an
    inadmissible or partial schedule.
    """
    actors = graph.actor_names
    # ints carry numerator/denominator too, so no Fraction is built here.
    times = graph.execution_times
    scale = lcm(1, *(t.denominator for t in times.values()))
    scaled = {a: t.numerator * (scale // t.denominator)
              for a, t in times.items()}
    bound = sum(count * scaled[actor] for actor, count in runs)
    if bound >= MAX_EXACT_FLOAT_SUM:
        raise NumericalGuardError(
            f"symbolic iteration: longest-path bound {bound} (execution "
            f"times scaled by {scale}) reaches 2**53; float64 stamps "
            "would not be exact"
        )
    integral = all(isinstance(t, int) for t in times.values())

    fifos = _initial_fifos(graph, size)
    # Per actor: in-edges as (fifo, consumption, self-loop gain or None,
    # name) in graph order, and out-edges as (fifo, production).
    inputs = {
        a: [(fifos[e.name], e.consumption,
             e.production - e.consumption if e.source == a else None, e.name)
            for e in graph.in_edges(a)]
        for a in actors
    }
    outputs = {
        a: [(fifos[e.name], e.production) for e in graph.out_edges(a)]
        for a in actors
    }

    starts = []
    total = sum(count for _, count in runs)
    progress = (
        deadline.checkpoint(
            "symbolic-iteration", {"firing": 0, "firings_total": total}
        )
        if deadline is not None
        else None
    )
    fired = 0
    for actor, count in runs:
        if deadline is not None:
            progress["firing"] = fired
            deadline.check_now()
        ins = inputs[actor]
        _check_admissible(actor, count, ins)
        time = float(scaled[actor])
        ext = None
        loops = []
        for fifo, consumption, gain, _ in ins:
            if gain is not None:
                loops.append((fifo, consumption, gain))
                continue
            block = _reduce(fifo.pop(count * consumption), consumption)
            ext = block if ext is None else np.maximum(ext, block)
        outs = outputs[actor]
        if not loops:
            stamps = ext
            _produce(outs, stamps + time)
        elif len(loops) == 1 and loops[0][1:] == (1, 0):
            loop = loops[0][0]
            stamps, held = _chain(ext, loop, count, time, size)
            finish = stamps + time
            loop.push(finish[count - held:])
            _produce([(f, p) for f, p in outs if f is not loop], finish)
        else:
            stamps = _chunked(ext, loops, outs, count, time, size, deadline)
        starts.append(stamps)
        fired += count

    check_whole_iteration(
        graph, {name: fifo.length for name, fifo in fifos.items()})
    decode = partial(_decode_rows, scale=scale, integral=integral)
    rows = [row for e in graph.edges for row in decode(fifos[e.name].rows())]
    return rows, starts, decode


def _initial_fifos(graph: SDFGraph, size: int) -> Dict[str, _Fifo]:
    """One FIFO per channel holding its initial tokens' unit stamps: the
    rows of one max-plus identity, in canonical token order."""
    identity = np.full((size, size), -np.inf)
    np.fill_diagonal(identity, 0.0)
    fifos: Dict[str, _Fifo] = {}
    offset = 0
    for edge in graph.edges:
        fifos[edge.name] = fifo = _Fifo()
        fifo.push(identity[offset:offset + edge.tokens])
        offset += edge.tokens
    return fifos


def _chunked(ext, loops, outs, count: int, time: float, size: int,
             deadline=None):
    """Start stamps of ``count`` firings behind general self-loops, in
    chunks no larger than the tokens each loop holds at the chunk start
    (every firing of a chunk then only consumes earlier chunks' output)."""
    chunks = []
    done = 0
    while done < count:
        if deadline is not None:
            deadline.check()
        step = count - done
        for fifo, consumption, _ in loops:
            step = min(step, fifo.length // consumption)
        stamps = None if ext is None else ext[done:done + step]
        for fifo, consumption, _ in loops:
            block = _reduce(fifo.pop(step * consumption), consumption)
            stamps = block if stamps is None else np.maximum(stamps, block)
        _produce(outs, stamps + time)
        chunks.append(stamps)
        done += step
    return chunks[0] if len(chunks) == 1 else np.concatenate(chunks)


def _produce(outs, finish) -> None:
    for fifo, production in outs:
        fifo.push(finish if production == 1
                  else np.repeat(finish, production, axis=0))


def _check_admissible(actor: str, count: int, ins) -> None:
    """Raise the exact walk's error when firing ``i < count`` of this
    run would find too few tokens: the first firing that fails, on the
    first of its in-edges (in graph order) that fails."""
    limits = []
    for fifo, consumption, gain, _ in ins:
        limit = run_limit(fifo.length, consumption, gain)
        limits.append(count if limit is None else limit)
    first = min(limits, default=count)
    if first >= count:
        return
    for (fifo, consumption, gain, name), limit in zip(ins, limits):
        if limit == first:
            held = fifo.length + first * (-consumption if gain is None else gain)
            raise not_admissible(actor, consumption, name, held)
