"""Regenerate ``table1_reference.json``: the exact cycle time and the
compact-HSDF size of every Table-1 graph.

Usage, from the repository root::

    python3 perfbench/pin_table1.py

Each cycle time is computed twice, by the default symbolic path and by
traditional HSDF expansion with the exact Howard solver; a value the two
disagree on is never pinned.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from repro import convert_to_hsdf, repetition_vector, throughput  # noqa: E402
from repro.graphs import TABLE1_CASES  # noqa: E402


def pin(case) -> dict:
    symbolic = throughput(case.build(), provenance=False).cycle_time
    classical = throughput(case.build(), method="hsdf", kernel="exact",
                           provenance=False).cycle_time
    if symbolic != classical:
        raise SystemExit(f"{case.name}: symbolic {symbolic} != hsdf {classical}")
    graph = case.build()
    conversion = convert_to_hsdf(graph)
    return {
        "index": case.index,
        "name": case.name,
        "cycle_time": str(symbolic),
        "sigma_gamma": sum(repetition_vector(graph).values()),
        "matrix_order": len(conversion.token_ids),
        "hsdf_actors": conversion.actor_count,
        "hsdf_tokens": conversion.token_count,
        "hsdf_edges": conversion.edge_count,
    }


def main() -> None:
    rows = [pin(case) for case in TABLE1_CASES]
    (HERE / "table1_reference.json").write_text(
        json.dumps({"cases": rows}, indent=2) + "\n")


if __name__ == "__main__":
    main()
