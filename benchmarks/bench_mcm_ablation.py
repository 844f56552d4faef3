"""Experiment E9: the two MCM engines the library runs.

The analysis back-end runs one exact engine per job (the family
surveyed in the paper's reference [5], Dasdan-Irani-Gupta): Karp for
the eigenvalue of an iteration matrix and Howard for the cycle ratio of
an HSDF.  This bench checks and times them on the instances that
actually arise in this library: the precedence graphs of the Table-1
iteration matrices, where both engines apply, and the compact HSDFs of
the same applications, where Howard's cycle ratio must equal Karp's
eigenvalue of the matrix the HSDF realises.
"""

import pytest

from repro.analysis.throughput import hsdf_cycle_ratio_graph
from repro.core.hsdf_conversion import convert_to_hsdf
from repro.graphs import TABLE1_CASES
from repro.maxplus.spectral import precedence_graph
from repro.mcm import howard_mcr, karp_mcm

#: The instances: compact-HSDF cycle-ratio graphs per application.
INSTANCES = {}
MATRICES = {}
for _case in TABLE1_CASES:
    _conv = convert_to_hsdf(_case.build())
    INSTANCES[_case.name] = hsdf_cycle_ratio_graph(_conv.graph)
    MATRICES[_case.name] = precedence_graph(_conv.matrix)

MEAN_SOLVERS = {"karp": karp_mcm, "howard": howard_mcr}


def test_solver_agreement(report):
    report("Cross-route agreement: Howard on the compact HSDF, Karp on its matrix")
    report(f"{'case':<24} {'howard':>10} {'karp':>10}")
    for name, graph in INSTANCES.items():
        ratio = howard_mcr(graph).value
        mean = karp_mcm(MATRICES[name]).value
        assert ratio == mean
        report(f"{name:<24} {str(ratio):>10} {str(mean):>10}")
    report.save("mcm_agreement")


def test_mean_solver_agreement(report):
    report("MCM solver agreement on the iteration-matrix precedence graphs")
    for name, graph in MATRICES.items():
        values = {label: solver(graph).value for label, solver in MEAN_SOLVERS.items()}
        assert len(set(values.values())) == 1
        report(f"{name:<24} λ = {values['karp']}")
    report.save("mcm_mean_agreement")


@pytest.mark.parametrize("case", TABLE1_CASES, ids=lambda c: c.name)
def test_ratio_solver_runtime(benchmark, case):
    benchmark(howard_mcr, INSTANCES[case.name])


@pytest.mark.parametrize("case", TABLE1_CASES, ids=lambda c: c.name)
@pytest.mark.parametrize("solver", sorted(MEAN_SOLVERS), ids=str)
def test_mean_solver_runtime(benchmark, solver, case):
    graph = MATRICES[case.name]
    benchmark(MEAN_SOLVERS[solver], graph)
