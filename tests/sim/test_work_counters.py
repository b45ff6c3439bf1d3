"""Host-independent work counts of the fast backend.

Wall time is too noisy to gate in tier-1, but how many cycles the kernel
visits, how many component ticks it dispatches, how many cycles it jumps
over and how many candidate cycles the bank automaton probes are pure
functions of the code.  A regression in the event-to-event advance or in
the automaton's stepping changes these numbers on any host.
"""

from dataclasses import replace

import pytest

from repro.api import simulate
from repro.kernels import ALIGNMENTS, build_trace, kernel_by_name
from repro.params import ENV_SIM_MODE, SystemParams
from repro.sim.stats import WorkCounters

ALIGNED = next(a for a in ALIGNMENTS if a.name == "aligned")

#: (kernel, stride, system) -> (visits, dispatches, skipped, probes) at
#: 1024 elements, aligned bases, default configuration.
PINNED = {
    ("copy", 1, "pva-sdram"): (160, 352, 1029, 3568),
    ("copy", 1, "pva-sram"): (160, 352, 1029, 2448),
    ("tridiag", 16, "pva-sdram"): (2264, 4743, 2291, 4553),
    ("tridiag", 16, "pva-sram"): (1897, 4015, 2264, 1888),
    ("vaxpy", 19, "pva-sdram"): (349, 797, 2000, 8317),
    ("vaxpy", 19, "pva-sram"): (352, 800, 1997, 3552),
}


@pytest.fixture(autouse=True)
def _no_env_override(monkeypatch):
    monkeypatch.delenv(ENV_SIM_MODE, raising=False)


def _trace(kernel, stride, params):
    return build_trace(
        kernel_by_name(kernel),
        stride=stride,
        alignment=ALIGNED,
        elements=1024,
        params=params,
    )


@pytest.mark.parametrize("kernel, stride, system", sorted(PINNED))
def test_fast_backend_work_is_pinned(kernel, stride, system):
    params = SystemParams()
    result = simulate(_trace(kernel, stride, params), params, system=system)
    assert result.backend == "soa"
    assert result.work == WorkCounters(*PINNED[kernel, stride, system])


def test_reference_visits_every_cycle_and_probes_nothing():
    params = SystemParams(sim_mode="tick")
    result = simulate(_trace("copy", 1, params), params, system="pva-sdram")
    work = result.work
    assert work.skipped == 0 and work.probes == 0
    # The loop visits every cycle up to its exit (the run's reported
    # cycles may add a final bus transfer after it).
    assert 0 < work.visits <= result.cycles


def test_work_is_not_part_of_result_equality():
    params = SystemParams()
    trace = _trace("vaxpy", 19, params)
    fast = simulate(trace, params, system="pva-sdram")
    reference = simulate(
        trace, replace(params, sim_mode="tick"), system="pva-sdram"
    )
    assert fast.work != reference.work
    assert fast == reference


def test_serial_baselines_report_kernel_work():
    params = SystemParams()
    result = simulate(_trace("copy", 1, params), params, system="cacheline-serial")
    assert result.work.probes == 0
    assert result.work.visits + result.work.skipped <= result.cycles
