"""Tests of the benchmark harness itself (not of the simulator).

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import run  # noqa: E402
import stats  # noqa: E402
from instrument import RunObserver, Tracer  # noqa: E402
from make_golden import figure_mismatches  # noqa: E402


def _record(key, cycles=100, counts=(1, 2), ledger_ok=True, bound_ok=True):
    return {
        "key": key,
        "cycles": cycles,
        "counts": list(counts),
        "ledger_ok": ledger_ok,
        "bound_ok": bound_ok,
    }


GOLDEN = {"points": {"a": [100, [1, 2]], "b": [100, [1, 2]]}}


def test_matching_unit_has_no_failures():
    doc = {"failures": [], "records": [_record("a"), _record("b")]}
    assert run.check_unit(doc, GOLDEN, ["a", "b"]) == {}


@pytest.mark.parametrize(
    "record, reason",
    [
        (_record("b", cycles=101), "cycles 101 != golden 100"),
        (_record("b", counts=(1, 3)), "counts"),
        (_record("b", ledger_ok=False), "ledger"),
        (_record("b", bound_ok=False), "pva_lower_bound"),
        (_record("c"), "no golden entry"),
    ],
)
def test_golden_mismatch_counts_as_failure(record, reason):
    doc = {"failures": [], "records": [_record("a"), record]}
    failed = run.check_unit(doc, GOLDEN, ["a", "b"])
    assert reason in failed[record["key"]]


def test_raised_and_missing_points_count_as_failures():
    doc = {
        "failures": [{"key": "a", "error": "Traceback\nValueError: boom\n"}],
        "records": [],
    }
    failed = run.check_unit(doc, GOLDEN, ["a", "b"])
    assert failed == {"a": "raised: ValueError: boom", "b": "never simulated"}


def test_host_times_scale_by_speed_factor():
    unit = {
        "wall_s": 10.0,
        "speed_factor": 0.5,
        "rss_mb": 50.0,
        "pva": {"cycles": 1000, "seconds": 10.0},
        "records": [{"ms": 2.0}] * 200,
    }
    metrics = run.end_to_end_metrics([unit], [1.0], failed=0, attempted=200)
    assert metrics["wall_s"]["value"] == 5.0
    assert metrics["point_p95_ms"]["value"] == 1.0
    assert metrics["sim_cycles_per_s"]["value"] == 200.0
    assert metrics["setup_s"]["value"] == 0.5


def test_speed_probe_factor_is_reference_over_measured():
    from hostspeed import REFERENCE_SECONDS, SpeedProbe

    probe = SpeedProbe()
    probe.samples = [REFERENCE_SECONDS * 2] * 3
    assert probe.factor() == pytest.approx(0.5)


def test_failures_make_ok_frac_drop():
    unit = {
        "wall_s": 1.0,
        "speed_factor": 1.0,
        "rss_mb": 50.0,
        "pva": {"cycles": 10, "seconds": 1.0},
        "records": [{"ms": float(i)} for i in range(200)],
    }
    metrics = run.end_to_end_metrics([unit], [0.5], failed=2, attempted=200)
    assert metrics["ok_frac"]["value"] == pytest.approx(0.99)
    assert set(metrics) == set(run.END_TO_END_UNITS)


@pytest.mark.parametrize("name", run.ENV_OVERRIDES)
def test_env_override_is_refused(name):
    with pytest.raises(run.BenchmarkError, match=name):
        run.refuse_overrides({name: "soa"})
    run.refuse_overrides({})


@pytest.mark.parametrize("name", run.ENV_OVERRIDES)
def test_command_refuses_env_override_without_result(name):
    env = dict(os.environ, **{name: ""})
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", "paper-grid"],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert "refusing" in proc.stderr


def test_command_without_sources_fails_without_result(tmp_path):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", "paper-grid"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_percentile_needs_ten_samples_beyond():
    assert stats.samples_beyond(200, 95) == 10
    assert stats.percentile(list(range(200)), 95) == 189
    with pytest.raises(ValueError, match="9 beyond"):
        stats.percentile(list(range(199)), 95)
    with pytest.raises(ValueError):
        stats.percentile(list(range(19)), 50)
    assert stats.percentile(list(range(20)), 50) == 9


def test_highest_percentile_by_sample_count():
    assert stats.highest_percentile(19) is None
    assert stats.highest_percentile(20) == 50.0
    assert stats.highest_percentile(100) == 90.0
    assert stats.highest_percentile(576) == 95.0
    assert stats.highest_percentile(1000) == 99.0
    assert stats.highest_percentile(10_000) == 99.9


def test_benchmark_json_names_every_reported_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    fake = {
        "wall_s": 2.0,
        "speed_factor": 1.0,
        "bookkeeping_s": 0.0,
        "engine": None,
        "pva": {},
        "memo_entries": {"schedule": 0, "soa": 0, "pla": 0},
        "layers": {"spans": {}, "kernel_children_s": 0.0, "memo_hits": 0, "memo_misses": 0},
    }
    layer_metrics = run.per_layer_metrics(fake, {"wall_s": 1.0, "speed_factor": 1.0})
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: metric["unit"] for name, metric in layer_metrics.items()
    }


def test_paper_grid_golden_matches_committed_figures():
    golden = run.load_golden("paper-grid")
    assert len(golden["points"]) == 576
    assert figure_mismatches(golden, os.path.join(ROOT, "results")) == []


def _traced_slice():
    """Trace a small grid slice from cold memos; return call counts."""
    from repro.api import clear_caches
    from repro.experiments.grid import run_grid

    clear_caches()
    observer = RunObserver().install()
    tracer = Tracer().install()
    try:
        run_grid(kernels=("copy", "saxpy"), strides=(1, 16), elements=128)
    finally:
        tracer.uninstall()
        observer.uninstall()
    return {key: calls for key, (_ns, calls) in tracer.spans.items()}, observer


def test_traced_call_counts_repeat_exactly():
    first, observer = _traced_slice()
    second, _ = _traced_slice()
    assert first == second
    assert first["kernel.run"] == len(observer.captured)
    assert first["bank.tick"] > 0 and first["schedule.stride"] > 0
    assert all(backend for _name, _trace, _result, backend in observer.captured)


def test_instrumentation_uninstalls_cleanly():
    from repro.sim.kernel import SimKernel
    import repro.engine.engine as engine_module
    import repro.pva.bank_controller as bank_controller

    before = (SimKernel.run, SimKernel.register, engine_module.build_system,
              bank_controller.stride_schedule)
    _traced_slice()
    after = (SimKernel.run, SimKernel.register, engine_module.build_system,
             bank_controller.stride_schedule)
    assert before == after
