"""Tests for the experiment grid runner."""

import pytest

from repro.api import available_systems
from repro.engine import ExperimentEngine, ExperimentPoint, KernelTraceSpec
from repro.experiments.grid import (
    EVAL_KERNELS,
    EVAL_STRIDES,
    run_grid,
    run_point,
)
from repro.kernels import ALIGNMENTS
from repro.params import SystemParams


@pytest.fixture(scope="module")
def small_grid():
    return run_grid(
        kernels=("copy", "scale"),
        strides=(1, 16),
        alignments=ALIGNMENTS[:2],
        elements=128,
    )


class TestGridShape:
    def test_evaluation_constants(self):
        """The full grid matches the paper: 8 patterns x 6 strides x 5
        alignments = 240 points per system."""
        assert len(EVAL_KERNELS) == 8
        assert EVAL_STRIDES == (1, 2, 4, 8, 16, 19)
        assert len(ALIGNMENTS) == 5
        assert len(EVAL_KERNELS) * len(EVAL_STRIDES) * len(ALIGNMENTS) == 240

    def test_all_four_systems_registered(self):
        assert set(available_systems()) == {
            "pva-sdram",
            "pva-sram",
            "cacheline-serial",
            "gathering-serial",
        }

    def test_grid_contains_every_point(self, small_grid):
        assert len(small_grid.cycles) == 2 * 2 * 2
        point = small_grid.point("copy", 1, "aligned")
        assert set(point) == set(available_systems())
        assert all(v > 0 for v in point.values())

    def test_min_max_over_alignments(self, small_grid):
        values = small_grid.over_alignments("copy", 16, "pva-sdram")
        assert small_grid.min_cycles("copy", 16, "pva-sdram") == min(values)
        assert small_grid.max_cycles("copy", 16, "pva-sdram") == max(values)

    def test_normalized_baseline_is_one(self, small_grid):
        assert small_grid.normalized("copy", 1, "pva-sdram") == 1.0

    def test_serial_systems_alignment_free(self, small_grid):
        for system in ("cacheline-serial", "gathering-serial"):
            values = small_grid.over_alignments("scale", 16, system)
            assert len(set(values)) == 1


class TestRunPoint:
    def test_subset_of_systems(self):
        out = run_point(
            "copy",
            stride=4,
            alignment=ALIGNMENTS[0],
            elements=64,
            systems=("pva-sdram", "cacheline-serial"),
        )
        assert set(out) == {"pva-sdram", "cacheline-serial"}

    def test_point_matches_grid(self):
        grid = run_grid(
            kernels=("copy",),
            strides=(4,),
            alignments=ALIGNMENTS[:1],
            elements=64,
        )
        point = run_point(
            "copy", stride=4, alignment=ALIGNMENTS[0], elements=64
        )
        assert point == grid.point("copy", 4, "aligned")


class _RecordingEngine:
    """An engine stub that records the points ``run_grid`` submits and
    runs them through a real inline engine."""

    def __init__(self):
        self.points = []
        self.engine = ExperimentEngine()

    def run(self, points):
        self.points.extend(points)
        return self.engine.run(points)


class TestPointOrder:
    KERNELS = ("copy", "scale", "vaxpy")
    STRIDES = (1, 19)
    ALIGNMENTS = ALIGNMENTS[:2]
    SYSTEMS = ("pva-sdram", "cacheline-serial")

    def _grid(self, engine):
        return run_grid(
            kernels=self.KERNELS,
            strides=self.STRIDES,
            alignments=self.ALIGNMENTS,
            elements=128,
            systems=self.SYSTEMS,
            engine=engine,
        )

    def test_submitted_system_stride_alignment_kernel(self):
        recorder = _RecordingEngine()
        self._grid(recorder)
        submitted = [
            (p.system, p.trace.stride, p.trace.alignment, p.trace.kernel)
            for p in recorder.points
        ]
        canonical = self.ALIGNMENTS[0].name
        expected = [
            (
                system,
                stride,
                canonical if system == "cacheline-serial" else alignment.name,
                kernel,
            )
            for system in self.SYSTEMS
            for stride in self.STRIDES
            for alignment in self.ALIGNMENTS
            for kernel in self.KERNELS
        ]
        assert submitted == expected

    def test_cycles_match_kernel_major_submission(self):
        grid = self._grid(ExperimentEngine())
        canonical = self.ALIGNMENTS[0].name
        slots = [
            (kernel, stride, alignment.name, system)
            for kernel in self.KERNELS
            for stride in self.STRIDES
            for alignment in self.ALIGNMENTS
            for system in self.SYSTEMS
        ]
        points = [
            ExperimentPoint(
                system=system,
                trace=KernelTraceSpec(
                    kernel=kernel,
                    stride=stride,
                    alignment=(
                        canonical if system == "cacheline-serial" else name
                    ),
                    elements=128,
                ),
                params=SystemParams(),
            )
            for kernel, stride, name, system in slots
        ]
        expected = {}
        for (kernel, stride, name, system), cycles in zip(
            slots, ExperimentEngine().run(points)
        ):
            expected.setdefault((kernel, stride, name), {})[system] = cycles
        # Same numbers in the same (kernel-major) insertion order.
        assert list(grid.cycles.items()) == list(expected.items())
