"""Outside-in instrumentation of the simulator, installed by the benchmark.

Nothing under ``src/`` knows about it: every hook is a wrapper set on a
public class or module attribute from here and removed by ``uninstall``.

* :class:`RunObserver` (every run) wraps ``SimKernel.run`` once per
  simulation to record which backend stepped it, and the engine's
  ``build_system`` so each ``RunResult`` reaches the correctness gate.
  It costs one extra call per simulated point.
* :class:`Tracer` (traced runs only) times and counts every call into
  each layer: the kernel loop, every registered component's
  ``tick``/``next_event_cycle``/``account``, schedule expansion, trace
  construction and the engine's batch loop.
"""

from __future__ import annotations

import time
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

_clock = time.perf_counter_ns

#: Component method names the kernel loop calls.
COMPONENT_METHODS = ("tick", "next_event_cycle", "account")


def component_layer(name: str) -> str:
    """The simulator layer a kernel component belongs to, by its
    registered name."""
    if name == "front-end":
        return "front_end"
    if name == "vector-bus":
        return "bus"
    if name == "completion":
        return "completion"
    if name == "banks" or name.startswith("bank-"):
        return "bank"
    return "serial"


def backend_label(kernel) -> str:
    """Which backend stepped a kernel run, from the types of its
    registered components: the bank-stepping component type(s), their
    count, and whether the run loop time-skipped."""
    kinds = Counter(
        type(component).__name__
        for component in kernel.components
        if component_layer(component.name) in ("bank", "serial")
    )
    stepped = "+".join(f"{name}x{count}" for name, count in sorted(kinds.items()))
    return f"{stepped}/{'skip' if kernel.time_skip else 'tick'}"


class _Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._undo: List[Tuple[object, str, object]] = []

    def set(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def undo(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)


class RunObserver:
    """Records the backend of every kernel run and captures every
    ``RunResult`` the experiment engine produces."""

    def __init__(self):
        self.last_backend: Optional[str] = None
        #: (system name, trace, RunResult, backend) per engine execution,
        #: consumed by the grid recorder as each point lands.
        self.captured: List[tuple] = []
        self._patches = _Patches()

    def install(self) -> "RunObserver":
        import repro.engine.engine as engine_module
        from repro.sim.kernel import SimKernel

        observer = self
        original_run = SimKernel.run

        def run(kernel, done):
            observer.last_backend = backend_label(kernel)
            return original_run(kernel, done)

        original_build = engine_module.build_system

        def build_system(name, params=None):
            system = original_build(name, params)
            system_run = system.run

            def captured_run(trace, *args, **kwargs):
                result = system_run(trace, *args, **kwargs)
                observer.captured.append((name, trace, result, observer.last_backend))
                return result

            system.run = captured_run
            return system

        self._patches.set(SimKernel, "run", run)
        self._patches.set(engine_module, "build_system", build_system)
        return self

    def uninstall(self) -> None:
        self._patches.undo()


class Tracer:
    """Per-layer wall time and call counts, keyed ``<layer>.<method>``.

    ``spans[key] = [nanoseconds, calls]``.  Component methods are
    wrapped per instance at ``SimKernel.register`` time, so every
    backend's components are covered without knowing their classes.
    """

    def __init__(self):
        self.spans: Dict[str, List[int]] = {}
        #: Nanoseconds of component calls made from inside kernel runs,
        #: subtracted from ``kernel.run`` to give the loop's self time.
        self.kernel_children_ns = 0
        self._patches = _Patches()

    def _slot(self, key: str) -> List[int]:
        return self.spans.setdefault(key, [0, 0])

    def _timed(self, fn: Callable, key: str) -> Callable:
        slot = self._slot(key)

        def wrapper(*args, **kwargs):
            start = _clock()
            result = fn(*args, **kwargs)
            slot[0] += _clock() - start
            slot[1] += 1
            return result

        return wrapper

    def _component_ns(self) -> int:
        return sum(
            slot[0]
            for key, slot in self.spans.items()
            if key.rsplit(".", 1)[-1] in COMPONENT_METHODS
        )

    def install(self) -> "Tracer":
        import repro.engine.spec as spec_module
        import repro.pva.bank_controller as bank_controller
        import repro.pva.soa as soa
        import repro.workloads.random_traces as random_traces
        from repro.engine import ExperimentEngine
        from repro.sim.kernel import SimKernel

        tracer = self
        patches = self._patches
        original_register = SimKernel.register

        def register(kernel, component):
            registered = original_register(kernel, component)
            layer = component_layer(component.name)
            for method in COMPONENT_METHODS:
                bound = getattr(component, method)
                setattr(component, method, tracer._timed(bound, f"{layer}.{method}"))
            return registered

        timed_run = self._timed(SimKernel.run, "kernel.run")

        def run(kernel, done):
            before = tracer._component_ns()
            try:
                return timed_run(kernel, done)
            finally:
                tracer.kernel_children_ns += tracer._component_ns() - before

        patches.set(SimKernel, "register", register)
        patches.set(SimKernel, "run", run)
        for module in (bank_controller, soa):
            patches.set(module, "stride_schedule", self._timed(module.stride_schedule, "schedule.stride"))
            patches.set(module, "pairs_schedule", self._timed(module.pairs_schedule, "schedule.pairs"))
        patches.set(spec_module, "build_trace", self._timed(spec_module.build_trace, "kernels.build_trace"))
        patches.set(
            random_traces, "random_trace", self._timed(random_traces.random_trace, "kernels.random_trace")
        )
        patches.set(ExperimentEngine, "run", self._timed(ExperimentEngine.run, "engine.run"))
        return self

    def uninstall(self) -> None:
        self._patches.undo()
