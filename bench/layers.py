"""Per-layer recording: wrappers bound at the names the callers use.

The benchmark measures layers from its own files.  It rebinds the public
function each layer exposes -- at the module attribute the *caller*
reads, which for a ``from x import f`` is the importing module's copy --
with a wrapper that records calls, busy time (inclusive), self time
(minus the time of wrapped calls nested inside it) and work counts.

The recorder keeps its own per-thread call stacks instead of using the
program's thread-local active tracer, so calls made on the service's
handler and job-worker threads are captured too.  A layer's ``busy`` and
``calls`` count only outermost calls of that layer on a thread, so a
layer function that calls another (``sweep_fingerprint`` ->
``study_fingerprint``) is not counted twice; self times partition the
wall time of the wrapped calls and never double count.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple


class LayerCoverageError(RuntimeError):
    """A wrapper recorded calls where it must not, or none where it must:
    it is bound at a name the caller does not use, or a layer predicted
    idle did work."""


def _kernel_work(bound, result) -> Dict[str, float]:
    # Imported here: run.py loads this module before it checks that the
    # program is importable.
    from repro.circuit.simulator import stability_substep

    args = bound.arguments
    batch = len(args["cases"])
    stop, step = args["stop_time"], args["time_step"]
    substeps = round(stop / stability_substep(stop, step))
    return {"batch": batch, "substeps": substeps,
            "corner_steps": batch * substeps}


def _immunity_work(bound, result) -> Dict[str, float]:
    return {"trials": result.trials}


def _tasks_work(bound, result) -> Dict[str, float]:
    return {"tasks": len(bound.arguments["tasks"])}


def _get_work(bound, result) -> Dict[str, float]:
    return {"lookups": 1, "hits": int(result is not None)}


def _get_corners_work(bound, result) -> Dict[str, float]:
    return {"keys": len(bound.arguments["keys"]), "hits": len(result)}


@dataclass(frozen=True)
class Site:
    """One wrapped binding: ``target`` is ``module:attr`` or
    ``module:Class.attr``; ``main`` names the workloads on which it must
    record at least one call."""

    target: str
    layer: str
    main: Tuple[str, ...]
    work: Optional[Callable[[Any, Any], Dict[str, float]]] = None
    intervals: bool = False


CIRCUIT, SWEEP, SERVICE = "circuit_cold", "sweep_cold", "service_warm"

SITES: Tuple[Site, ...] = (
    # circuit/simulator.py, the kernel: characterize holds its own
    # from-import, which is the name every characterisation call uses.
    Site("repro.cells.characterize:run_transient_batch", "kernel",
         (CIRCUIT, SWEEP), _kernel_work),
    # Called through the module attribute by the circuit study and
    # imported at call time by the sweep shards.
    Site("repro.immunity.montecarlo:run_immunity_trials", "immunity",
         (CIRCUIT, SWEEP, SERVICE), _immunity_work),
    Site("repro.cells.characterize:measured_timing_models", "characterize",
         (CIRCUIT,)),
    Site("repro.cells.characterize:characterize_sweep", "characterize",
         (CIRCUIT,)),
    Site("repro.cells.characterize:characterize_cases", "characterize",
         (SWEEP,)),
    Site("repro.circuit_study.study:build_library", "library", (CIRCUIT,)),
    Site("repro.circuit_study.study:map_netlist", "techmap", (CIRCUIT,)),
    Site("repro.circuit_study.study:analyse_netlist", "sta", (CIRCUIT,)),
    Site("repro.runtime.cache:ResultCache.get", "cache.get",
         (SWEEP, SERVICE), _get_work),
    Site("repro.runtime.cache:ResultCache.put", "cache.put",
         (SWEEP, SERVICE)),
    Site("repro.runtime.cache:ResultCache.get_corners", "cache.get_corners",
         (SWEEP, SERVICE), _get_corners_work),
    Site("repro.runtime.cache:ResultCache.put_corner", "cache.put_corner",
         (SWEEP, SERVICE)),
    Site("repro.circuit_study.study:corner_fingerprint", "fingerprint",
         (CIRCUIT,)),
    Site("repro.runtime.fingerprint:corner_fingerprint", "fingerprint",
         (SWEEP, SERVICE)),
    Site("repro.runtime.fingerprint:sweep_fingerprint", "fingerprint",
         (SWEEP, SERVICE)),
    Site("repro.runtime.fingerprint:study_fingerprint", "fingerprint",
         (SWEEP, SERVICE)),
    Site("repro.runtime.manifest:study_fingerprint", "fingerprint",
         (SERVICE,)),
    Site("repro.runtime.manifest:sweep_fingerprint", "fingerprint",
         (SERVICE,)),
    Site("repro.circuit_study.study:run_tasks", "scheduler", (CIRCUIT,),
         _tasks_work),
    Site("repro.runtime.scheduler:run_tasks", "scheduler", (SWEEP, SERVICE),
         _tasks_work),
    Site("repro.circuit_study.study:plan_delta", "plan", (CIRCUIT,)),
    Site("repro.runtime.scheduler:plan_delta", "plan", (SWEEP, SERVICE)),
    Site("repro.study.sweeps:run_sweep_study", "sweep", (SWEEP, SERVICE)),
    Site("repro.circuit_study.study:run_circuit_study", "circuit_study",
         (CIRCUIT,)),
    Site("repro.service.server:_Handler.do_POST", "http", (SERVICE,),
         intervals=True),
    Site("repro.service.server:_Handler.do_GET", "http", (SERVICE,),
         intervals=True),
)

#: Layers predicted to do no work on a workload.
IDLE: Dict[str, Tuple[str, ...]] = {
    CIRCUIT: ("cache.get", "cache.put", "cache.get_corners",
              "cache.put_corner", "http"),
    SWEEP: ("http",),
    SERVICE: ("kernel",),
}


@dataclass
class SiteStats:
    calls: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0
    work: Dict[str, float] = field(default_factory=dict)


@dataclass
class _Frame:
    layer: str
    start: float
    child_s: float = 0.0


def _resolve(target: str) -> Tuple[Any, str]:
    module_name, _, path = target.partition(":")
    owner: Any = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    if attr not in vars(owner):
        raise LayerCoverageError(f"{target} does not exist")
    return owner, attr


class Recorder:
    """Aggregates wrapped calls from every thread; :meth:`install` binds
    the wrappers and :meth:`uninstall` restores the original bindings."""

    def __init__(self, sites: Tuple[Site, ...] = SITES):
        self.sites = sites
        self._lock = threading.Lock()
        self._local = threading.local()
        self.stats: Dict[str, SiteStats] = {s.target: SiteStats()
                                            for s in sites}
        self.layer_calls: Dict[str, int] = {}
        self.layer_busy_s: Dict[str, float] = {}
        #: ``(wall_start, wall_end)`` of calls on ``intervals`` sites.
        self.intervals: List[Tuple[float, float]] = []
        self._saved: List[Tuple[Any, str, Any]] = []

    def _stack(self) -> List[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, site: Site, original: Callable) -> Callable:
        signature = inspect.signature(original)
        stats = self.stats[site.target]

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            outermost = all(frame.layer != site.layer for frame in stack)
            frame = _Frame(site.layer, time.perf_counter())
            wall_start = time.time() if site.intervals else 0.0
            stack.append(frame)
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - frame.start
                wall_end = time.time() if site.intervals else 0.0
                stack.pop()
                if stack:
                    stack[-1].child_s += elapsed
            work = (site.work(signature.bind(*args, **kwargs), result)
                    if site.work is not None else {})
            with self._lock:
                stats.calls += 1
                stats.busy_s += elapsed
                stats.self_s += elapsed - frame.child_s
                for name, value in work.items():
                    stats.work[name] = stats.work.get(name, 0) + value
                if outermost:
                    self.layer_calls[site.layer] = (
                        self.layer_calls.get(site.layer, 0) + 1)
                    self.layer_busy_s[site.layer] = (
                        self.layer_busy_s.get(site.layer, 0.0) + elapsed)
                if site.intervals:
                    self.intervals.append((wall_start, wall_end))
            return result

        return wrapper

    def install(self) -> None:
        for site in self.sites:
            owner, attr = _resolve(site.target)
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(site, original))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- queries -----------------------------------------------------------

    def site_total(self, layer: str, key: str) -> float:
        """Sum of ``calls``/``busy_s``/``self_s`` or a work counter over
        every site of ``layer``."""
        total = 0.0
        for site in self.sites:
            if site.layer != layer:
                continue
            stats = self.stats[site.target]
            total += (getattr(stats, key) if key in ("calls", "busy_s",
                                                     "self_s")
                      else stats.work.get(key, 0))
        return total

    def check_coverage(self, workload: str) -> None:
        """Fail loudly unless every site fired on its main workloads and
        every layer predicted idle stayed idle."""
        problems = []
        for site in self.sites:
            calls = self.stats[site.target].calls
            if workload in site.main and calls == 0:
                problems.append(
                    f"{site.target} recorded no call on {workload}: the "
                    "wrapper is not bound at the name the caller uses")
        for layer in IDLE.get(workload, ()):
            calls = self.site_total(layer, "calls")
            if calls:
                problems.append(f"layer {layer!r} was predicted idle on "
                                f"{workload} but recorded {calls:g} calls")
        if problems:
            raise LayerCoverageError("; ".join(problems))


def _ratio(numerator: float, denominator: float, scale: float = 1.0) -> float:
    return numerator / denominator * scale if denominator else 0.0


def layer_metrics(recorder: Recorder, passes: int) -> Dict[str, float]:
    """The per-layer metrics of one traced run, per pass of the workload
    (per-call ratios are over the whole traced run)."""
    r = recorder
    per = 1.0 / passes

    def total(layer, key):
        return r.site_total(layer, key)

    kernel_busy = r.layer_busy_s.get("kernel", 0.0)
    substeps = total("kernel", "substeps")
    corner_steps = total("kernel", "corner_steps")
    kernel_calls = total("kernel", "calls")
    immunity_busy = r.layer_busy_s.get("immunity", 0.0)
    trials = total("immunity", "trials")
    keys = total("cache.get_corners", "keys")
    reads_busy = total("cache.get_corners", "busy_s")
    writes = total("cache.put_corner", "calls")
    writes_busy = total("cache.put_corner", "busy_s")
    lookups = total("cache.get", "lookups") + keys
    hits = total("cache.get", "hits") + total("cache.get_corners", "hits")
    return {
        "kernel.calls": kernel_calls * per,
        "kernel.busy_s": kernel_busy * per,
        "kernel.substeps": substeps * per,
        "kernel.corner_steps": corner_steps * per,
        "kernel.mean_batch": _ratio(total("kernel", "batch"), kernel_calls),
        "kernel.ns_per_substep": _ratio(kernel_busy, substeps, 1e9),
        "kernel.ns_per_corner_step": _ratio(kernel_busy, corner_steps, 1e9),
        "immunity.calls": total("immunity", "calls") * per,
        "immunity.busy_s": immunity_busy * per,
        "immunity.trials": trials * per,
        "immunity.ns_per_trial": _ratio(immunity_busy, trials, 1e9),
        "characterize.self_s": total("characterize", "self_s") * per,
        "library.busy_s": r.layer_busy_s.get("library", 0.0) * per,
        "techmap.busy_s": r.layer_busy_s.get("techmap", 0.0) * per,
        "sta.busy_s": r.layer_busy_s.get("sta", 0.0) * per,
        "cache.get.busy_s": total("cache.get", "busy_s") * per,
        "cache.put.busy_s": total("cache.put", "busy_s") * per,
        "cache.get_corners.keys": keys * per,
        "cache.get_corners.busy_s": reads_busy * per,
        "cache.put_corner.calls": writes * per,
        "cache.put_corner.busy_s": writes_busy * per,
        "cache.us_per_corner_read": _ratio(reads_busy, keys, 1e6),
        "cache.us_per_corner_write": _ratio(writes_busy, writes, 1e6),
        "cache.hit_ratio": _ratio(hits, lookups),
        "fingerprint.calls": r.layer_calls.get("fingerprint", 0) * per,
        "fingerprint.busy_s": r.layer_busy_s.get("fingerprint", 0.0) * per,
        "scheduler.tasks": total("scheduler", "tasks") * per,
        "scheduler.self_s": total("scheduler", "self_s") * per,
        "plan.busy_s": r.layer_busy_s.get("plan", 0.0) * per,
        "sweep.self_s": total("sweep", "self_s") * per,
        "circuit_study.self_s": total("circuit_study", "self_s") * per,
    }
