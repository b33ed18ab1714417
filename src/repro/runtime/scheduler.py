"""The deterministic parallel scheduler.

One pool implementation for the whole repository: every parallel code
path — ``run_sweep_study(jobs=...)``, ``run_circuit_study(jobs=...)``,
the ``--jobs`` CLI flag — lowers onto :func:`run_tasks`, an *ordered*
map over one of three backends:

========  ===========================  =====================================
backend   executor                     when
========  ===========================  =====================================
serial    in-process ``for`` loop      ``jobs<=1`` (the reference path)
process   ``ProcessPoolExecutor``      default for ``jobs>1`` (CPU-bound
                                       NumPy work; fork-cheap on Linux)
thread    ``ThreadPoolExecutor``       explicit opt-in (cheap tasks, tests,
                                       single-core containers)
========  ===========================  =====================================

Determinism contract
--------------------
``run_tasks(fn, tasks)[i] == fn(tasks[i])`` for every backend and every
``jobs`` value — results come back in submission order, and tasks are
constructed so that *nothing about scheduling leaks into them*:

* every random task carries its own pre-spawned child
  :class:`~numpy.random.SeedSequence`, derived in the parent under the
  reserved ``_SWEEP_SPAWN_KEY`` contract **per corner, not per worker**
  (see :meth:`repro.study.spec.SweepSpec.seeds`);
* a transient shard is ``(grid, case indices)`` over one
  :class:`~repro.cells.characterize.CellGrid`: it integrates only its
  cases, on the whole grid's analytical time base
  (:func:`repro.cells.characterize.characterize_cases`), so a shard's
  waveforms are bit-identical to the full-batch run.

Sharding (:func:`shard_indices`) is contiguous and balanced, purely a
function of ``(n, shards)`` — never of measured runtimes — so the same
request always produces the same task list.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass
from typing import (AbstractSet, Any, Callable, List, Mapping, Optional,
                    Sequence, Tuple, TypeVar)

from ..errors import RuntimeLayerError

#: The executor backends :func:`run_tasks` understands.
BACKENDS = ("serial", "thread", "process")

_Task = TypeVar("_Task")
_Result = TypeVar("_Result")


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalise a ``jobs`` request: ``None``/``0``/``1`` mean serial,
    any negative value means "one per CPU".

    >>> resolve_jobs(None), resolve_jobs(1), resolve_jobs(4)
    (1, 1, 4)
    >>> resolve_jobs(-1) >= 1
    True
    """
    if jobs is None or jobs == 0:
        return 1
    if jobs < 0:
        return os.cpu_count() or 1
    return int(jobs)


def resolve_backend(backend: Optional[str], jobs: int) -> str:
    """Pick the executor: explicit ``backend`` wins, otherwise serial for
    one job and a process pool for more."""
    if backend is None:
        return "process" if jobs > 1 else "serial"
    if backend not in BACKENDS:
        raise RuntimeLayerError(
            f"Unknown scheduler backend {backend!r}; use one of {BACKENDS}"
        )
    return backend


def run_tasks(
    fn: Callable[[_Task], _Result],
    tasks: Sequence[_Task],
    jobs: Optional[int] = None,
    backend: Optional[str] = None,
) -> List[_Result]:
    """Ordered map of ``fn`` over ``tasks`` on the selected backend.

    ``results[i] == fn(tasks[i])`` regardless of backend, worker count or
    completion order; the process backend requires ``fn`` and every task
    to be picklable (module-level functions, frozen dataclasses).
    """
    # Imported here, not at module top: obs itself obtains its locks from
    # this module, so the dependency must stay one-way at import time.
    from ..obs import trace as obs_trace

    jobs = resolve_jobs(jobs)
    backend = resolve_backend(backend, jobs)
    tracer = obs_trace.current_tracer()
    if backend == "serial" or jobs <= 1 or len(tasks) <= 1:
        if tracer is None:
            return [fn(task) for task in tasks]
        with obs_trace.span("scheduler.run_tasks", backend="serial",
                            jobs=jobs, tasks=len(tasks)):
            results = []
            for index, task in enumerate(tasks):
                with obs_trace.span("scheduler.task", index=index):
                    results.append(fn(task))
            return results
    executor_type = (ProcessPoolExecutor if backend == "process"
                     else ThreadPoolExecutor)
    with executor_type(max_workers=min(jobs, len(tasks))) as pool:
        if tracer is None:
            return list(pool.map(fn, tasks))
        # Traced path: submit each task individually and collect results
        # in submission order — equivalent to ``pool.map`` (same ordered
        # results, same worker fan-out), but each wait is attributable
        # to one task span.  Workers never see the tracer (it is
        # thread-local, and process workers share nothing), so traced
        # and untraced execution feed ``fn`` identical inputs.
        with obs_trace.span("scheduler.run_tasks", backend=backend,
                            jobs=jobs, tasks=len(tasks)):
            futures = [pool.submit(fn, task) for task in tasks]
            results = []
            for index, future in enumerate(futures):
                with obs_trace.span("scheduler.task", index=index):
                    results.append(future.result())
            return results


def make_lock() -> threading.Lock:
    """A mutual-exclusion lock for callers that need one.

    This module and ``service/jobs.py`` are the only places allowed to
    construct concurrency primitives (the RPL009 contract, a sibling of
    the RPL001 single-pool rule): everything else — e.g. the result
    cache's counter persistence — obtains its lock here, so a grep for
    thread machinery always lands on the sanctioned modules.
    """
    return threading.Lock()


def shard_indices(n: int, shards: int) -> List[Tuple[int, int]]:
    """Split ``range(n)`` into at most ``shards`` contiguous, balanced
    ``(start, stop)`` slices — deterministic in ``(n, shards)`` alone.

    >>> shard_indices(5, 2)
    [(0, 3), (3, 5)]
    >>> shard_indices(2, 8)
    [(0, 1), (1, 2)]
    >>> shard_indices(0, 3)
    []
    """
    if n <= 0:
        return []
    shards = max(1, min(shards, n))
    base, extra = divmod(n, shards)
    slices = []
    start = 0
    for index in range(shards):
        stop = start + base + (1 if index < extra else 0)
        slices.append((start, stop))
        start = stop
    return slices


@dataclass(frozen=True)
class DeltaPlan:
    """Which corners of a sweep the store already holds, and which must
    run: the scheduler's diff of a requested grid against the
    content-addressed corner store.

    ``keys[i]`` is corner ``i``'s fingerprint; ``hit_indices`` /
    ``miss_indices`` partition ``range(len(keys))`` in corner order.  The
    plan is pure data, deterministic in ``(keys, cached)`` alone;
    :func:`execute_corners` runs its misses and merges.
    """

    keys: Tuple[str, ...]
    hit_indices: Tuple[int, ...]
    miss_indices: Tuple[int, ...]

    @property
    def total(self) -> int:
        return len(self.keys)

    @property
    def hits(self) -> int:
        return len(self.hit_indices)

    @property
    def misses(self) -> int:
        return len(self.miss_indices)

    @property
    def status(self) -> str:
        """The provenance ``cache`` annotation this plan earns: ``"hit"``
        (everything served from the store), ``"miss"`` (nothing was), or
        ``"partial:<hits>/<total>"``."""
        if self.total and self.misses == 0:
            return "hit"
        if self.hits == 0:
            return "miss"
        return f"partial:{self.hits}/{self.total}"


def plan_delta(keys: Sequence[str], cached: AbstractSet[str]) -> DeltaPlan:
    """Partition per-corner fingerprints into store hits and misses.

    >>> plan = plan_delta(["aa", "bb", "cc"], {"bb"})
    >>> plan.hit_indices, plan.miss_indices, plan.status
    ((1,), (0, 2), 'partial:1/3')
    """
    hit_indices = tuple(i for i, key in enumerate(keys) if key in cached)
    miss_indices = tuple(i for i, key in enumerate(keys) if key not in cached)
    return DeltaPlan(keys=tuple(keys), hit_indices=hit_indices,
                     miss_indices=miss_indices)


def execute_corners(plan: DeltaPlan, cached: Mapping[str, Any],
                    run: Callable[[Tuple[int, ...]], Sequence[Any]],
                    store, engines: Sequence[str]) -> List[Any]:
    """Execute a :class:`DeltaPlan`: one payload per corner, in key order.

    ``run(plan.miss_indices)`` is called exactly once and returns one
    payload per miss, in that order; hits come from ``cached`` (keyed by
    fingerprint).  Each fresh payload is written to ``store`` (a
    :class:`~repro.runtime.cache.ResultCache`, or ``None`` for none)
    under its key, tagged with its corner's entry of ``engines``.
    """
    payloads: List[Any] = [None] * plan.total
    for index in plan.hit_indices:
        payloads[index] = cached[plan.keys[index]]
    for index, payload in zip(plan.miss_indices, run(plan.miss_indices)):
        payloads[index] = payload
        if store is not None:
            store.put_corner(plan.keys[index], payload,
                             engine=engines[index])
    return payloads


#: Shards per worker in :func:`plan_shards`, so stragglers balance.
SHARDS_PER_WORKER = 4


def plan_shards(n_tasks: int, jobs: Optional[int]) -> List[Tuple[int, int]]:
    """The shard plan for ``n_tasks`` units of work on ``jobs`` workers:
    contiguous chunks, :data:`SHARDS_PER_WORKER` shards per worker so
    stragglers balance, one shard per task when tasks are scarce."""
    jobs = resolve_jobs(jobs)
    if jobs <= 1:
        return shard_indices(n_tasks, 1)
    return shard_indices(n_tasks, jobs * SHARDS_PER_WORKER)


__all__ = [
    "BACKENDS",
    "DeltaPlan",
    "execute_corners",
    "make_lock",
    "plan_delta",
    "plan_shards",
    "resolve_backend",
    "resolve_jobs",
    "run_tasks",
    "shard_indices",
]
