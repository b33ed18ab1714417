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
``run_tasks(tasks)[i] == tasks[i]()`` for every backend and every
``jobs`` value — results come back in submission order, and tasks are
constructed so that *nothing about scheduling leaks into them*:

* every random task carries its own pre-spawned child
  :class:`~numpy.random.SeedSequence`, derived in the parent under the
  reserved ``_SWEEP_SPAWN_KEY`` contract **per corner, not per worker**
  (see :meth:`repro.study.spec.SweepSpec.seeds`);
* a task is a shard of corners that share one *group* — the state the
  shard builds once: an immunity cell, or a transient
  :class:`~repro.cells.characterize.CellGrid` whose cases it integrates
  on the whole grid's analytical time base
  (:func:`repro.cells.characterize.characterize_cases`), so a shard's
  waveforms are bit-identical to the full-batch run.

Sharding has one rule, :func:`shard_groups`: each group's corners, in
order, in at most ``jobs`` contiguous, balanced chunks
(:func:`shard_indices`) — purely a function of the groups and ``jobs``,
never of measured runtimes — so the same request always produces the
same task list.  Each shard is a picklable zero-argument
:func:`functools.partial` of a module-level function.

Both corner drivers, sweeps and the circuit study, run their store
misses as :meth:`DeltaPlan.shards` → one :func:`run_tasks` map →
:meth:`DeltaPlan.merge`.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from typing import (AbstractSet, Any, Callable, Dict, Hashable, List,
                    Mapping, Optional, Sequence, Tuple, TypeVar)

from ..errors import RuntimeLayerError

#: The executor backends :func:`run_tasks` understands.
BACKENDS = ("serial", "thread", "process")

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
    tasks: Sequence[Callable[[], _Result]],
    jobs: Optional[int] = None,
    backend: Optional[str] = None,
) -> List[_Result]:
    """Call every zero-argument task on the selected backend, in order.

    ``results[i] == tasks[i]()`` regardless of backend, worker count or
    completion order; the process backend requires every task to be
    picklable (a module-level function or a partial of one).

    Each result is collected in submission order under its own
    ``scheduler.task`` span, labelled with the function the task runs.
    Workers never see the tracer (it is thread-local, and process
    workers share nothing), so traced and untraced execution run
    identical tasks.
    """
    # Imported here, not at module top: obs itself obtains its locks from
    # this module, so the dependency must stay one-way at import time.
    from ..obs import trace as obs_trace

    jobs = resolve_jobs(jobs)
    backend = resolve_backend(backend, jobs)
    if jobs <= 1 or len(tasks) <= 1:
        backend = "serial"
    executor = (nullcontext() if backend == "serial" else
                (ProcessPoolExecutor if backend == "process"
                 else ThreadPoolExecutor)(max_workers=min(jobs, len(tasks))))
    with obs_trace.span("scheduler.run_tasks", backend=backend, jobs=jobs,
                        tasks=len(tasks)), executor as pool:
        # One zero-argument wait per task: serially it runs the task, on
        # a pool it blocks on the task's future.
        waits = [task if pool is None else pool.submit(task).result
                 for task in tasks]
        results = []
        for index, (task, wait) in enumerate(zip(tasks, waits)):
            # A partial task names the function it runs.
            with obs_trace.span("scheduler.task", index=index,
                                call=getattr(task, "func", task).__name__):
                results.append(wait())
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


def shard_groups(groups: Sequence[Hashable],
                 jobs: Optional[int]) -> List[Tuple[int, ...]]:
    """Shard the positions of ``groups`` so that no shard spans two
    groups: each group's positions, in order, in at most ``jobs``
    contiguous, balanced chunks (:func:`shard_indices`), the groups in
    first-seen order.

    >>> shard_groups(["a", "b", "a", "a", "b"], 2)
    [(0, 2), (3,), (1,), (4,)]
    >>> shard_groups(["a", "b", "a", "a", "b"], 1)
    [(0, 2, 3), (1, 4)]
    """
    members: Dict[Hashable, List[int]] = {}
    for position, group in enumerate(groups):
        members.setdefault(group, []).append(position)
    jobs = resolve_jobs(jobs)
    return [tuple(positions[start:stop])
            for positions in members.values()
            for start, stop in shard_indices(len(positions), jobs)]


@dataclass(frozen=True)
class DeltaPlan:
    """Which corners of a sweep the store already holds, and which must
    run: the scheduler's diff of a requested grid against the
    content-addressed corner store.

    ``keys[i]`` is corner ``i``'s fingerprint; ``hit_indices`` /
    ``miss_indices`` partition ``range(len(keys))`` in corner order.  The
    plan is pure data, deterministic in ``(keys, cached)`` alone;
    :meth:`shards` cuts its misses into tasks and :meth:`merge` stores
    and merges their outputs.
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

    def shards(self, groups: Sequence[Hashable],
               jobs: Optional[int]) -> List[Tuple[int, ...]]:
        """The misses' corner indices under :func:`shard_groups` of their
        entries of ``groups`` (one per corner): no shard spans two groups.

        >>> plan = plan_delta(["a0", "b0", "a1", "a2", "b1"], {"a1"})
        >>> plan.shards(["a", "b", "a", "a", "b"], 2)
        [(0,), (3,), (1,), (4,)]
        """
        misses = self.miss_indices
        return [tuple(misses[position] for position in shard)
                for shard in shard_groups([groups[i] for i in misses], jobs)]

    def merge(self, cached: Mapping[str, Any],
              shards: Sequence[Sequence[int]],
              outputs: Sequence[Sequence[Any]], store,
              tags: Sequence[str]) -> List[Any]:
        """One payload per corner, in key order: hits from ``cached``,
        misses from ``outputs[k]``, the payloads of ``shards[k]``.  Each
        miss is written to ``store`` (``None`` for none) in corner order,
        tagged with its corner's entry of ``tags``."""
        payloads: List[Any] = [None] * self.total
        for index in self.hit_indices:
            payloads[index] = cached[self.keys[index]]
        for shard, chunk in zip(shards, outputs, strict=True):
            for index, payload in zip(shard, chunk, strict=True):
                payloads[index] = payload
        if store is not None:
            for index in self.miss_indices:
                store.put_corner(self.keys[index], payloads[index],
                                 engine=tags[index])
        return payloads


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


__all__ = [
    "BACKENDS",
    "DeltaPlan",
    "make_lock",
    "plan_delta",
    "resolve_backend",
    "resolve_jobs",
    "run_tasks",
    "shard_groups",
    "shard_indices",
]
