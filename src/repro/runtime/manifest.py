"""The batch/manifest runner: many studies, one cache, zero rework.

A *manifest* is a JSON list of study invocations::

    [
      {"study": "fig3", "params": {"unit_width": 6}},
      {"study": "fig2", "params": {"trials": 100, "seed": 7}},
      {"study": "sweep", "engine": "immunity", "mode": "grid",
       "axes": {"cnts_per_trial": [2, 4]},
       "params": {"trials": 100, "seed": 7}}
    ]

(the top level may also be an object whose only key is ``"studies"``).
Plain entries run through :func:`~repro.study.registry.run_study`;
``"study": "sweep"`` entries build a :class:`~repro.study.spec.SweepSpec`
from ``axes`` / ``mode`` and run through
:func:`~repro.study.sweeps.run_sweep_study` (``engine``, plus ``trials``
/ ``seed`` / fixed values inside ``params``; a deterministic engine
takes no ``trials``/``seed``).

:func:`load_entries` is the one parser of a manifest document, and
:meth:`ManifestEntry.from_mapping` resolves each entry once into the
call it makes: a study's keywords are checked against its runner
(:func:`~repro.study.registry.check_params`), and a sweep's engine,
axes and fixed values against the engine.  A bad entry fails when it
is parsed, before any entry of its manifest runs.  ``repro sweep`` and
``POST /jobs`` parse through the same two functions.

:func:`run_manifest` executes the list in order and deduplicates work
across entries by :mod:`~repro.runtime.fingerprint`: a repeated
invocation — identical study, parameters and seed, however many entries
apart — reuses the in-process result (``dedup``), and with a ``cache``
attached every computed result also lands in the content-addressed
store, so a re-run of the whole manifest (or any other manifest sharing
entries) is pure cache hits.  Sweep entries additionally dedup at
**corner** granularity through the persistent corner store: two sweep
entries whose grids merely *overlap* share the overlapping corners'
results, and the later entry reports ``partial:<hits>/<corners>`` while
executing only its genuinely new corners (see
:func:`~repro.study.sweeps.run_sweep_study`).  ``jobs``/``backend``
fan each parallelizable entry out through the runtime scheduler.
"""

from __future__ import annotations

import inspect
import json
import os
from dataclasses import dataclass, field
from typing import Any, ClassVar, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ..errors import RuntimeLayerError, StudyError
# The drivers are looked up on their modules when called, so a rebinding
# of ``run_study``/``run_sweep_study`` (a test spy, a benchmark's layer
# wrapper) is what runs.
from ..study import registry, sweeps
from ..study.results import Provenance, StudyResult
from ..study.spec import SweepSpec
from .cache import CacheLike, as_cache
from .fingerprint import study_fingerprint, sweep_fingerprint

ManifestSource = Union[str, os.PathLike,
                       Sequence[Union[Mapping[str, Any], "ManifestEntry"]],
                       Mapping[str, Any]]

#: ``run_sweep_study``'s own ``trials``/``seed`` defaults, read off its
#: signature so a sweep entry can never drift from the driver.
_SWEEP_DEFAULTS = {
    name: parameter.default
    for name, parameter in
    inspect.signature(sweeps.run_sweep_study).parameters.items()
    if name in ("trials", "seed")
}


@dataclass(frozen=True)
class ManifestEntry:
    """One parsed manifest line: the call it makes, resolved once by
    :meth:`from_mapping`.

    A study entry is ``run_study(study, **params)``, ``study`` being the
    canonical name.  A sweep entry (``study == "sweep"``) is
    ``run_sweep_study(spec, engine, trials, seed, **params)``: ``params``
    holds its fixed values, and ``trials``/``seed`` the driver's defaults
    unless the entry gave them.
    """

    study: str
    params: Dict[str, Any] = field(default_factory=dict)
    spec: Optional[SweepSpec] = None               # sweep entries only
    engine: Optional[str] = None
    trials: Optional[int] = None
    seed: Any = None

    @property
    def is_sweep(self) -> bool:
        return self.study == "sweep"

    def key(self) -> Tuple[str, str]:
        """``(canonical study name, fingerprint)`` — the exact key the
        cached execution path will use."""
        if self.is_sweep:
            return "sweep", sweep_fingerprint(self.spec, self.engine,
                                              self.trials, self.seed,
                                              self.params)
        return self.study, study_fingerprint(self.study, params=self.params)

    @property
    def fresh_entropy(self) -> bool:
        """An explicit ``"seed": null`` asks for fresh OS entropy — such an
        entry must neither dedup nor cache (mirrors the driver-level
        bypass)."""
        if self.is_sweep:
            return self.seed is None
        return "seed" in self.params and self.params["seed"] is None

    def run(self, cache, jobs: Optional[int],
            backend: Optional[str]) -> StudyResult:
        """Execute this entry (no dedup)."""
        if self.is_sweep:
            return sweeps.run_sweep_study(
                self.spec, engine=self.engine, trials=self.trials,
                seed=self.seed, jobs=jobs, backend=backend, cache=cache,
                **self.params,
            )
        # Forward the manifest-level execution settings only to runners
        # that take them (serial studies just run serially instead of
        # erroring the batch); the entry's own params win.
        accepted = registry.get_study(self.study).parameters()
        execution = {name: value for name, value in
                     (("jobs", jobs), ("backend", backend))
                     if value is not None and name in accepted}
        return registry.run_study(self.study, cache=cache,
                                  **{**execution, **self.params})

    @classmethod
    def from_mapping(cls, data: Mapping[str, Any],
                     index: int = 0) -> "ManifestEntry":
        """Parse manifest entry ``index`` into the call it makes.  A bad
        entry fails here, before any entry of its manifest runs: an
        unknown study or keyword, an unknown sweep engine, axis or fixed
        value, an axis both swept and fixed, or a ``seed``/``trials`` for
        a deterministic engine."""
        if not isinstance(data, Mapping):
            raise RuntimeLayerError(
                f"Manifest entry {index} must be an object, "
                f"got {type(data).__name__}"
            )
        study = data.get("study")
        if not isinstance(study, str) or not study:
            raise RuntimeLayerError(
                f"Manifest entry {index} needs a 'study' name"
            )
        known = {"study", "params", "engine", "axes", "mode"}
        unknown = sorted(set(data) - known)
        if unknown:
            raise RuntimeLayerError(
                f"Manifest entry {index} has unknown keys {unknown}; "
                f"allowed: {sorted(known)}"
            )
        params = data.get("params") or {}
        if not isinstance(params, Mapping):
            raise RuntimeLayerError(
                f"Manifest entry {index}: 'params' must be an object"
            )
        params = dict(params)
        if study != "sweep":
            if set(data) & {"axes", "engine", "mode"}:
                raise RuntimeLayerError(
                    f"Manifest entry {index}: 'axes'/'engine'/'mode' only "
                    f"apply to \"study\": \"sweep\" entries"
                )
            definition = registry.get_study(study)
            registry.check_params(definition, params)
            return cls(study=definition.name, params=params)
        axes = data.get("axes")
        if not axes:
            raise RuntimeLayerError(
                "A sweep manifest entry needs a non-empty 'axes' mapping"
            )
        if not isinstance(axes, Mapping):
            raise RuntimeLayerError(
                f"Manifest entry {index}: 'axes' must be an object"
            )
        spec = SweepSpec.from_mapping(
            {name: values if isinstance(values, (list, tuple)) else (values,)
             for name, values in axes.items()},
            mode=data.get("mode", "grid"),
        )
        engine = sweeps.sweep_engine(data.get("engine") or "immunity")
        if not engine.seeded and {"seed", "trials"} & set(params):
            # An unseeded engine is deterministic: rejecting the seed
            # beats ignoring it and giving one result two addresses.
            raise StudyError(f"Engine {engine.name!r} takes no seed: it is "
                             "deterministic, so it takes no --seed/--trials")
        trials = params.pop("trials", _SWEEP_DEFAULTS["trials"])
        seed = params.pop("seed", _SWEEP_DEFAULTS["seed"])
        sweeps._validate_axes(spec, engine, params)
        return cls(study="sweep", params=params, spec=spec,
                   engine=engine.name, trials=trials, seed=seed)


@dataclass(frozen=True)
class ManifestOutcome:
    """How one entry was satisfied: computed, cache hit, or deduplicated
    against an earlier entry of the same manifest run."""

    index: int
    study: str
    fingerprint: str
    status: str    # "computed" | "hit" | "miss" | "partial:<h>/<n>" | "dedup"


@dataclass(frozen=True)
class ManifestResult(StudyResult):
    """The typed outcome of :func:`run_manifest`.

    ``results`` holds the live per-entry :class:`StudyResult` objects in
    manifest order (excluded from serialization and equality, like the
    full-adder study's flow artifacts); the serialized payload carries
    the outcomes and counts.
    """

    study_name: ClassVar[str] = "manifest"

    outcomes: Tuple[ManifestOutcome, ...] = ()
    results: Optional[Tuple[StudyResult, ...]] = field(
        default=None, compare=False, repr=False,
        metadata={"serialize": False},
    )

    def count(self, status: str) -> int:
        """Outcomes matching ``status`` exactly, or — for parameterised
        statuses like the sweep driver's ``"partial:<hits>/<corners>"`` —
        by their prefix (``count("partial")``)."""
        return sum(
            1 for outcome in self.outcomes
            if outcome.status == status
            or outcome.status.startswith(status + ":")
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            **super().to_dict(),
            "entries": len(self.outcomes),
            "computed": self.count("computed"),
            "hits": self.count("hit"),
            "misses": self.count("miss"),
            "partial": self.count("partial"),
            "deduped": self.count("dedup"),
        }

    def __str__(self) -> str:
        width = max([len("study")] + [len(o.study) for o in self.outcomes])
        header = f"{'#':>3} {'study':<{width}} {'status':<8} fingerprint"
        lines = [header, "-" * len(header)]
        for outcome in self.outcomes:
            lines.append(
                f"{outcome.index:>3} {outcome.study:<{width}} "
                f"{outcome.status:<8} {outcome.fingerprint[:16]}"
            )
        lines.append(
            f"{len(self.outcomes)} entries: {self.count('computed')} computed, "
            f"{self.count('miss')} misses, {self.count('hit')} hits, "
            f"{self.count('partial')} partial, {self.count('dedup')} deduped"
        )
        return "\n".join(lines)


def load_entries(document: Any) -> List[ManifestEntry]:
    """Parse a manifest document into its entries — the one parser behind
    ``repro batch`` and ``POST /jobs``.

    A document is a non-empty list of entries, or an object whose only
    key is ``"studies"`` holding one.  Each entry is parsed by
    :meth:`ManifestEntry.from_mapping` (an already parsed
    :class:`ManifestEntry` is kept), so a bad document fails here, before
    any of its entries runs.
    """
    if isinstance(document, Mapping):
        unknown = sorted(set(document) - {"studies"})
        if unknown:
            raise RuntimeLayerError(
                f"A manifest object takes only 'studies'; unknown keys "
                f"{unknown}"
            )
        document = document.get("studies")
    if not isinstance(document, Sequence) or isinstance(document, (str, bytes)):
        raise RuntimeLayerError(
            "A manifest is a JSON list of study entries "
            "(or {\"studies\": [...]})"
        )
    if not document:
        raise RuntimeLayerError("Manifest has no entries")
    return [entry if isinstance(entry, ManifestEntry)
            else ManifestEntry.from_mapping(entry, index)
            for index, entry in enumerate(document)]


def run_manifest(source: ManifestSource, cache: CacheLike = None,
                 jobs: Optional[int] = None,
                 backend: Optional[str] = None) -> ManifestResult:
    """Execute a manifest of studies with cross-study dedup.

    ``source`` is a path to a manifest JSON file, or the already-loaded
    list / ``{"studies": [...]}`` mapping, whose items may also be parsed
    :class:`ManifestEntry` objects.  Entries run in order; an entry
    whose fingerprint matched an earlier one reuses that result without
    re-running anything (``dedup``), and with ``cache`` attached each
    unique invocation is a ``miss`` (computed, stored) or ``hit``
    (loaded).  Without a cache, unique entries report ``computed``.
    """
    document = source
    if isinstance(source, (str, os.PathLike)):
        try:
            with open(source, "r", encoding="utf-8") as stream:
                document = json.load(stream)
        except OSError as error:
            raise RuntimeLayerError(
                f"Cannot read manifest {source}: {error}"
            ) from error
        except json.JSONDecodeError as error:
            raise RuntimeLayerError(
                f"Manifest {source} is not valid JSON: {error}"
            ) from error
    entries = load_entries(document)
    store = as_cache(cache)
    memo: Dict[str, StudyResult] = {}
    outcomes: List[ManifestOutcome] = []
    results: List[StudyResult] = []
    for index, entry in enumerate(entries):
        study, key = entry.key()
        deterministic = not entry.fresh_entropy
        if deterministic and key in memo:
            result = memo[key]
            status = "dedup"
        else:
            result = entry.run(store, jobs, backend)
            if deterministic:
                memo[key] = result
            status = result.provenance.cache or "computed"
        outcomes.append(ManifestOutcome(
            index=index, study=study, fingerprint=key, status=status,
        ))
        results.append(result)
    return ManifestResult(
        provenance=Provenance.capture(
            "manifest",
            params={"entries": len(entries)},
        ),
        outcomes=tuple(outcomes),
        results=tuple(results),
    )


__all__ = [
    "ManifestEntry",
    "ManifestOutcome",
    "ManifestResult",
    "load_entries",
    "run_manifest",
]
