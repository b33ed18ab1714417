"""The study registry: every paper figure/table reachable by name.

:func:`run_study` is the single typed entry point over all experiment
runners — ``run_study("fig7", max_tubes=10)`` — with keyword validation
against the runner's signature, and :func:`list_studies` enumerates what
can be run (the ``repro list`` CLI command prints it).
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from ..errors import StudyError
from .results import StudyResult


@dataclass(frozen=True)
class StudyDefinition:
    """One runnable study: name, runner, and what it reproduces."""

    name: str
    runner: Callable[..., StudyResult]
    figure: str
    description: str
    aliases: Tuple[str, ...] = ()

    def parameters(self) -> Dict[str, object]:
        """The runner's keyword parameters and their defaults."""
        signature = inspect.signature(self.runner)
        return {
            name: (None if parameter.default is inspect.Parameter.empty
                   else parameter.default)
            for name, parameter in signature.parameters.items()
        }


def _definitions() -> List[StudyDefinition]:
    # Imported lazily so `import repro.study` does not pay for the whole
    # analysis stack until a study is actually listed or run.
    from ..analysis import experiments

    return [
        StudyDefinition(
            "table1", experiments.run_table1, "Table 1",
            "Area saving of the compact vs baseline layouts (20 entries)",
        ),
        StudyDefinition(
            "fig2", experiments.run_fig2_immunity, "Figure 2",
            "Monte Carlo mispositioned-CNT immunity per layout technique",
            aliases=("fig2_immunity", "immunity"),
        ),
        StudyDefinition(
            "immunity_sweep", experiments.run_immunity_sweep, "Figure 2+",
            "Failure rate across defect density / alignment / metallic residue",
        ),
        StudyDefinition(
            "fig3", experiments.run_fig3_nand3, "Figure 3",
            "The NAND3 compaction walk-through (16.67 % at 4 λ)",
            aliases=("fig3_nand3", "nand3"),
        ),
        StudyDefinition(
            "fig4", experiments.run_fig4_aoi31, "Figure 4",
            "The generalised AOI31 compact layout (schemes 1 and 2)",
            aliases=("fig4_aoi31", "aoi31"),
        ),
        StudyDefinition(
            "fig7", experiments.run_fig7_fo4, "Figure 7",
            "FO4 delay/energy gains vs number of CNTs (analytical sweep)",
            aliases=("fig7_fo4", "fo4"),
        ),
        StudyDefinition(
            "fo4_transient", experiments.run_fo4_transient_sweep, "Figure 7+",
            "Waveform-level Figure 7 cross-check on the batch transient engine",
        ),
        StudyDefinition(
            "characterization", experiments.run_characterization, "Sect. IV",
            "Multi-corner standard-cell characterisation on the batch engine",
            aliases=("char",),
        ),
        StudyDefinition(
            "pitch", experiments.run_pitch_sensitivity, "Figure 7+",
            "Delay variation across the optimal 4.5-5.5 nm pitch window",
            aliases=("pitch_sensitivity",),
        ),
        StudyDefinition(
            "fig8", experiments.run_fulladder_case_study, "Figures 8/9",
            "The NAND2+INV full adder through the logic-to-GDSII flow",
            aliases=("fulladder", "fig9"),
        ),
        StudyDefinition(
            "edp", experiments.run_edp_summary, "Abstract",
            "Headline EDP / EDAP gains at the optimal pitch",
            aliases=("edp_summary", "table2"),
        ),
        StudyDefinition(
            "circuit", experiments.run_circuit_study, "Beyond the paper",
            "Circuit-level yield/delay/energy over a mapped netlist "
            "(Verilog or built-in adder/comparator/MAC generators)",
            aliases=("circuit_study",),
        ),
    ]


def list_studies() -> List[StudyDefinition]:
    """All runnable studies, in paper order."""
    return _definitions()


def get_study(name: str) -> StudyDefinition:
    """Resolve a study by canonical name or alias (case-insensitive)."""
    wanted = name.strip().lower()
    definitions = _definitions()
    for definition in definitions:
        if wanted == definition.name or wanted in definition.aliases:
            return definition
    known = ", ".join(definition.name for definition in definitions)
    raise StudyError(f"Unknown study {name!r}; available: {known}")


def check_params(definition: StudyDefinition, params: Mapping[str, object],
                 jobs: Optional[int] = None) -> Dict[str, object]:
    """Check ``params``, and ``jobs`` when given, against the runner of
    ``definition``, and return its :meth:`~StudyDefinition.parameters`.

    Raises :class:`~repro.errors.StudyError`, naming the accepted
    parameters, on a keyword the runner does not take, or on ``jobs`` for
    a runner with no ``jobs`` parameter.  :func:`run_study` and the
    manifest parser
    (:meth:`~repro.runtime.manifest.ManifestEntry.from_mapping`) both
    check here, so a manifest entry with a bad keyword fails when it is
    parsed, before any entry runs.
    """
    accepted = definition.parameters()
    unknown = sorted(set(params) - set(accepted))
    if unknown:
        raise StudyError(
            f"Study {definition.name!r} does not accept {unknown}; "
            f"parameters: {sorted(accepted)}"
        )
    if jobs is not None and "jobs" not in accepted:
        raise StudyError(
            f"Study {definition.name!r} has no parallel runner "
            f"(no jobs parameter); parameters: {sorted(accepted)}"
        )
    return accepted


def run_study(name: str, cache=None, jobs: "int | None" = None,
              **params) -> StudyResult:
    """Run one study by name with keyword overrides.

    Unknown keywords raise :class:`~repro.errors.StudyError` listing the
    runner's accepted parameters, so typos fail fast instead of silently
    running the default configuration.

    ``cache`` plugs the runtime layer's content-addressed store in: a
    :class:`~repro.runtime.cache.ResultCache`, a directory path, or
    ``True`` for the default store.  The invocation is fingerprinted
    (study name, parameters, package version — see
    :mod:`repro.runtime.fingerprint`); a warm entry is returned without
    invoking the runner (``cache="hit"``).  On a miss a runner with its
    own corner store (the circuit study) reports that store's outcome —
    ``"hit"`` when every corner was stored, ``"partial:<h>/<n>"`` — and
    any other runner reports ``"miss"`` — one memo,
    :func:`~repro.runtime.cache.memoize`, shared with
    :func:`~repro.study.sweeps.run_sweep_study`.

    ``jobs`` asks for parallel execution and is forwarded to the runner's
    own ``jobs`` parameter; studies without one reject it, as studies
    without a ``seed`` parameter reject ``seed`` (and the CLI's
    ``--seed``).
    """
    definition = get_study(name)
    accepted = check_params(definition, params, jobs)
    if jobs is not None:
        params.setdefault("jobs", jobs)
    # Imported lazily: the runtime layer sits on top of the study layer,
    # so a module-level import here would be circular.
    from ..obs import trace as obs_trace
    from ..runtime.cache import as_cache, memoize
    from ..runtime.fingerprint import study_fingerprint

    store = as_cache(cache)
    if "seed" in params and params["seed"] is None:
        # An explicit seed=None asks for fresh OS entropy — caching that
        # would serve a stale random draw as a "hit", so bypass.
        store = None
    # A runner with its own ``cache`` parameter (the circuit study's
    # per-unique-cell corner store) gets the store as well, beside
    # ``params``, so the store never enters the fingerprint.
    corner_store = {"cache": store} if "cache" in accepted else {}
    with obs_trace.span(f"study:{definition.name}",
                        study=definition.name, cached=store is not None):
        return memoize(store,
                       lambda: study_fingerprint(definition.name,
                                                 params=params),
                       lambda: definition.runner(**params, **corner_store))
