"""Typed, serializable results for every experiment of the evaluation.

Every study returns a frozen dataclass subclass of :class:`StudyResult`,
and a result class declares fields only: one payload rule, derived from
those fields, gives every result

* **the Mapping protocol** — :meth:`StudyResult.to_dict` is the payload,
  so ``result["optimal"]["delay_gain"]`` reads like a plain dict;
* **serialization** — :meth:`StudyResult.to_json` / ``from_json`` round-
  trip losslessly through the tagged encoding of
  :mod:`repro.study.serialize`, NumPy fields included;
* **provenance** — every result carries a :class:`Provenance` block
  (study, engine, seed, parameters, content hash, package version);
* **rendering** — ``str(result)`` is the human-readable report.

The payload rule
----------------
The payload holds every field except ``provenance`` and fields marked
``metadata={"serialize": False}``, keyed in field order.  Outbound
(:meth:`~StudyResult.to_dict`), a tuple becomes a list, recursively; a
sweep point (:class:`FO4GainPoint`, :class:`FO4TransientPoint`,
:class:`CircuitCellReport`) becomes its ``as_dict()``; a dict becomes a
shallow copy; every other value passes through.  Inbound
(:meth:`~StudyResult.from_payload`), each field's annotation decides:
``Tuple[P, ...]`` and ``Optional[P]`` of a point class rebuild points,
other ``Tuple[...]`` annotations rebuild tuples, ``Dict[...]`` becomes a
dict, and payload keys that are not fields are ignored.

Three classes override the rule, each by calling the base method:
:class:`FullAdderResult` (its ``flow_summaries`` travel as
``flow_results`` and a fresh run holds the live flow artifacts there),
``ManifestResult.to_dict`` (adds derived outcome counts) and
:class:`CharacterizationResult` (``grid_shape`` stays a tuple).

The one documented exception to losslessness: the full-adder study's
in-memory flow artifacts (placed layouts, GDSII bytes) serialize as
:class:`~repro.flow.designkit.FlowSummary` views, not as the multi-
megabyte object graphs themselves.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field, fields as dataclass_fields, replace
from typing import (
    Any, Callable, ClassVar, Dict, Iterator, Mapping, Optional, Tuple, Type,
    Union, get_args, get_origin, get_type_hints,
)

from ..errors import StudyError
from .serialize import config_hash, decode, encode

#: Version tag of the serialized result envelope.
RESULT_SCHEMA = "repro-study-result/v1"


def _package_version() -> str:
    from .. import __version__
    return __version__


def _normalize_seeds(value: Any) -> Any:
    """Replace :class:`~numpy.random.SeedSequence` values (which compare by
    identity) with their tagged-dict form so provenance stays value-
    comparable across serialization; everything else passes through."""
    import numpy as np

    if isinstance(value, np.random.SeedSequence):
        return encode(value)
    if isinstance(value, dict):
        return {key: _normalize_seeds(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return type(value)(_normalize_seeds(item) for item in value)
    return value


@dataclass(frozen=True)
class Provenance:
    """Where a result came from: enough to reproduce it headlessly.

    ``params`` holds the runner's full keyword set and ``seed`` the seed it
    was given (seed sequences normalised to their tagged-dict form);
    ``config_hash`` is a short content hash of (study, params, schema) —
    two results with the same hash were produced by the same configuration
    of the same code version, which makes result files git-describable.

    ``cache`` records how the runtime layer produced the result — ``None``
    (no cache consulted), ``"miss"`` (computed and stored) or ``"hit"``
    (returned from the content-addressed store).  It is excluded from
    equality: a warm-cache result must still compare equal to the cold run
    that produced it, which is the runtime layer's bit-identity contract.
    """

    study: str
    params: Dict[str, Any]
    engine: Optional[str] = None
    seed: Any = None
    config_hash: str = ""
    package_version: str = ""
    schema: str = RESULT_SCHEMA
    cache: Optional[str] = field(default=None, compare=False)

    @classmethod
    def capture(cls, study: str, params: Optional[Mapping[str, Any]] = None,
                engine: Optional[str] = None, seed: Any = None) -> "Provenance":
        """Record the configuration of a runner invocation."""
        safe_params = {key: _normalize_seeds(value)
                       for key, value in (params or {}).items()}
        return cls(
            study=study,
            params=safe_params,
            engine=engine,
            seed=_normalize_seeds(seed) if seed is not None else None,
            config_hash=config_hash(
                {"study": study, "params": safe_params, "schema": RESULT_SCHEMA}
            ),
            package_version=_package_version(),
        )

    @classmethod
    def unknown(cls, study: str) -> "Provenance":
        """Placeholder provenance for results rebuilt from bare payloads."""
        return cls.capture(study, params={"reconstructed": True})


#: Result classes by study name, for ``from_json`` dispatch.
_RESULT_TYPES: Dict[str, Type["StudyResult"]] = {}


class _PointBase:
    """Shared dict conversion for flat sweep-point dataclasses: field
    order is the payload's key order, so adding a field updates
    ``as_dict``/``from_mapping`` and the JSON round-trip in one place."""

    def as_dict(self) -> Dict[str, float]:
        return {f.name: getattr(self, f.name) for f in dataclass_fields(self)}

    @classmethod
    def from_mapping(cls, data: Mapping[str, float]):
        return cls(**{f.name: data[f.name] for f in dataclass_fields(cls)})


def _outbound(value: Any) -> Any:
    """The payload form of one field value (the outbound rule)."""
    if isinstance(value, tuple):
        return [_outbound(item) for item in value]
    if isinstance(value, _PointBase):
        return value.as_dict()
    if isinstance(value, dict):
        return dict(value)
    return value


def _inbound(annotation: Any) -> Optional[Callable[[Any], Any]]:
    """The decoder a field annotation implies (the inbound rule);
    ``None`` means the payload value passes through unchanged."""
    origin, args = get_origin(annotation), get_args(annotation)
    if isinstance(annotation, type) and issubclass(annotation, _PointBase):
        return lambda value: (value if isinstance(value, annotation)
                              else annotation.from_mapping(value))
    if origin is Union and len(args) == 2 and type(None) in args:
        inner = _inbound(next(arg for arg in args if arg is not type(None)))
        return inner and (lambda value: None if value is None else inner(value))
    if origin is tuple:
        # Tuple[X, ...] decodes each entry as X; a fixed-length tuple
        # (e.g. a histogram's (count, frequency) pair) keeps its entries.
        homogeneous = len(args) == 2 and args[1] is Ellipsis
        item = _inbound(args[0]) if homogeneous else None
        return tuple if item is None else (
            lambda value: tuple(map(item, value)))
    if origin is dict:
        return dict
    return None


@functools.lru_cache(maxsize=None)
def _payload_codec(cls: type) -> Tuple[Tuple[str, Any], ...]:
    """(field name, inbound decoder) per payload field of ``cls``, in
    field order; annotations are resolved once per class."""
    hints = get_type_hints(cls)
    return tuple(
        (f.name, _inbound(hints[f.name])) for f in dataclass_fields(cls)
        if f.metadata.get("serialize", True)
    )


@dataclass(frozen=True)
class StudyResult:
    """Base class of every typed experiment result.

    Subclasses are frozen dataclasses that set ``study_name`` and declare
    their fields; :meth:`to_dict` and :meth:`from_payload` derive the
    payload from those fields (see the module docstring).  The Mapping
    protocol delegates to :meth:`to_dict`.
    """

    provenance: Provenance = field(repr=False, metadata={"serialize": False})

    study_name: ClassVar[str] = ""

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        name = cls.__dict__.get("study_name") or getattr(cls, "study_name", "")
        if name:
            _RESULT_TYPES[name] = cls

    # -- the payload -----------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """The payload: every serialized field, in field order."""
        return {name: _outbound(getattr(self, name))
                for name, _ in _payload_codec(type(self))}

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any],
                     provenance: Provenance) -> "StudyResult":
        """Rebuild a result from a (decoded) payload mapping."""
        return cls(provenance=provenance, **{
            name: payload[name] if decode is None else decode(payload[name])
            for name, decode in _payload_codec(cls)
        })

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "StudyResult":
        """Rebuild a result from a :meth:`to_dict` payload (the
        provenance is unknown)."""
        return cls.from_payload(payload, Provenance.unknown(cls.study_name))

    # -- Mapping compatibility -------------------------------------------------

    def __getitem__(self, key: str) -> Any:
        return self.to_dict()[key]

    def __contains__(self, key: object) -> bool:
        return key in self.to_dict()

    def __iter__(self) -> Iterator[str]:
        return iter(self.to_dict())

    def __len__(self) -> int:
        return len(self.to_dict())

    def keys(self):
        return self.to_dict().keys()

    def values(self):
        return self.to_dict().values()

    def items(self):
        return self.to_dict().items()

    def get(self, key: str, default: Any = None) -> Any:
        return self.to_dict().get(key, default)

    # -- JSON round-trip -------------------------------------------------------

    def payload_for_json(self) -> Dict[str, Any]:
        """The payload to serialize; defaults to :meth:`to_dict`.
        Subclasses carrying unserializable artifacts override this to
        substitute summary views."""
        return self.to_dict()

    def to_json_dict(self) -> Dict[str, Any]:
        """The serialized envelope: schema + study + provenance + payload."""
        return {
            "schema": RESULT_SCHEMA,
            "study": type(self).study_name,
            "provenance": {
                f.name: encode(getattr(self.provenance, f.name))
                for f in dataclass_fields(self.provenance)
            },
            "payload": encode(self.payload_for_json()),
        }

    def to_json(self, path: Optional[str] = None) -> str:
        """Serialize to JSON text; optionally also write it to ``path``."""
        text = json.dumps(self.to_json_dict(), indent=2, sort_keys=True)
        if path is not None:
            with open(path, "w", encoding="utf-8") as stream:
                stream.write(text + "\n")
        return text

    @classmethod
    def from_json_dict(cls, document: Mapping[str, Any]) -> "StudyResult":
        """Rebuild a result from a :meth:`to_json_dict` envelope."""
        try:
            study = document["study"]
            raw_provenance = document["provenance"]
            raw_payload = document["payload"]
        except (KeyError, TypeError) as error:
            raise StudyError(f"Malformed study-result document: {error}") from error
        result_type = _RESULT_TYPES.get(study)
        if result_type is None:
            raise StudyError(
                f"Unknown study {study!r}; known: {sorted(_RESULT_TYPES)}"
            )
        if cls is not StudyResult and cls is not result_type:
            raise StudyError(
                f"Document holds a {study!r} result, not {cls.study_name!r}"
            )
        if not isinstance(raw_provenance, Mapping):
            raise StudyError("Malformed study-result document: provenance "
                             "must be an object")
        # Unknown provenance keys (e.g. fields added by a newer package
        # version) are dropped rather than fatal; missing required ones
        # surface as a StudyError, not a raw TypeError.
        known = {f.name for f in dataclass_fields(Provenance)}
        try:
            provenance = Provenance(**{
                key: decode(value) for key, value in raw_provenance.items()
                if key in known
            })
        except TypeError as error:
            raise StudyError(
                f"Malformed provenance block: {error}"
            ) from error
        return result_type.from_payload(decode(raw_payload), provenance)

    @classmethod
    def from_json(cls, text: str) -> "StudyResult":
        return cls.from_json_dict(json.loads(text))


# ---------------------------------------------------------------------------
# Per-figure results
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Table1Result(StudyResult):
    """Table 1: area saving of the compact vs baseline layouts."""

    study_name: ClassVar[str] = "table1"

    rows: Tuple[Any, ...] = ()                  # AreaComparisonRow entries
    formatted: str = ""
    mean_absolute_error: float = 0.0

    def __str__(self) -> str:
        return self.formatted


@dataclass(frozen=True)
class Fig3Result(StudyResult):
    """Figure 3: the NAND3 compaction walk-through."""

    study_name: ClassVar[str] = "fig3"

    unit_width: float = 4.0
    baseline_area: float = 0.0
    compact_area: float = 0.0
    measured_saving: float = 0.0
    paper_saving: Optional[float] = None

    def __str__(self) -> str:
        paper = ("n/a" if self.paper_saving is None
                 else f"{self.paper_saving * 100:.2f}%")
        return (
            f"NAND3 compaction at {self.unit_width:g} λ: "
            f"{self.baseline_area:g} λ² -> {self.compact_area:g} λ² "
            f"({self.measured_saving * 100:.2f}% saved, paper {paper})"
        )


@dataclass(frozen=True)
class Fig2ImmunityResult(StudyResult):
    """Figure 2: Monte Carlo immunity per layout technique."""

    study_name: ClassVar[str] = "fig2"

    gate: str = ""
    results: Dict[str, Any] = field(default_factory=dict)  # MonteCarloResult
    formatted: str = ""
    vulnerable_failure_rate: float = 0.0
    baseline_immune: bool = False
    compact_immune: bool = False

    def __str__(self) -> str:
        return self.formatted


@dataclass(frozen=True)
class ImmunitySweepResult(StudyResult):
    """The batched defect-parameter sweep extending Figure 2."""

    study_name: ClassVar[str] = "immunity_sweep"

    points: Tuple[Any, ...] = ()                # SweepPoint entries
    formatted: str = ""
    worst_failure_rate_by_technique: Dict[str, float] = field(default_factory=dict)
    compact_always_immune: bool = False

    def __str__(self) -> str:
        return self.formatted


@dataclass(frozen=True)
class Fig4Result(StudyResult):
    """Figure 4: the generalised AOI31 compact layout."""

    study_name: ClassVar[str] = "fig4"

    gate: str = ""
    pun_contacts: int = 0
    pun_gates: int = 0
    pdn_contacts: int = 0
    pdn_gates: int = 0
    pun_width_factors: Tuple[float, ...] = ()
    pdn_width_factors: Tuple[float, ...] = ()
    scheme1_area: float = 0.0
    scheme2_area: float = 0.0
    requires_etched_regions: int = 0

    def __str__(self) -> str:
        return (
            f"{self.gate}: {self.pun_gates}+{self.pdn_gates} gate stripes, "
            f"{self.pun_contacts}+{self.pdn_contacts} contacts, "
            f"{self.requires_etched_regions} etched regions; "
            f"scheme 1 {self.scheme1_area:g} λ², scheme 2 {self.scheme2_area:g} λ²"
        )


@dataclass(frozen=True)
class FO4GainPoint(_PointBase):
    """One CNT-count point of the analytical Figure 7 sweep."""

    num_tubes: int
    pitch_nm: float
    delay_gain: float
    energy_gain: float
    edp_gain: float
    cnfet_delay_ps: float
    cmos_delay_ps: float


@dataclass(frozen=True)
class Fig7Result(StudyResult):
    """Figure 7 / Case study 1: FO4 gains vs number of CNTs."""

    study_name: ClassVar[str] = "fig7"

    sweep: Tuple[FO4GainPoint, ...] = ()
    single_cnt: Optional[FO4GainPoint] = None
    optimal: Optional[FO4GainPoint] = None
    inverter_area_gain: float = 0.0
    paper: Dict[str, Any] = field(default_factory=dict)

    def __str__(self) -> str:
        header = (f"{'CNTs':>5} {'pitch(nm)':>10} {'delay gain':>11} "
                  f"{'energy gain':>12} {'EDP gain':>9}")
        lines = [header, "-" * len(header)]
        for point in self.sweep:
            lines.append(
                f"{point.num_tubes:>5} {point.pitch_nm:>10.2f} "
                f"{point.delay_gain:>11.2f} {point.energy_gain:>12.2f} "
                f"{point.edp_gain:>9.2f}"
            )
        best, paper = self.optimal, self.paper
        lines.append("")
        lines.append(
            f"optimal: {best.delay_gain:.2f}x delay, {best.energy_gain:.2f}x energy "
            f"at pitch {best.pitch_nm:.2f} nm "
            f"(paper: {paper['delay_gain_optimal']}x, {paper['energy_gain_optimal']}x at "
            f"{paper['optimal_pitch_nm']} nm)"
        )
        return "\n".join(lines)


@dataclass(frozen=True)
class FO4TransientPoint(_PointBase):
    """One CNT-count point of the waveform-level Figure 7 cross-check."""

    num_tubes: int
    pitch_nm: float
    cnfet_delay_ps: float
    cmos_delay_ps: float
    delay_gain: float
    energy_gain: float


@dataclass(frozen=True)
class Fo4TransientResult(StudyResult):
    """The batch-transient-engine cross-check of the Figure 7 sweep."""

    study_name: ClassVar[str] = "fo4_transient"

    sweep: Tuple[FO4TransientPoint, ...] = ()
    cmos_delay_ps: float = 0.0
    optimal: Optional[FO4TransientPoint] = None
    batch_size: int = 0

    def __str__(self) -> str:
        header = (f"{'CNTs':>5} {'pitch(nm)':>10} {'CNFET(ps)':>10} "
                  f"{'CMOS(ps)':>9} {'delay gain':>11} {'energy gain':>12}")
        lines = [header, "-" * len(header)]
        for p in self.sweep:
            lines.append(
                f"{p.num_tubes:>5} {p.pitch_nm:>10.2f} {p.cnfet_delay_ps:>10.2f} "
                f"{p.cmos_delay_ps:>9.2f} {p.delay_gain:>11.2f} "
                f"{p.energy_gain:>12.2f}"
            )
        return "\n".join(lines)


@dataclass(frozen=True)
class CharacterizationResult(StudyResult):
    """Multi-corner standard-cell characterisation on the batch engine."""

    study_name: ClassVar[str] = "characterization"

    sweep: Any = None                           # CharacterizationSweep
    formatted: str = ""
    grid_shape: Tuple[int, ...] = ()
    points: int = 0
    monotone_in_load: Optional[bool] = None
    faster_at_higher_drive: Optional[bool] = None

    def to_dict(self) -> Dict[str, Any]:
        # grid_shape stays a tuple on the wire ({"__tuple__": [...]}).
        return {**super().to_dict(), "grid_shape": tuple(self.grid_shape)}

    def __str__(self) -> str:
        return self.formatted


@dataclass(frozen=True)
class PitchSensitivityResult(StudyResult):
    """Delay variation across the optimal-pitch window."""

    study_name: ClassVar[str] = "pitch"

    pitch_low_nm: float = 0.0
    pitch_high_nm: float = 0.0
    delay_variation: float = 0.0
    paper_variation: float = 0.0

    def __str__(self) -> str:
        return (
            f"FO4 delay varies {self.delay_variation * 100:.2f}% across "
            f"{self.pitch_low_nm:g}-{self.pitch_high_nm:g} nm pitch "
            f"(paper ~{self.paper_variation * 100:.0f}%)"
        )


@dataclass(frozen=True)
class FullAdderResult(StudyResult):
    """Figures 8/9 / Case study 2: the full adder through the flow.

    ``flow_results`` holds the live in-memory :class:`~repro.flow.designkit.
    FlowResult` artifacts of a fresh run (excluded from equality and from
    serialization); ``flow_summaries`` is the serializable view that
    survives the JSON round-trip.
    """

    study_name: ClassVar[str] = "fig8"

    flow_summaries: Dict[int, Any] = field(default_factory=dict)  # FlowSummary
    gains: Dict[int, Any] = field(default_factory=dict)           # GainReport
    delay_gain: float = 0.0
    energy_gain: float = 0.0
    area_gain_scheme1: float = 0.0
    area_gain_scheme2: float = 0.0
    paper: Dict[str, Any] = field(default_factory=dict)
    flow_results: Optional[Dict[int, Any]] = field(
        default=None, compare=False, repr=False,
        metadata={"serialize": False},
    )

    def payload_for_json(self) -> Dict[str, Any]:
        payload = super().to_dict()
        return {"flow_results": payload.pop("flow_summaries"), **payload}

    def to_dict(self) -> Dict[str, Any]:
        payload = self.payload_for_json()
        if self.flow_results is not None:
            payload["flow_results"] = self.flow_results
        return payload

    @classmethod
    def from_payload(cls, payload, provenance):
        from ..flow.designkit import FlowResult, FlowSummary

        live: Optional[Dict[int, Any]] = None
        summaries: Dict[int, Any] = {}
        for scheme, entry in dict(payload["flow_results"]).items():
            if isinstance(entry, FlowResult):
                live = live or {}
                live[scheme] = entry
                summaries[scheme] = entry.summarize()
            elif isinstance(entry, FlowSummary):
                summaries[scheme] = entry
            else:
                raise StudyError(
                    f"flow_results[{scheme}] is neither FlowResult nor "
                    f"FlowSummary: {type(entry).__name__}"
                )
        result = super().from_payload(
            {**payload, "flow_summaries": summaries}, provenance
        )
        return result if live is None else replace(result, flow_results=live)

    def __str__(self) -> str:
        paper = self.paper
        return "\n".join([
            "Full adder (NAND2 + INV, Figure 8) — CNFET vs 65 nm CMOS",
            "-" * 60,
            f"delay gain            : {self.delay_gain:.2f}x (paper ~{paper['delay_gain']}x)",
            f"energy gain           : {self.energy_gain:.2f}x (paper ~{paper['energy_gain']}x)",
            f"area gain (scheme 1)  : {self.area_gain_scheme1:.2f}x (paper ~{paper['area_gain_scheme1']}x)",
            f"area gain (scheme 2)  : {self.area_gain_scheme2:.2f}x (paper ~{paper['area_gain_scheme2']}x)",
        ])


@dataclass(frozen=True)
class CircuitCellReport(_PointBase):
    """Per-unique-cell outcome of a circuit study: one Monte Carlo
    immunity run plus one measured-timing characterisation, shared by
    every instance of the cell in the mapped netlist."""

    cell: str
    gate: str
    drive_strength: float
    instances: int
    trials: int
    failures: int
    failure_rate: float
    immune: bool
    input_capacitance_f: float
    drive_resistance_ohm: float
    parasitic_capacitance_f: float


@dataclass(frozen=True)
class CircuitStudyResult(StudyResult):
    """Circuit-level yield / delay / energy aggregation over a mapped
    netlist (the synthesized-circuit extension of the paper's per-cell
    analysis).

    ``functional_yield`` is the analytic every-cell-must-work product
    ``Π(1 − p_cell)`` over all instances; ``monte_carlo_yield`` is the
    empirical fraction of defect draws with zero defective instances,
    with ``defect_histogram`` recording the full defective-instance-count
    distribution.  Timing and energy come from static analysis over the
    measured per-cell models.
    """

    study_name: ClassVar[str] = "circuit"

    circuit: str = ""
    source: str = ""
    instances: int = 0
    unique_cells: int = 0
    cells: Tuple[CircuitCellReport, ...] = ()
    functional_yield: float = 0.0
    monte_carlo_yield: float = 0.0
    draws: int = 0
    defect_histogram: Tuple[Tuple[int, int], ...] = ()
    critical_path_delay_s: float = 0.0
    critical_path: Tuple[str, ...] = ()
    output_arrivals_s: Dict[str, float] = field(default_factory=dict)
    total_energy_per_cycle_j: float = 0.0
    total_cell_area_lambda2: float = 0.0
    vdd: float = 0.0
    pitch_nm: float = 0.0

    def __str__(self) -> str:
        header = (f"{'cell':<12} {'uses':>5} {'trials':>7} {'fail rate':>10} "
                  f"{'immune':>7}")
        lines = [
            f"Circuit study: {self.circuit} ({self.source}) — "
            f"{self.instances} instances, {self.unique_cells} unique cells",
            "-" * len(header),
            header,
            "-" * len(header),
        ]
        for cell in self.cells:
            lines.append(
                f"{cell.cell:<12} {cell.instances:>5} {cell.trials:>7} "
                f"{cell.failure_rate * 100:>9.2f}% {str(cell.immune):>7}"
            )
        lines.extend([
            "",
            f"functional yield (analytic)   : {self.functional_yield * 100:.3f}%",
            f"functional yield (Monte Carlo): {self.monte_carlo_yield * 100:.3f}% "
            f"over {self.draws} draws",
            f"critical path delay           : {self.critical_path_delay_s * 1e12:.2f} ps "
            f"({' -> '.join(self.critical_path)})",
            f"switching energy / cycle      : {self.total_energy_per_cycle_j * 1e15:.2f} fJ "
            f"at vdd {self.vdd:g} V",
            f"total cell area               : {self.total_cell_area_lambda2:g} λ²",
        ])
        return "\n".join(lines)


@dataclass(frozen=True)
class EdpSummaryResult(StudyResult):
    """The headline EDP / EDAP summary (abstract + conclusions)."""

    study_name: ClassVar[str] = "edp"

    delay_gain_optimal: float = 0.0
    energy_gain_optimal: float = 0.0
    area_gain: float = 0.0
    edp_gain_optimal: float = 0.0
    edp_gain_single_cnt: float = 0.0
    edp_gain_best: float = 0.0
    edap_gain_optimal: float = 0.0
    paper_edp_gain: float = 0.0
    paper_edap_gain: float = 0.0
    paper_area_saving: float = 0.0

    def __str__(self) -> str:
        return "\n".join([
            f"delay gain (optimal pitch) : {self.delay_gain_optimal:.2f}x",
            f"energy gain (optimal pitch): {self.energy_gain_optimal:.2f}x",
            f"area gain                  : {self.area_gain:.2f}x",
            f"EDP gain                   : {self.edp_gain_optimal:.2f}x "
            f"(best {self.edp_gain_best:.2f}x, paper >{self.paper_edp_gain:g}x)",
            f"EDAP gain                  : {self.edap_gain_optimal:.2f}x "
            f"(paper ~{self.paper_edap_gain:g}x)",
        ])
