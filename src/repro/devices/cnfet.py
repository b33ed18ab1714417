"""Circuit-compatible CNFET compact model.

The model follows the structure of the Stanford CNFET model the paper uses
as its electrical foundation [14, 15, 20]: a MOSFET-like top-gated device
whose channel is an array of parallel semiconducting CNTs.  Per device it
captures

* the ballistic-limited on-current per tube,
* the gate capacitance per tube (electrostatic in series with the quantum
  capacitance),
* inter-CNT **charge screening**: when tubes are packed at a small pitch the
  gate-to-channel coupling per tube drops, which reduces both the gate
  capacitance and the drive current per tube (Section V / Figure 7 of the
  paper — the origin of the optimal pitch), and
* fixed per-device parasitics (contact and fringe capacitance) that do not
  scale with the number of tubes.

The I-V relation is an alpha-power-law MOSFET-like characteristic scaled so
that the full-drive current equals ``num_tubes × I_on(pitch)``; this is what
the transient simulator integrates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from ..errors import DeviceModelError
from .cnt import Chirality, DEFAULT_CHIRALITY
from .powerlaw import alpha_power


@dataclass(frozen=True)
class CNFETParameters:
    """Calibrated parameters of the CNFET compact model.

    All capacitances are in farads, currents in amperes, lengths in
    nanometres.  ``repro.devices.calibration`` documents how each value was
    pinned to the paper's anchor points.
    """

    #: tube chirality (sets diameter / band gap / threshold)
    chirality: Chirality = DEFAULT_CHIRALITY
    #: threshold voltage magnitude [V] (same for n and p devices)
    threshold_voltage: float = 0.3
    #: unscreened (isolated-tube) on-current per tube at nominal Vdd [A]
    on_current_per_tube: float = 20.1e-6
    #: unscreened gate capacitance per tube (includes Cox in series with Cq) [F]
    gate_cap_per_tube: float = 25.0e-18
    #: drain/source parasitic capacitance per tube [F]
    drain_cap_per_tube: float = 0.6e-18
    #: fixed gate capacitance per device per µm of gate width (fringe, poly) [F/um]
    fixed_gate_cap_per_um: float = 0.25e-15
    #: fixed drain capacitance per device per µm of gate width (contacts) [F/um]
    fixed_drain_cap_per_um: float = 0.40e-15
    #: pitch at which screening becomes significant [nm]
    screening_pitch_nm: float = 10.0
    #: exponent of the screening roll-off (larger = sharper)
    screening_exponent: float = 2.0
    #: drive current degrades as screening**current_screening_power
    current_screening_power: float = 1.0
    #: alpha-power-law saturation index of the I-V characteristic
    alpha: float = 1.2
    #: source/drain series resistance per tube [ohm]
    series_resistance_per_tube: float = 12.0e3
    #: nominal supply the on-current is quoted at [V]
    nominal_vdd: float = 1.0

    def __post_init__(self):
        for name in (
            "threshold_voltage",
            "on_current_per_tube",
            "gate_cap_per_tube",
            "fixed_gate_cap_per_um",
            "screening_pitch_nm",
            "screening_exponent",
            "current_screening_power",
            "alpha",
            "nominal_vdd",
        ):
            if getattr(self, name) <= 0:
                raise DeviceModelError(f"CNFET parameter {name!r} must be positive")
        if self.drain_cap_per_tube < 0 or self.fixed_drain_cap_per_um < 0:
            raise DeviceModelError("CNFET capacitances must be non-negative")
        if self.threshold_voltage >= self.nominal_vdd:
            raise DeviceModelError(
                "threshold_voltage must be below the nominal supply "
                f"({self.threshold_voltage} >= {self.nominal_vdd})"
            )

    def screening_factor(self, pitch_nm: float) -> float:
        """Gate-coupling screening factor in (0, 1] as a function of the
        inter-CNT pitch.

        ``tanh((pitch/p0)^m)`` saturates to 1 for isolated tubes and rolls
        off super-linearly for dense arrays, which is what produces the
        optimal pitch of Figure 7.
        """
        if pitch_nm <= 0:
            raise DeviceModelError(f"pitch must be positive, got {pitch_nm}")
        ratio = (pitch_nm / self.screening_pitch_nm) ** self.screening_exponent
        return math.tanh(ratio)


class CNFET:
    """A single CNFET instance (one finger of a gate).

    Parameters
    ----------
    polarity:
        ``"n"`` or ``"p"``.  The paper's devices have symmetric n/p drive
        (Section V: "nCNFET = pCNFET due to similar electrical
        characteristics"), so polarity only selects the conduction polarity.
    num_tubes:
        Number of CNTs under the gate.
    gate_width_nm:
        Drawn gate width; together with ``num_tubes`` it sets the pitch
        unless ``pitch_nm`` is given explicitly.
    pitch_nm:
        Inter-CNT pitch override.  When omitted the tubes are spread evenly
        across the gate width (``width / num_tubes``).
    """

    def __init__(
        self,
        polarity: str,
        num_tubes: int = 1,
        gate_width_nm: float = 65.0,
        pitch_nm: Optional[float] = None,
        parameters: Optional[CNFETParameters] = None,
    ):
        if polarity not in ("n", "p"):
            raise DeviceModelError(f"polarity must be 'n' or 'p', got {polarity!r}")
        if num_tubes < 1:
            raise DeviceModelError(f"num_tubes must be >= 1, got {num_tubes}")
        if gate_width_nm <= 0:
            raise DeviceModelError("gate_width_nm must be positive")
        self.polarity = polarity
        self.num_tubes = int(num_tubes)
        self.gate_width_nm = float(gate_width_nm)
        self.parameters = parameters or CNFETParameters()
        if pitch_nm is None:
            pitch_nm = self.gate_width_nm / self.num_tubes
        if pitch_nm <= 0:
            raise DeviceModelError("pitch_nm must be positive")
        self.pitch_nm = float(pitch_nm)

    # -- derived electrical quantities -----------------------------------------

    @property
    def screening(self) -> float:
        """Screening factor at this device's pitch (1.0 for a single tube)."""
        if self.num_tubes == 1:
            return 1.0
        return self.parameters.screening_factor(self.pitch_nm)

    def on_current(self, vdd: Optional[float] = None) -> float:
        """Full-drive (``|Vgs| = |Vds| = Vdd``) current [A]."""
        params = self.parameters
        vdd = params.nominal_vdd if vdd is None else vdd
        per_tube = params.on_current_per_tube
        # Scale with overdrive so supply sweeps behave sensibly.
        overdrive = max(0.0, vdd - params.threshold_voltage)
        nominal_overdrive = params.nominal_vdd - params.threshold_voltage
        per_tube = per_tube * (overdrive / nominal_overdrive) ** params.alpha
        screen = self.screening ** params.current_screening_power
        return self.num_tubes * per_tube * screen

    def gate_capacitance(self) -> float:
        """Total gate capacitance of the device [F]."""
        params = self.parameters
        per_tube = params.gate_cap_per_tube * self.screening
        fixed = params.fixed_gate_cap_per_um * (self.gate_width_nm / 1000.0)
        return self.num_tubes * per_tube + fixed

    def drain_capacitance(self) -> float:
        """Drain-side parasitic capacitance of the device [F]."""
        params = self.parameters
        fixed = params.fixed_drain_cap_per_um * (self.gate_width_nm / 1000.0)
        return self.num_tubes * params.drain_cap_per_tube + fixed

    # -- I-V characteristic ------------------------------------------------------

    def ids(self, vgs: float, vds: float) -> float:
        """Drain current [A] for the given terminal voltages.

        For a p-type device pass the physical (negative) ``vgs``/``vds``;
        the returned current is the magnitude flowing source→drain.  The
        characteristic is an alpha-power law with a linear/saturation
        cross-over at ``Vdsat = overdrive``; adequate for delay/energy
        estimation which is what the paper's comparisons need.

        The exponentiation goes through the shared
        :func:`~repro.devices.powerlaw.alpha_power` kernel so the scalar
        transient engine stays bit-identical to the vectorized batch
        engine (see :mod:`repro.circuit.simulator`).
        """
        params = self.parameters
        if self.polarity == "p":
            vgs, vds = -vgs, -vds
        overdrive = vgs - params.threshold_voltage
        if overdrive <= 0 or vds <= 0:
            return 0.0
        nominal_overdrive = params.nominal_vdd - params.threshold_voltage
        saturation_current = (
            self.num_tubes
            * params.on_current_per_tube
            * (self.screening ** params.current_screening_power)
            * alpha_power(overdrive / nominal_overdrive, params.alpha)
        )
        vdsat = overdrive
        if vds >= vdsat:
            return saturation_current
        # Smooth quadratic transition through the triode region.
        ratio = vds / vdsat
        return saturation_current * ratio * (2.0 - ratio)

    def effective_resistance(self, vdd: Optional[float] = None) -> float:
        """Switching-averaged channel resistance ``R ≈ Vdd / I_on`` plus the
        source/drain series resistance, used by the RC delay estimators."""
        params = self.parameters
        vdd = params.nominal_vdd if vdd is None else vdd
        on_current = self.on_current(vdd)
        if on_current <= 0:
            raise DeviceModelError("Device has zero on-current at the requested supply")
        series = params.series_resistance_per_tube / self.num_tubes
        return vdd / on_current + series

    def scaled(self, factor: float) -> "CNFET":
        """A device ``factor`` times wider (more tubes at the same pitch)."""
        if factor <= 0:
            raise DeviceModelError("Scale factor must be positive")
        new_tubes = max(1, int(round(self.num_tubes * factor)))
        return CNFET(
            polarity=self.polarity,
            num_tubes=new_tubes,
            gate_width_nm=self.gate_width_nm * factor,
            pitch_nm=self.pitch_nm,
            parameters=self.parameters,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CNFET({self.polarity}, tubes={self.num_tubes}, "
            f"pitch={self.pitch_nm:.2f}nm, W={self.gate_width_nm:.0f}nm)"
        )
