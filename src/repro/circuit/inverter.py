"""Inverter abstractions shared by the CNFET and CMOS comparisons.

An :class:`Inverter` couples one pull-up and one pull-down device (either
:class:`~repro.devices.cnfet.CNFET` or :class:`~repro.devices.mosfet.MOSFET`
— they expose the same electrical interface) and provides the aggregate
quantities the FO4 analysis of Section V needs: input capacitance, output
self-capacitance and effective drive current.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from ..devices.calibration import CMOS_PMOS_RATIO
from ..devices.cnfet import CNFET, CNFETParameters
from ..devices.mosfet import MOSFET
from ..errors import DeviceModelError

Device = Union[CNFET, MOSFET]


@dataclass
class Inverter:
    """A static inverter built from one pull-up and one pull-down device."""

    pull_down: Device
    pull_up: Device
    name: str = "INV"

    def __post_init__(self):
        if self.pull_down.polarity != "n":
            raise DeviceModelError("pull_down device must be n-type")
        if self.pull_up.polarity != "p":
            raise DeviceModelError("pull_up device must be p-type")

    # -- aggregate electrical quantities ----------------------------------------

    def input_capacitance(self) -> float:
        """Total gate capacitance presented to the driver [F]."""
        return self.pull_down.gate_capacitance() + self.pull_up.gate_capacitance()

    def output_capacitance(self) -> float:
        """Self-loading (drain parasitic) capacitance at the output [F]."""
        return self.pull_down.drain_capacitance() + self.pull_up.drain_capacitance()

    def drive_current(self, vdd: float) -> float:
        """Effective switching drive: the average of the pull-up and
        pull-down on-currents [A]."""
        return 0.5 * (self.pull_down.on_current(vdd) + self.pull_up.on_current(vdd))

    def scaled(self, factor: float) -> "Inverter":
        """An inverter ``factor`` times stronger (both devices scaled)."""
        return Inverter(
            pull_down=self.pull_down.scaled(factor),
            pull_up=self.pull_up.scaled(factor),
            name=f"{self.name}x{factor:g}",
        )


def cnfet_inverter(
    num_tubes: int = 1,
    gate_width_nm: float = 130.0,
    pitch_nm: Optional[float] = None,
    parameters: Optional[CNFETParameters] = None,
) -> Inverter:
    """A CNFET inverter with symmetric n/p devices (Section V sizes the two
    devices identically because their drive is symmetric)."""
    return Inverter(
        pull_down=CNFET("n", num_tubes, gate_width_nm, pitch_nm, parameters),
        pull_up=CNFET("p", num_tubes, gate_width_nm, pitch_nm, parameters),
        name=f"CNFET_INV_{num_tubes}cnt",
    )


def cmos_inverter(
    nmos_width_nm: float = 200.0,
    pmos_width_nm: Optional[float] = None,
) -> Inverter:
    """The reference 65 nm CMOS inverter (pMOS 1.4× wider than nMOS unless
    given explicitly, matching the paper's Section V sizing)."""
    if pmos_width_nm is None:
        pmos_width_nm = CMOS_PMOS_RATIO * nmos_width_nm
    return Inverter(
        pull_down=MOSFET("n", nmos_width_nm),
        pull_up=MOSFET("p", pmos_width_nm),
        name="CMOS_INV",
    )
