"""Carbon-nanotube physics helpers.

The CNFET compact model needs a handful of single-tube quantities: the
diameter and band gap that follow from the chirality ``(n, m)``, whether the
tube is semiconducting or metallic, an estimate of the threshold voltage and
the quantum capacitance limit.  The formulas are the standard tight-binding
expressions used by the Stanford CNFET model family [Deng & Wong, TED 2007].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..errors import DeviceModelError
from ..units import (CC_BOND_LENGTH_NM, ELECTRON_CHARGE, GRAPHENE_HOPPING_EV,
                     PLANCK)


@dataclass(frozen=True)
class Chirality:
    """Chiral indices ``(n, m)`` of a carbon nanotube."""

    n: int
    m: int

    def __post_init__(self):
        if self.n < 0 or self.m < 0 or (self.n == 0 and self.m == 0):
            raise DeviceModelError(f"Invalid chirality ({self.n}, {self.m})")
        if self.m > self.n:
            raise DeviceModelError(
                f"Chirality convention requires n >= m, got ({self.n}, {self.m})"
            )

    @property
    def is_metallic(self) -> bool:
        """A tube is metallic when ``(n - m) mod 3 == 0``."""
        return (self.n - self.m) % 3 == 0

    @property
    def is_semiconducting(self) -> bool:
        return not self.is_metallic

    def diameter_nm(self) -> float:
        """Tube diameter ``d = a·sqrt(n² + nm + m²)/π`` with the graphene
        lattice constant ``a = sqrt(3)·a_cc``."""
        lattice_constant = math.sqrt(3.0) * CC_BOND_LENGTH_NM
        return lattice_constant * math.sqrt(
            self.n**2 + self.n * self.m + self.m**2
        ) / math.pi

    def band_gap_ev(self) -> float:
        """Band gap of a semiconducting tube: ``Eg ≈ 2·a_cc·t / d`` (0 for
        metallic tubes)."""
        if self.is_metallic:
            return 0.0
        return 2.0 * CC_BOND_LENGTH_NM * GRAPHENE_HOPPING_EV / self.diameter_nm()

    def threshold_voltage(self) -> float:
        """First-order threshold estimate ``Vt ≈ Eg / (2q)`` in volts."""
        return self.band_gap_ev() / 2.0


#: The (19, 0) zig-zag tube used by the Stanford model's default deck —
#: diameter ~1.49 nm, band gap ~0.57 eV, threshold ~0.29 V.
DEFAULT_CHIRALITY = Chirality(19, 0)


def quantum_capacitance_per_length() -> float:
    """Quantum capacitance of a 1-D CNT channel [F/m].

    The flat-band value ``Cq = 8 q² / (h v_F)`` (four conducting modes, two
    spins each) with the Fermi velocity of graphene (~8×10⁵ m/s) evaluates
    to roughly 4×10⁻¹⁰ F/m — the commonly quoted ~400 aF/µm that caps the
    achievable gate capacitance per tube.
    """
    fermi_velocity = 8.0e5  # m/s
    return 8.0 * ELECTRON_CHARGE**2 / (PLANCK * fermi_velocity)


def oxide_capacitance_per_length(
    dielectric_constant: float, oxide_thickness_nm: float, diameter_nm: float
) -> float:
    """Electrostatic gate-to-tube capacitance per unit length [F/m] of a
    planar gate over a tube: ``Cox = 2πε / acosh((t + d/2)/(d/2))``.

    This is the isolated-tube (no screening) value; array screening is
    applied separately by the CNFET model.
    """
    if oxide_thickness_nm <= 0 or diameter_nm <= 0:
        raise DeviceModelError("Oxide thickness and diameter must be positive")
    epsilon = dielectric_constant * 8.8541878128e-12
    radius = diameter_nm / 2.0
    ratio = (oxide_thickness_nm + radius) / radius
    return 2.0 * math.pi * epsilon / math.acosh(ratio)


def ballistic_on_current(vdd: float, threshold_voltage: float) -> float:
    """First-order ballistic on-current of one semiconducting CNT [A].

    Four conducting modes give a channel conductance of ``4q²/h``
    (~155 µS); the drive saturates once carriers reach the optical-phonon
    emission energy, which caps the effective drain bias near 0.16 V.
    With a transmission of 0.9 this lands at the widely quoted 20-25 µA
    per tube at 1 V.
    """
    if vdd <= 0:
        raise DeviceModelError("vdd must be positive")
    overdrive = max(0.0, vdd - threshold_voltage)
    conductance = 4.0 * ELECTRON_CHARGE**2 / PLANCK
    return 0.9 * conductance * min(overdrive, 0.16)
