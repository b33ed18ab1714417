"""Unit helpers used across the library.

The layout side of the paper works in the lambda (``λ``) convention of the
65 nm node, while the device side works in SI units (nm, F, A, s, J).  This
module centralises the conversions so that every subsystem states its unit
explicitly instead of passing bare floats of ambiguous meaning.

Two small value types are provided:

* :class:`Lambda` — a length expressed in λ.  It converts to nanometres
  through a :class:`repro.tech.lambda_rules.DesignRules` instance (or a bare
  ``lambda_nm`` float).
* :func:`format_si` / :func:`parse_si` — human-friendly formatting and
  parsing of SI-prefixed quantities used by reports and the Liberty writer.

Physical constants needed by the CNT/CNFET device models are also defined
here so that :mod:`repro.devices` has a single source of truth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import UnitError

# ---------------------------------------------------------------------------
# Physical constants (SI units)
# ---------------------------------------------------------------------------

#: Elementary charge [C]
ELECTRON_CHARGE = 1.602176634e-19
#: Planck constant [J s]
PLANCK = 6.62607015e-34
#: Reduced Planck constant [J s]
HBAR = PLANCK / (2.0 * math.pi)
#: Boltzmann constant [J/K]
BOLTZMANN = 1.380649e-23
#: Vacuum permittivity [F/m]
EPSILON_0 = 8.8541878128e-12
#: Carbon-carbon bond length in graphene / CNTs [nm]
CC_BOND_LENGTH_NM = 0.142
#: Nearest-neighbour hopping (tight-binding) energy for graphene [eV]
GRAPHENE_HOPPING_EV = 3.033
#: Quantum of conductance (per spin, per band) [S]
CONDUCTANCE_QUANTUM = 2.0 * ELECTRON_CHARGE**2 / PLANCK
#: Room temperature used throughout [K]
ROOM_TEMPERATURE_K = 300.0
#: Thermal voltage at room temperature [V]
THERMAL_VOLTAGE_V = BOLTZMANN * ROOM_TEMPERATURE_K / ELECTRON_CHARGE

# ---------------------------------------------------------------------------
# Length conversions
# ---------------------------------------------------------------------------

NM_PER_UM = 1000.0
NM_PER_MM = 1.0e6
NM_PER_M = 1.0e9


def nm_to_um(value_nm: float) -> float:
    """Convert nanometres to micrometres."""
    return value_nm / NM_PER_UM


def um_to_nm(value_um: float) -> float:
    """Convert micrometres to nanometres."""
    return value_um * NM_PER_UM


def nm_to_m(value_nm: float) -> float:
    """Convert nanometres to metres."""
    return value_nm / NM_PER_M


@dataclass(frozen=True)
class Lambda:
    """A length in λ units of a scalable design-rule set.

    The λ convention expresses every design rule as a multiple of a single
    scaling parameter; at the 65 nm node used in the paper ``λ = 32.5 nm``
    (half of the drawn feature size).
    """

    value: float

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise UnitError(f"Lambda value must be finite, got {self.value!r}")

    def to_nm(self, lambda_nm: float) -> float:
        """Convert to nanometres given the technology λ in nm."""
        if lambda_nm <= 0:
            raise UnitError(f"lambda_nm must be positive, got {lambda_nm!r}")
        return self.value * lambda_nm

    def __add__(self, other):
        return Lambda(self.value + _lambda_value(other))

    def __radd__(self, other):
        return Lambda(_lambda_value(other) + self.value)

    def __sub__(self, other):
        return Lambda(self.value - _lambda_value(other))

    def __mul__(self, factor: float):
        return Lambda(self.value * factor)

    def __rmul__(self, factor: float):
        return Lambda(factor * self.value)

    def __float__(self):
        return float(self.value)

    def __le__(self, other):
        return self.value <= _lambda_value(other)

    def __lt__(self, other):
        return self.value < _lambda_value(other)

    def __ge__(self, other):
        return self.value >= _lambda_value(other)

    def __gt__(self, other):
        return self.value > _lambda_value(other)


def _lambda_value(other) -> float:
    if isinstance(other, Lambda):
        return other.value
    if isinstance(other, (int, float)):
        return float(other)
    raise UnitError(f"Cannot combine Lambda with {type(other).__name__}")


# ---------------------------------------------------------------------------
# SI formatting / parsing
# ---------------------------------------------------------------------------

_SI_PREFIXES = [
    (1e-18, "a"),
    (1e-15, "f"),
    (1e-12, "p"),
    (1e-9, "n"),
    (1e-6, "u"),
    (1e-3, "m"),
    (1.0, ""),
    (1e3, "k"),
    (1e6, "M"),
    (1e9, "G"),
]

_PREFIX_TO_SCALE = {prefix: scale for scale, prefix in _SI_PREFIXES}
_PREFIX_TO_SCALE["µ"] = 1e-6


def format_si(value: float, unit: str = "", digits: int = 3) -> str:
    """Format ``value`` with an SI prefix, e.g. ``format_si(3.2e-12, 's')``
    returns ``'3.2ps'``."""
    if value == 0:
        return f"0{unit}"
    if not math.isfinite(value):
        return f"{value}{unit}"
    magnitude = abs(value)
    chosen_scale, chosen_prefix = _SI_PREFIXES[0]
    for scale, prefix in _SI_PREFIXES:
        if magnitude >= scale:
            chosen_scale, chosen_prefix = scale, prefix
    scaled = value / chosen_scale
    return f"{scaled:.{digits}g}{chosen_prefix}{unit}"


def parse_si(text: str, unit: str = "") -> float:
    """Parse a string produced by :func:`format_si` back into a float.

    ``unit`` (if given) is stripped from the end of the string before the
    SI prefix is interpreted.
    """
    stripped = text.strip()
    if unit and stripped.endswith(unit):
        stripped = stripped[: -len(unit)]
    stripped = stripped.strip()
    if not stripped:
        raise UnitError(f"Cannot parse empty quantity from {text!r}")
    prefix = ""
    if stripped[-1] in _PREFIX_TO_SCALE and not stripped[-1].isdigit():
        prefix = stripped[-1]
        stripped = stripped[:-1]
    try:
        magnitude = float(stripped)
    except ValueError as exc:
        raise UnitError(f"Cannot parse quantity {text!r}") from exc
    return magnitude * _PREFIX_TO_SCALE.get(prefix, 1.0)


# ---------------------------------------------------------------------------
# Energy / delay helpers
# ---------------------------------------------------------------------------

def joules_to_femtojoules(value_j: float) -> float:
    """Convert joules to femtojoules."""
    return value_j * 1e15


def seconds_to_picoseconds(value_s: float) -> float:
    """Convert seconds to picoseconds."""
    return value_s * 1e12


def edp(energy_j: float, delay_s: float) -> float:
    """Energy-delay product [J s]."""
    return energy_j * delay_s


def edap(energy_j: float, delay_s: float, area_m2: float) -> float:
    """Energy-delay-area product [J s m^2]."""
    return energy_j * delay_s * area_m2
