"""The 39-parameter technology description of Table I.

Every field is in SI units.  Gate-oxide thicknesses are *equivalent* oxide
thicknesses (EOT) so the gate capacitance of a device is simply
``eps_SiO2 / tox * W * L``.  Junction capacitances are specified per metre of
gate width, matching the paper's "junction capacitance ... transistors"
parameters.  Specific wire capacitances are per metre of wire.

The parameter names follow the rows of Table I top to bottom; the docstring
of each field quotes the table row it implements.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, Iterator, Tuple

from ..errors import DescriptionError

#: Permittivity of SiO2 (F/m); gate capacitance = EPS_OX / tox per unit area.
EPS_OX = 3.45e-11


@dataclass(frozen=True)
class TechnologyParameters:
    """Technology description — the 39 parameters of Table I.

    Grouped exactly as the table: general transistors, cell access
    transistor, array capacitances, row-path devices, bitline
    sense-amplifier devices and wire capacitances.
    """

    # --- transistor families -------------------------------------------
    tox_logic: float
    """Gate oxide thickness, general logic transistors (m)."""
    tox_hv: float
    """Gate oxide thickness, high-voltage (wordline domain) transistors (m)."""
    tox_cell: float
    """Gate oxide thickness, cell access transistor (m)."""
    lmin_logic: float
    """Minimum gate length, general logic transistors (m)."""
    cj_logic: float
    """Junction capacitance, general logic transistors (F per m width)."""
    lmin_hv: float
    """Minimum gate length, high-voltage transistors (m)."""
    cj_hv: float
    """Junction capacitance, high-voltage transistors (F per m width)."""
    l_cell: float
    """Gate length, cell access transistor (m)."""
    w_cell: float
    """Gate width, cell access transistor (m)."""

    # --- array capacitances --------------------------------------------
    c_bitline: float
    """Bitline capacitance (F, full local bitline)."""
    c_cell: float
    """Cell (storage capacitor) capacitance (F)."""
    share_bl_wl: float
    """Share of bitline-to-wordline coupling of total bitline cap (0..1)."""

    # --- column path ----------------------------------------------------
    bits_per_csl: int
    """Bits accessed per column select line (per asserted CSL)."""

    # --- master wordline path -------------------------------------------
    c_wire_mwl: float
    """Specific wire capacitance of the master wordline (F/m)."""
    predecode_mwl: float
    """Pre-decode ratio of the master wordline decoder."""
    w_mwl_dec_n: float
    """Gate width, master wordline decoder NMOS (m)."""
    w_mwl_dec_p: float
    """Gate width, master wordline decoder PMOS (m)."""
    mwl_dec_activity: float
    """Average amount of switching of the master wordline decoder (0..1)."""
    w_wl_ctrl_load_n: float
    """Gate width, load NMOS of the wordline controller (m)."""
    w_wl_ctrl_load_p: float
    """Gate width, load PMOS of the wordline controller (m)."""

    # --- sub-wordline (local wordline) driver ---------------------------
    w_swd_n: float
    """Gate width, sub-wordline driver NMOS (m)."""
    w_swd_p: float
    """Gate width, sub-wordline driver PMOS (m)."""
    w_swd_restore: float
    """Gate width, sub-wordline driver restore NMOS (m)."""
    c_wire_swl: float
    """Specific wire capacitance of the sub-wordline (F/m)."""

    # --- bitline sense-amplifier devices (Figure 2) ----------------------
    w_sa_n: float
    """Gate width, bitline sense-amplifier NMOS sense pair (m)."""
    w_sa_p: float
    """Gate width, bitline sense-amplifier PMOS sense pair (m)."""
    l_sa_n: float
    """Gate length, bitline sense-amplifier NMOS sense pair (m)."""
    l_sa_p: float
    """Gate length, bitline sense-amplifier PMOS sense pair (m)."""
    w_eq: float
    """Gate width, bitline sense-amplifier equalize devices (m)."""
    l_eq: float
    """Gate length, bitline sense-amplifier equalize devices (m)."""
    w_bitswitch: float
    """Gate width, bitline sense-amplifier bit-switch devices (m)."""
    l_bitswitch: float
    """Gate length, bitline sense-amplifier bit-switch devices (m)."""
    w_blmux: float
    """Gate width, bitline multiplexer devices (folded bitline only) (m)."""
    l_blmux: float
    """Gate length, bitline multiplexer devices (folded bitline only) (m)."""
    w_nset: float
    """Gate width, bitline sense-amplifier NMOS set devices (m)."""
    l_nset: float
    """Gate length, bitline sense-amplifier NMOS set devices (m)."""
    w_pset: float
    """Gate width, bitline sense-amplifier PMOS set devices (m)."""
    l_pset: float
    """Gate length, bitline sense-amplifier PMOS set devices (m)."""

    # --- wiring ----------------------------------------------------------
    c_wire_signal: float
    """Specific wire capacitance of general signaling wires (F/m)."""

    def __post_init__(self) -> None:
        for name in _FIELD_NAMES:
            value = getattr(self, name)
            if name == "share_bl_wl":
                if not 0.0 <= value <= 1.0:
                    raise DescriptionError(
                        "share_bl_wl must be a fraction in [0, 1], "
                        f"got {value}"
                    )
                continue
            if name == "mwl_dec_activity":
                if not 0.0 <= value <= 1.0:
                    raise DescriptionError(
                        "mwl_dec_activity must be in [0, 1], got "
                        f"{value}"
                    )
                continue
            if value <= 0:
                raise DescriptionError(
                    f"technology parameter {name} must be positive, "
                    f"got {value}"
                )
        if self.bits_per_csl != int(self.bits_per_csl):
            raise DescriptionError("bits_per_csl must be an integer")

    # ------------------------------------------------------------------
    # Derived capacitances
    # ------------------------------------------------------------------
    def gate_capacitance(self, width: float, length: float, tox: float) -> float:
        """Gate capacitance of one transistor (F)."""
        if width <= 0 or length <= 0 or tox <= 0:
            raise DescriptionError("gate geometry must be positive")
        return EPS_OX / tox * width * length

    def logic_gate_cap(self, width: float, length: float = 0.0) -> float:
        """Gate cap of a general-logic transistor (F); default min length."""
        return self.gate_capacitance(width, length or self.lmin_logic,
                                     self.tox_logic)

    def hv_gate_cap(self, width: float, length: float = 0.0) -> float:
        """Gate cap of a high-voltage transistor (F); default min length."""
        return self.gate_capacitance(width, length or self.lmin_hv,
                                     self.tox_hv)

    def cell_gate_cap(self) -> float:
        """Gate capacitance of one cell access transistor (F)."""
        return self.gate_capacitance(self.w_cell, self.l_cell, self.tox_cell)

    def logic_junction_cap(self, width: float) -> float:
        """Junction capacitance of a general-logic transistor (F)."""
        return self.cj_logic * width

    def hv_junction_cap(self, width: float) -> float:
        """Junction capacitance of a high-voltage transistor (F)."""
        return self.cj_hv * width

    def logic_device_load(self, width: float, length: float = 0.0) -> float:
        """Gate plus junction load of one logic transistor (F)."""
        return self.logic_gate_cap(width, length) + self.logic_junction_cap(width)

    def hv_device_load(self, width: float, length: float = 0.0) -> float:
        """Gate plus junction load of one high-voltage transistor (F)."""
        return self.hv_gate_cap(width, length) + self.hv_junction_cap(width)

    # ------------------------------------------------------------------
    # Introspection used by the sensitivity analysis (Figure 10)
    # ------------------------------------------------------------------
    def scaled(self, **overrides: float) -> "TechnologyParameters":
        """Return a copy with the given fields replaced."""
        return dataclasses.replace(self, **overrides)

    def items(self) -> Iterator[Tuple[str, float]]:
        """Yield (name, value) for all 39 parameters."""
        for name in _FIELD_NAMES:
            yield name, getattr(self, name)

    def as_dict(self) -> Dict[str, float]:
        """Return the parameter set as a plain dict."""
        return dict(self.items())

    @property
    def parameter_count(self) -> int:
        """Number of technology parameters (the paper states 39)."""
        return len(_FIELD_NAMES)


#: The 39 field names in declaration order, looked up once instead of on
#: every construction (validation and :meth:`TechnologyParameters.items`).
_FIELD_NAMES = tuple(field.name for field in
                     dataclasses.fields(TechnologyParameters))
