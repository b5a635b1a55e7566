"""The complete DRAM description — aggregate of all model inputs.

A :class:`DramDescription` bundles the five information groups of the paper
(physical floorplan, signaling floorplan, technology, specification and
miscellaneous circuit information) plus voltages, timings and the default
command pattern, and cross-validates them against each other.

The :meth:`DramDescription.replace_paths` helper rewrites nested
parameters by dotted path (``"technology.c_bitline"``,
``"voltages.vint"``…) in one validated rebuild; :meth:`replace_path` is its
one-entry case, and the sensitivity analysis of Figure 10 is built on them.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, Mapping, Tuple

from ..errors import DescriptionError
from .floorplan import PhysicalFloorplan
from .logic import LogicBlock
from .pattern import Command, Pattern
from .signaling import SignalingFloorplan
from .specification import Specification, TimingParameters
from .technology import TechnologyParameters
from .voltages import VoltageSet


#: Dotted-path roots naming one component field (``root.field``); the
#: floorplan's array is reached as ``floorplan.array.field``.
_COMPONENT_ROOTS = ("technology", "voltages", "spec", "timing")


def scaled_value(path: str, current: Any, factor: float) -> Any:
    """``current`` (the value at ``path``) multiplied by ``factor``.

    Integers stay integers (rounded), so scaling a bit count or a burst
    length never yields a fraction; non-numeric values are refused.
    """
    if not isinstance(current, (int, float)) or isinstance(current, bool):
        raise DescriptionError(f"parameter {path!r} is not numeric")
    value: Any = current * factor
    if isinstance(current, int):
        value = int(round(value))
    return value


@dataclass(frozen=True)
class DramDescription:
    """Everything the power model needs to know about one DRAM device."""

    name: str
    """Human-readable device name, e.g. ``1G-DDR3-1600-x16-55nm``."""
    interface: str
    """Interface family label (SDR, DDR, DDR2, DDR3, DDR4, DDR5)."""
    node: float
    """Process feature size (m), informational."""
    technology: TechnologyParameters
    voltages: VoltageSet
    floorplan: PhysicalFloorplan
    signaling: SignalingFloorplan
    spec: Specification
    timing: TimingParameters
    logic_blocks: Tuple[LogicBlock, ...] = field(default_factory=tuple)
    pattern: Pattern = Pattern((Command.ACT, Command.NOP, Command.WR,
                                Command.NOP, Command.RD, Command.NOP,
                                Command.PRE, Command.NOP))
    constant_current: float = 0.0
    """Constant current sink from Vdd (A) — references, power system."""

    def __post_init__(self) -> None:
        if not self.name:
            raise DescriptionError("device name must not be empty")
        if self.node <= 0:
            raise DescriptionError("feature size must be positive")
        if self.constant_current < 0:
            raise DescriptionError("constant_current must not be negative")
        object.__setattr__(self, "logic_blocks", tuple(self.logic_blocks))
        names = [block.name for block in self.logic_blocks]
        if len(names) != len(set(names)):
            raise DescriptionError("logic block names must be unique")
        self._cross_validate()

    def _cross_validate(self) -> None:
        array = self.floorplan.array
        spec = self.spec
        blocks = self.floorplan.array_block_count
        banks = spec.banks
        blocks_per_bank = max(1, blocks // banks)
        page_per_block = spec.page_bits // blocks_per_bank
        if page_per_block % array.bits_per_swl:
            raise DescriptionError(
                f"per-block page size ({page_per_block} bits) is not a "
                f"whole number of sub-wordlines ({array.bits_per_swl} bits "
                "each)"
            )
        if spec.bits_per_access > spec.page_bits:
            raise DescriptionError(
                f"one access ({spec.bits_per_access} bits) exceeds the page "
                f"({spec.page_bits} bits)"
            )
        if spec.bits_per_access % self.technology.bits_per_csl:
            raise DescriptionError(
                f"access width ({spec.bits_per_access} bits) is not a whole "
                f"number of column select lines "
                f"({self.technology.bits_per_csl} bits each)"
            )
        if spec.rows_per_bank % array.rows_per_subarray:
            raise DescriptionError(
                f"rows per bank ({spec.rows_per_bank}) is not a whole "
                f"number of sub-array rows ({array.rows_per_subarray} rows "
                "each)"
            )
        if blocks % banks and banks % blocks:
            raise DescriptionError(
                f"{blocks} array blocks cannot map onto {banks} banks"
            )

    # ------------------------------------------------------------------
    # Derived organisation
    # ------------------------------------------------------------------
    @property
    def swls_per_activate(self) -> int:
        """Local wordlines raised per activate (sub-arrays the page spans)."""
        return self.spec.page_bits // self.floorplan.array.bits_per_swl

    @property
    def csls_per_access(self) -> int:
        """Column select lines asserted per column access."""
        return self.spec.bits_per_access // self.technology.bits_per_csl

    @property
    def subarray_rows_per_bank(self) -> int:
        """Sub-array rows stacked along the bitline direction per bank."""
        return (self.spec.rows_per_bank
                // self.floorplan.array.rows_per_subarray)

    @property
    def subarray_cols_per_bank(self) -> int:
        """Sub-arrays along the wordline direction per bank (the number of
        sub-arrays one master wordline extends over)."""
        return self.spec.page_bits // self.floorplan.array.bits_per_swl

    @property
    def banks_per_array_block(self) -> float:
        """Banks mapped onto one floorplan array block."""
        return self.spec.banks / self.floorplan.array_block_count

    @property
    def blocks_per_bank(self) -> int:
        """Array blocks one bank (and hence one page) spreads over.

        Low-bank-count devices (SDR/DDR) keep the eight-block floorplan and
        split each bank over two blocks; one activate then drives a master
        wordline in each of them.
        """
        return max(1, self.floorplan.array_block_count // self.spec.banks)

    @property
    def page_bits_per_block(self) -> int:
        """Bits of one page held in a single array block."""
        return self.spec.page_bits // self.blocks_per_bank

    @property
    def density_label(self) -> str:
        """Density as a conventional label, e.g. ``1G`` or ``128M``."""
        bits = self.spec.density_bits
        if bits % (1 << 30) == 0:
            return f"{bits >> 30}G"
        if bits % (1 << 20) == 0:
            return f"{bits >> 20}M"
        return f"{bits}b"

    # ------------------------------------------------------------------
    # Copy helpers
    # ------------------------------------------------------------------
    def evolve(self, **overrides: Any) -> "DramDescription":
        """Return a copy with top-level fields replaced."""
        return dataclasses.replace(self, **overrides)

    def replace_path(self, path: str, value: Any) -> "DramDescription":
        """Return a copy with the dotted-path parameter set to ``value``.

        The one-entry case of :meth:`replace_paths`.

        >>> lower_vint = device.replace_path("voltages.vint", 1.2)
        """
        return self.replace_paths({path: value})

    def replace_paths(self, values: Mapping[str, Any]) -> "DramDescription":
        """Return a copy with every dotted-path parameter in ``values`` set.

        Supported roots: ``technology``, ``voltages``, ``spec``, ``timing``,
        ``floorplan.array``, plus top-level fields (``constant_current``…).
        Paths are grouped by root: each touched component is rebuilt once
        and the description once, so every ``__post_init__`` check runs a
        single time, on the result.  A path and a sub-path of it (a whole
        ``technology`` and ``technology.c_bitline``) cannot be combined.

        >>> corner = device.replace_paths({"voltages.vint": 1.2,
        ...                                "technology.c_cell": 20e-15})
        """
        changes: Dict[str, Any] = {}
        nested: Dict[str, Dict[str, Any]] = {}
        for path, value in values.items():
            parts = path.split(".")
            if len(parts) == 1:
                changes[path] = value
                continue
            root, rest = parts[0], parts[1:]
            if root == "floorplan":
                if len(rest) != 2 or rest[0] != "array":
                    raise DescriptionError(
                        f"unsupported floorplan parameter path {path!r}"
                    )
            elif len(rest) != 1:
                raise DescriptionError(
                    f"unsupported parameter path {path!r}")
            elif root not in _COMPONENT_ROOTS:
                raise DescriptionError(f"unknown parameter root {root!r}")
            nested.setdefault(root, {})[rest[-1]] = value
        for root, fields in nested.items():
            if root in changes:
                raise DescriptionError(
                    f"parameter {root!r} is replaced both whole and by path"
                )
            if root == "floorplan":
                changes[root] = self.floorplan.with_array(**fields)
            else:
                changes[root] = dataclasses.replace(getattr(self, root),
                                                    **fields)
        return dataclasses.replace(self, **changes)

    def get_path(self, path: str) -> Any:
        """Read the dotted-path parameter value (see :meth:`replace_path`)."""
        target: Any = self
        for part in path.split("."):
            target = getattr(target, part)
        return target

    def scale_path(self, path: str, factor: float) -> "DramDescription":
        """Return a copy with the numeric parameter multiplied by ``factor``."""
        return self.replace_path(
            path, scaled_value(path, self.get_path(path), factor))

    # ------------------------------------------------------------------
    def logic_block(self, name: str) -> LogicBlock:
        """Look up a logic block by name."""
        for block in self.logic_blocks:
            if block.name == name:
                return block
        raise KeyError(f"no logic block named {name!r}")

    def iter_logic_blocks(self) -> Iterator[LogicBlock]:
        """Iterate over the peripheral logic blocks."""
        return iter(self.logic_blocks)

    def summary(self) -> Dict[str, Any]:
        """A compact dict describing the device (used in reports)."""
        return {
            "name": self.name,
            "interface": self.interface,
            "node_nm": self.node * 1e9,
            "density": self.density_label,
            "io_width": self.spec.io_width,
            "datarate_gbps": self.spec.datarate / 1e9,
            "banks": self.spec.banks,
            "page_bits": self.spec.page_bits,
            "vdd": self.voltages.vdd,
        }
