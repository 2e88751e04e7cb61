"""Structured diagnostics for the static schedule-legality pass.

Every problem the analyzer can detect is reported as a
:class:`Diagnostic` — a stable *code* (``SPM001``, ``RACE002``, ...), a
*severity* (``error`` stops codegen/simulation, ``warning`` is logged
and counted), a human-readable message, and the offending scheduling
primitive / kernel / axis when known.  :class:`CheckReport` collects
diagnostics across all kernels of a program so users get a complete
report instead of stopping at the first violation (mirroring
``ir.validate.ValidationError``).

This module is a dependency-free leaf: it imports nothing from the rest
of ``repro`` so that :mod:`repro.schedule` can attach diagnostics to its
own errors without creating an import cycle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, List, Optional, Tuple

__all__ = [
    "DIAGNOSTIC_CODES",
    "SEVERITIES",
    "CheckReport",
    "Diagnostic",
    "DiagnosticError",
]

#: allowed severity levels, most severe first
SEVERITIES = ("error", "warning")

#: registry of every code the analyzer can emit (code -> summary);
#: docs/ANALYSIS.md documents each in detail
DIAGNOSTIC_CODES = {
    "SCHED001": "schedule construction or lowering failed",
    "SHAPE001": "domain rank does not match the kernel's loop variables",
    "TILE001": "tile factor exceeds the axis extent",
    "TILE002": "tile factor does not divide the extent (remainder tiles)",
    "TILE003": "fewer tiles than parallel threads (idle cores)",
    "VEC001": "vectorized axis is not the innermost loop",
    "VEC002": "one axis both vectorized and unrolled",
    "ORD001": "tile-inner axis reordered outside its tile-outer axis",
    "PAR001": "thread count exceeds the machine's cores per node",
    "RACE001": "parallel axis is a tile-inner loop (cross-core write race)",
    "RACE002": "write buffer staged outside the parallel loop "
               "(shared-buffer write race)",
    "SPM001": "SPM capacity overflow for the tile's cache buffers",
    "SPM002": "cache-less machine without explicit SPM staging",
    "SPM003": "SPM utilisation below the useful threshold",
    "CA001": "compute_at targets a non-tile-enumerating (inner) axis",
    "HALO001": "stencil radius exceeds the tensor's halo width",
    "HALO002": "per-rank sub-domain narrower than the halo",
    "MPI001": "invalid MPI process grid for the domain",
    "EXCH001": "exchange mode incompatible with the decomposition "
               "geometry",
    "EXCH002": "unknown halo-exchange mode",
    "IR001": "stencil IR validation issue",
}


@dataclass(frozen=True)
class Diagnostic:
    """One finding of the static analyzer."""

    code: str
    severity: str  # "error" | "warning"
    message: str
    primitive: Optional[str] = None  # offending primitive, e.g. "tile"
    kernel: Optional[str] = None
    axis: Optional[str] = None

    def __post_init__(self) -> None:
        if self.severity not in SEVERITIES:
            raise ValueError(
                f"invalid severity {self.severity!r}; "
                f"expected one of {SEVERITIES}"
            )

    def format(self) -> str:
        """``error SPM001 [cache_read] (S_3d7pt/zo): message``."""
        where = ""
        if self.kernel or self.axis:
            inner = "/".join(p for p in (self.kernel, self.axis) if p)
            where = f" ({inner})"
        prim = f" [{self.primitive}]" if self.primitive else ""
        return f"{self.severity} {self.code}{prim}{where}: {self.message}"


@dataclass
class CheckReport:
    """All diagnostics collected by one run of the analyzer."""

    diagnostics: List[Diagnostic] = field(default_factory=list)

    # -- construction ------------------------------------------------------
    def add(self, code: str, severity: str, message: str,
            primitive: Optional[str] = None,
            kernel: Optional[str] = None,
            axis: Optional[str] = None) -> Diagnostic:
        diag = Diagnostic(code, severity, message,
                          primitive=primitive, kernel=kernel, axis=axis)
        self.diagnostics.append(diag)
        return diag

    def append(self, diag: Diagnostic) -> None:
        self.diagnostics.append(diag)

    def extend(self, other: "CheckReport") -> None:
        self.diagnostics.extend(other.diagnostics)

    # -- queries -----------------------------------------------------------
    @property
    def errors(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == "error"]

    @property
    def warnings(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == "warning"]

    @property
    def ok(self) -> bool:
        """True when no *error*-severity diagnostics were found."""
        return not self.errors

    def codes(self) -> List[str]:
        return [d.code for d in self.diagnostics]

    def by_code(self, code: str) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.code == code]

    def __iter__(self) -> Iterator[Diagnostic]:
        return iter(self.diagnostics)

    def __len__(self) -> int:
        return len(self.diagnostics)

    # -- rendering ---------------------------------------------------------
    def format(self) -> str:
        """One line per diagnostic, errors first, plus a summary line."""
        ordered = self.errors + self.warnings
        lines = [d.format() for d in ordered]
        lines.append(
            f"{len(self.errors)} error(s), {len(self.warnings)} warning(s)"
        )
        return "\n".join(lines)

    def raise_if_errors(self) -> None:
        """Raise :class:`DiagnosticError` when any error was found."""
        if self.errors:
            raise DiagnosticError(self.errors)


class DiagnosticError(ValueError):
    """The analyzer found error-severity diagnostics.

    The message begins with ``illegal schedule:`` for continuity with
    the legacy :class:`~repro.schedule.legality.LegalityError` wording
    (CLI users and tests grep for that prefix).
    """

    def __init__(self, diagnostics: Iterable[Diagnostic]):
        self.diagnostics: Tuple[Diagnostic, ...] = tuple(diagnostics)
        lines = "\n".join(f"- {d.format()}" for d in self.diagnostics)
        super().__init__(f"illegal schedule:\n{lines}")
