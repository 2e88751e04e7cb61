"""Whole-program IR validation.

Run before scheduling and code generation; collects all violations
instead of stopping at the first so DSL users get a complete report.

:func:`stencil_issues` is the collector — it returns ``(category,
message)`` pairs so callers that need structure (the static analyzer in
:mod:`repro.analysis`) can map categories to diagnostic codes, while
:func:`validate_stencil` keeps the original raise-on-anything contract.
"""

from __future__ import annotations

from typing import List, Tuple

from .expr import ConstExpr
from .program import KernelProgram
from .stencil import Stencil

__all__ = ["ValidationError", "stencil_issues", "validate_stencil"]


class ValidationError(ValueError):
    """Raised when a stencil program is ill-formed; carries all issues."""

    def __init__(self, issues: List[str]):
        self.issues = list(issues)
        super().__init__(
            "invalid stencil program:\n" + "\n".join(f"- {i}" for i in issues)
        )


#: where a Stencil node keeps its collected issues (it is frozen, so
#: they cannot change: the functools.cached_property storage scheme)
_ISSUES_SLOT = "_validation_issues"


def stencil_issues(stencil: Stencil) -> List[Tuple[str, str]]:
    """Collect every IR-level problem as ``(category, message)`` pairs.

    Categories: ``halo`` (radius exceeds a halo width), ``time_window``,
    ``dimension``, ``offset``, ``future``, ``dtype``, ``degenerate``,
    ``expression`` (a node that is no stencil value), ``constant`` (a
    literal-only sub-expression that raises or is not finite).
    Collected once per node; later calls return the stored list.
    """
    found = stencil.__dict__.get(_ISSUES_SLOT)
    if found is None:
        found = stencil.__dict__[_ISSUES_SLOT] = tuple(
            _collect_issues(stencil)
        )
    return list(found)


def _collect_issues(stencil: Stencil) -> List[Tuple[str, str]]:
    issues: List[Tuple[str, str]] = []
    out = stencil.output

    for d, (need, have) in enumerate(zip(stencil.radius, out.halo)):
        if need > have:
            issues.append((
                "halo",
                f"dimension {d}: stencil radius {need} exceeds halo width "
                f"{have} of output {out.name!r}",
            ))

    if stencil.required_time_window > out.time_window:
        issues.append((
            "time_window",
            f"stencil needs a time window of {stencil.required_time_window} "
            f"but {out.name!r} keeps only {out.time_window} planes",
        ))

    dtypes = {out.dtype.name}
    for kern in stencil.kernels:
        for tensor in kern.input_tensors:
            dtypes.add(tensor.dtype.name)
            if tensor.ndim != out.ndim:
                issues.append((
                    "dimension",
                    f"kernel {kern.name!r} reads {tensor.ndim}-D tensor "
                    f"{tensor.name!r} but output is {out.ndim}-D",
                ))
                continue
            halo = getattr(tensor, "halo", (0,) * tensor.ndim)
            for off in kern.footprint:
                for d, o in enumerate(off):
                    if abs(o) > halo[d]:
                        issues.append((
                            "offset",
                            f"kernel {kern.name!r} reads offset {off} of "
                            f"{tensor.name!r} beyond its halo {halo}",
                        ))
                        break

    if len(stencil.applications) > 1:
        for app in stencil.applications:
            for acc in app.kernel.accesses:
                if acc.time_offset > 0:
                    issues.append((
                        "future",
                        f"kernel {app.kernel.name!r} reads a future plane",
                    ))

    if len(dtypes) > 1:
        issues.append((
            "dtype",
            f"mixed dtypes in one stencil: {sorted(dtypes)} (cast inputs "
            "to a common type)",
        ))

    for kern in stencil.kernels:
        if kern.npoints == 0:
            issues.append((
                "degenerate", f"kernel {kern.name!r} reads no tensor data"
            ))
        if all(
            isinstance(n, ConstExpr)
            for n in kern.expr.walk()
            if not n.children()
        ):
            issues.append((
                "degenerate", f"kernel {kern.name!r} is a constant expression"
            ))
        # a lowering of its own: ``kern.program`` is filled by the first
        # backend to use the kernel (``numpy.plan.lower`` counts that)
        try:
            unfoldable = KernelProgram(kern).unfoldable
        except TypeError as err:
            issues.append(("expression", f"kernel {kern.name!r}: {err}"))
        else:
            issues += [
                ("constant", f"kernel {kern.name!r}: constant {what}")
                for what in unfoldable
            ]

    return issues


def validate_stencil(stencil: Stencil) -> None:
    """Validate a stencil program, raising :class:`ValidationError`.

    Checks:
    - halo widths cover every kernel's radius,
    - the time window covers the deepest time dependency,
    - every kernel reads only tensors with matching dimensionality,
    - offsets stay within the declared halo,
    - kernels do not read the plane currently being written (offset 0
      inside a multi-time-dependency stencil would be a race),
    - dtype consistency across the tensors of one stencil,
    - every constant sub-expression folds to a finite value (``1/0``
      or ``exp(1000.0)`` has no C literal).
    """
    issues = [msg for _, msg in stencil_issues(stencil)]
    if issues:
        raise ValidationError(issues)
