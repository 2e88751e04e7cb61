"""The ``Stencil`` IR node: a stencil with multiple time dependencies.

A Stencil combines the outputs of one or more :class:`Kernel`
applications from *different past timesteps* into the grid value at the
current timestep — the paper's headline expressibility feature
(``Res[t] << S[t-1] + S[t-2]``, Listing 1 line 12).  Each timestep of
execution therefore:

1. evaluates every distinct ``(kernel, time_offset)`` pair against the
   corresponding plane of the sliding time window,
2. combines them with the stencil's arithmetic expression, and
3. commits the result as the window's newest plane.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Tuple

from .expr import (
    ConstExpr,
    Expr,
    IndexExpr,
    OperatorExpr,
    VarExpr,
    as_expr,
    structural_digest,
)
from .kernel import Kernel, KernelApply
from .tensor import SpNode

__all__ = ["Stencil", "TIME_VAR", "resolve_time_offset"]

#: The symbolic time variable ``t`` used in stencil definitions.
TIME_VAR = VarExpr("t")


def resolve_time_offset(time_ref) -> int:
    """Turn ``t``, ``t - 1``, ``t - 2`` ... into 0, -1, -2 ...

    Raises if the reference is not the symbolic time variable with a
    constant offset.
    """
    if isinstance(time_ref, VarExpr):
        time_ref = IndexExpr(time_ref, 0)
    if isinstance(time_ref, int):
        return time_ref
    if not isinstance(time_ref, IndexExpr) or time_ref.var.name != TIME_VAR.name:
        raise TypeError(
            "time references must be built from Stencil.t "
            "(e.g. kernel[t - 1])"
        )
    return time_ref.offset


@dataclass(frozen=True)
class Stencil:
    """A stencil computation with multiple time dependencies.

    Parameters
    ----------
    output:
        The SpNode whose sliding window receives the per-timestep result.
    expr:
        Arithmetic combination of :class:`KernelApply` leaves (and
        constants).  All kernels must share the output's dimensionality.
    """

    output: SpNode
    expr: Expr

    #: the symbolic time variable, exposed as in the paper (``Stencil::t``)
    t = TIME_VAR

    def __post_init__(self) -> None:
        object.__setattr__(self, "expr", as_expr(self.expr))
        applies = self.applications
        if not applies:
            raise ValueError("a Stencil must apply at least one Kernel")
        for app in applies:
            if app.kernel.ndim != self.output.ndim:
                raise ValueError(
                    f"kernel {app.kernel.name!r} is {app.kernel.ndim}-D but "
                    f"output {self.output.name!r} is {self.output.ndim}-D"
                )
        if self.required_time_window > self.output.time_window:
            raise ValueError(
                f"stencil reads {self.required_time_window - 1} past "
                f"timesteps but output {self.output.name!r} keeps a window "
                f"of only {self.output.time_window}"
            )

    # -- derived properties -------------------------------------------------------
    @cached_property
    def applications(self) -> Tuple[KernelApply, ...]:
        return tuple(
            n for n in self.expr.walk() if isinstance(n, KernelApply)
        )

    @cached_property
    def kernels(self) -> Tuple[Kernel, ...]:
        """Distinct kernels used, in first-seen order."""
        seen: Dict[str, Kernel] = {}
        for app in self.applications:
            seen.setdefault(app.kernel.name, app.kernel)
        return tuple(seen.values())

    @cached_property
    def time_offsets(self) -> Tuple[int, ...]:
        """Sorted distinct past timesteps read (e.g. ``(-2, -1)``)."""
        return tuple(sorted({a.time_offset for a in self.applications}))

    @property
    def time_dependencies(self) -> int:
        """Number of distinct past timesteps read (Table 4 'Time Dep.')."""
        return len(self.time_offsets)

    @cached_property
    def deepest_read(self) -> int:
        """The most negative *effective* step read, application offset
        plus any kernel-internal ``tensor.at(-k)`` offset on the output
        tensor (auxiliary tensors are time-invariant)."""
        deepest = 0
        out_name = self.output.name
        for app in self.applications:
            inner = min(
                (acc.time_offset for acc in app.kernel.accesses
                 if acc.tensor.name == out_name),
                default=0,
            )
            deepest = min(deepest, app.time_offset + inner)
        return deepest

    @cached_property
    def required_time_window(self) -> int:
        """Planes that must be live at once (Fig. 5): deepest read + 1."""
        return -self.deepest_read + 1

    @property
    def ndim(self) -> int:
        return self.output.ndim

    @cached_property
    def radius(self) -> Tuple[int, ...]:
        """Per-dimension halo demand: the max radius over all kernels."""
        rad = [0] * self.ndim
        for k in self.kernels:
            for d, r in enumerate(k.radius):
                rad[d] = max(rad[d], r)
        return tuple(rad)

    @cached_property
    def fingerprint(self) -> str:
        """Structural identity of the whole program: output tensor,
        combination tree and, through its leaves, every kernel and
        tensor read.  Total over everything the IR can express — it
        never goes through the surface-syntax printer."""
        return structural_digest(self.output.signature, self.expr)

    def validate_halo(self) -> None:
        """Check the output tensor's halo covers the stencil radius."""
        for d, (need, have) in enumerate(zip(self.radius, self.output.halo)):
            if need > have:
                raise ValueError(
                    f"dimension {d}: stencil radius {need} exceeds halo "
                    f"width {have} of {self.output.name!r}"
                )

    def combination_terms(self) -> List[Tuple[float, KernelApply]]:
        """Flatten the combine expression into weighted KernelApply terms.

        Supports the practically occurring forms: sums/differences of
        optionally scalar-scaled kernel applications.  Raises on
        anything non-linear (e.g. a product of two applications), which
        the executable backend evaluates generically instead.
        """
        return list(self._terms)

    @cached_property
    def _terms(self) -> Tuple[Tuple[float, KernelApply], ...]:
        terms: List[Tuple[float, KernelApply]] = []

        def visit(e: Expr, scale: float) -> None:
            if isinstance(e, KernelApply):
                terms.append((scale, e))
            elif isinstance(e, OperatorExpr) and e.op == "add":
                visit(e.operands[0], scale)
                visit(e.operands[1], scale)
            elif isinstance(e, OperatorExpr) and e.op == "sub":
                visit(e.operands[0], scale)
                visit(e.operands[1], -scale)
            elif isinstance(e, OperatorExpr) and e.op == "neg":
                visit(e.operands[0], -scale)
            elif isinstance(e, OperatorExpr) and e.op == "mul":
                a, b = e.operands
                if isinstance(a, ConstExpr):
                    visit(b, scale * a.value)
                elif isinstance(b, ConstExpr):
                    visit(a, scale * b.value)
                else:
                    raise ValueError(
                        "non-linear stencil combination: products of kernel "
                        "applications are not supported"
                    )
            elif isinstance(e, ConstExpr):
                if e.value != 0:
                    raise ValueError(
                        "constant terms in a stencil combination are not "
                        "supported (fold them into a kernel instead)"
                    )
            else:
                raise ValueError(
                    f"unsupported node {type(e).__name__} in stencil "
                    "combination"
                )

        visit(self.expr, 1.0)
        return tuple(terms)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        ks = "+".join(
            f"{a.kernel.name}[t{a.time_offset}]" for a in self.applications
        )
        return f"Stencil({self.output.name} << {ks})"
