"""The ``Kernel`` IR node: a basic stencil kernel (Table 2).

A Kernel is a single spatial stencil sweep: for every point ``(k, j, i)``
of the computation domain it evaluates an expression over neighbouring
points of one or more input tensors.  Kernels are composed of Tensor,
Nested-loop and Expression IR.  Multiple time dependencies are handled
one level up by :class:`~repro.ir.stencil.Stencil`, which combines
kernel applications from different timesteps.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Sequence, Tuple

from .axis import Axis
from .expr import (
    CallFuncExpr,
    Expr,
    OperatorExpr,
    TensorAccess,
    VarExpr,
    as_expr,
    structural_digest,
)
from .program import KernelProgram
from .tensor import SpNode

__all__ = ["Kernel", "KernelApply"]


@dataclass(frozen=True)
class Kernel:
    """A basic stencil kernel.

    Parameters
    ----------
    name:
        Kernel identifier, used in generated code.
    loop_vars:
        The spatial loop variables, outermost first (e.g. ``(k, j, i)``
        for a 3-D kernel).
    expr:
        The update expression; every :class:`TensorAccess` inside must
        subscript exclusively with ``loop_vars`` plus constant offsets.
    """

    name: str
    loop_vars: Tuple[VarExpr, ...]
    expr: Expr

    def __post_init__(self) -> None:
        if not self.name.isidentifier():
            raise ValueError(f"invalid kernel name {self.name!r}")
        lvs = tuple(self.loop_vars)
        if not 1 <= len(lvs) <= 3:
            raise ValueError("kernels must have 1 to 3 loop variables")
        if len({v.name for v in lvs}) != len(lvs):
            raise ValueError("duplicate loop variables")
        object.__setattr__(self, "loop_vars", lvs)
        object.__setattr__(self, "expr", as_expr(self.expr))
        self._validate_accesses()

    # -- validation -----------------------------------------------------------
    def _validate_accesses(self) -> None:
        lv_names = [v.name for v in self.loop_vars]
        for node in self.expr.walk():
            if isinstance(node, TensorAccess):
                tensor = node.tensor
                if tensor.ndim != len(self.loop_vars):
                    raise ValueError(
                        f"kernel {self.name!r} is {len(self.loop_vars)}-D but "
                        f"accesses {tensor.ndim}-D tensor {tensor.name!r}"
                    )
                for dim, ix in enumerate(node.indices):
                    if ix.var.name != lv_names[dim]:
                        raise ValueError(
                            f"dimension {dim} of {tensor.name!r} must be "
                            f"subscripted with {lv_names[dim]!r}, got "
                            f"{ix.var.name!r}"
                        )

    # -- derived properties -----------------------------------------------------
    @property
    def ndim(self) -> int:
        return len(self.loop_vars)

    @cached_property
    def accesses(self) -> Tuple[TensorAccess, ...]:
        """All tensor reads in the update expression, in syntax order
        (walked once: the kernel is immutable and every layer asks)."""
        return tuple(
            n for n in self.expr.walk() if isinstance(n, TensorAccess)
        )

    @cached_property
    def input_tensors(self) -> Tuple[SpNode, ...]:
        """Distinct tensors read by this kernel (first-seen order)."""
        seen: Dict[str, SpNode] = {}
        for acc in self.accesses:
            seen.setdefault(acc.tensor.name, acc.tensor)
        return tuple(seen.values())

    @cached_property
    def footprint(self) -> Tuple[Tuple[int, ...], ...]:
        """Distinct spatial offset vectors read (the stencil's shape)."""
        seen = []
        for acc in self.accesses:
            if acc.offsets not in seen:
                seen.append(acc.offsets)
        return tuple(seen)

    @property
    def npoints(self) -> int:
        """Number of distinct points in the stencil (e.g. 7 for 3d7pt)."""
        return len(self.footprint)

    @cached_property
    def radius(self) -> Tuple[int, ...]:
        """Per-dimension stencil radius (max |offset|); the halo demand."""
        rad = [0] * self.ndim
        for off in self.footprint:
            for d, o in enumerate(off):
                rad[d] = max(rad[d], abs(o))
        return tuple(rad)

    @cached_property
    def time_offsets(self) -> Tuple[int, ...]:
        """Sorted distinct time offsets read by the expression."""
        return tuple(sorted({a.time_offset for a in self.accesses}))

    @cached_property
    def program(self) -> KernelProgram:
        """The update expression lowered to the flat program every
        backend consumes, constants folded (lowered once: the kernel is
        immutable)."""
        return KernelProgram(self)

    @cached_property
    def fingerprint(self) -> str:
        """Structural identity: equal for two kernels exactly when
        name, loop variables and expression tree are (not when they
        merely print alike)."""
        head = (self.name, [v._token() for v in self.loop_vars])
        return structural_digest(head, self.expr)

    def default_axes(self, shape: Sequence[int]) -> List[Axis]:
        """The untransformed loop nest over a domain of ``shape``."""
        if len(shape) != self.ndim:
            raise ValueError(
                f"shape has {len(shape)} dims for a {self.ndim}-D kernel"
            )
        return [
            Axis(v, order=i, start=0, end=int(s))
            for i, (v, s) in enumerate(zip(self.loop_vars, shape))
        ]

    @cached_property
    def _flops(self) -> int:
        return sum(
            isinstance(node, (OperatorExpr, CallFuncExpr))
            for node in self.expr.walk()
        )

    def flops(self) -> int:
        """Arithmetic operations (+, -, ×, ÷ and calls) per grid point.

        Matches the paper's ``Ops(+-×)`` column of Table 4.
        """
        return self._flops

    # -- time application --------------------------------------------------------
    def __getitem__(self, time_ref) -> "KernelApply":
        """``kernel[t - 1]`` — apply this kernel to the state at t-1.

        ``time_ref`` is an :class:`~repro.ir.expr.IndexExpr` built from
        the symbolic time variable ``Stencil.t`` (e.g. ``t - 1``).
        """
        from .stencil import resolve_time_offset

        return KernelApply(self, resolve_time_offset(time_ref))

    def at(self, time_offset: int) -> "KernelApply":
        """Apply this kernel to the grid state ``time_offset`` steps back."""
        return KernelApply(self, int(time_offset))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        vars_ = ", ".join(v.name for v in self.loop_vars)
        return f"Kernel({self.name}({vars_}), {self.npoints}pt)"


@dataclass(frozen=True)
class KernelApply(Expr):
    """A kernel evaluated against the grid state at a past timestep.

    These are the leaves of a :class:`~repro.ir.stencil.Stencil`
    expression: ``Res[t] << S[t-1] + S[t-2]`` builds an expression whose
    leaves are ``KernelApply(S, -1)`` and ``KernelApply(S, -2)``.
    """

    kernel: Kernel
    time_offset: int

    def __post_init__(self) -> None:
        if self.time_offset >= 0:
            raise ValueError(
                "a stencil may only combine kernels from past timesteps "
                f"(got offset {self.time_offset})"
            )

    def _token(self) -> Tuple:
        return ("k", self.kernel.fingerprint, self.time_offset)

    def children(self) -> Tuple[Expr, ...]:
        return ()
