"""Expression IR nodes (Table 2 of the paper).

The expression IR is a small arithmetic language over scalar variables,
constants and tensor accesses with constant spatial offsets.  The node
inventory follows Table 2:

============== =====================================================
Node           Description
============== =====================================================
``AssignExpr``   value assignment (tensor access <- expression)
``OperatorExpr`` unary / binary math operator
``CallFuncExpr`` external function call (e.g. ``sqrt``)
``IndexExpr``    index calculation (loop variable + constant offset)
============== =====================================================

plus the leaves ``ConstExpr`` (literal) and ``VarExpr`` (scalar
variable) and ``TensorAccess`` which ties a tensor to a tuple of
:class:`IndexExpr` and an optional *time offset* used by stencils with
multiple time dependencies.

All nodes are immutable; Python operators are overloaded so stencil
authors can write ``c0 * B[k, j, i] + c1 * B[k, j, i - 1]`` directly.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator, List, Tuple, Union

__all__ = [
    "Expr",
    "ConstExpr",
    "VarExpr",
    "IndexExpr",
    "TensorAccess",
    "OperatorExpr",
    "CallFuncExpr",
    "AssignExpr",
    "as_expr",
    "structural_digest",
    "UNARY_OPS",
    "BINARY_OPS",
    "KNOWN_FUNCS",
]

Number = Union[int, float]

#: Unary operators supported by :class:`OperatorExpr`.
UNARY_OPS = {"neg": lambda a: -a}

#: Binary operators supported by :class:`OperatorExpr`.
BINARY_OPS = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
    "div": lambda a, b: a / b,
}

#: External functions callable through :class:`CallFuncExpr`.  Each maps
#: to a numpy ufunc in the executable backend and to a libm call in the
#: C backend.
KNOWN_FUNCS = {
    "sqrt": "sqrt",
    "sin": "sin",
    "cos": "cos",
    "exp": "exp",
    "fabs": "abs",
    "pow": "power",
    "fmin": "minimum",
    "fmax": "maximum",
}


class Expr:
    """Base class of all expression IR nodes."""

    # -- operator overloading -------------------------------------------------
    def __add__(self, other) -> "OperatorExpr":
        return OperatorExpr("add", (self, as_expr(other)))

    def __radd__(self, other) -> "OperatorExpr":
        return OperatorExpr("add", (as_expr(other), self))

    def __sub__(self, other) -> "OperatorExpr":
        return OperatorExpr("sub", (self, as_expr(other)))

    def __rsub__(self, other) -> "OperatorExpr":
        return OperatorExpr("sub", (as_expr(other), self))

    def __mul__(self, other) -> "OperatorExpr":
        return OperatorExpr("mul", (self, as_expr(other)))

    def __rmul__(self, other) -> "OperatorExpr":
        return OperatorExpr("mul", (as_expr(other), self))

    def __truediv__(self, other) -> "OperatorExpr":
        return OperatorExpr("div", (self, as_expr(other)))

    def __rtruediv__(self, other) -> "OperatorExpr":
        return OperatorExpr("div", (as_expr(other), self))

    def __neg__(self) -> "OperatorExpr":
        return OperatorExpr("neg", (self,))

    # -- traversal -------------------------------------------------------------
    def children(self) -> Tuple["Expr", ...]:
        """Direct sub-expressions of this node."""
        return ()

    def walk(self) -> Iterator["Expr"]:
        """Pre-order traversal of the expression tree (self included)."""
        # an explicit stack: nested ``yield from`` costs O(depth) per
        # node, quadratic on the left-deep sums of 100+ point kernels
        stack: List[Expr] = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children()))

    # -- structural identity -----------------------------------------------------
    def _token(self) -> Tuple:
        """Everything this node holds besides its children, plus enough
        to fix how many children follow (see :func:`structural_digest`).
        """
        raise NotImplementedError


def structural_digest(head, expr: Expr) -> str:
    """sha256 over ``head`` and the pre-order token stream of ``expr``.

    Every token fixes its node's arity, so the prefix order decodes to
    one tree only: equal digests mean structurally equal expressions
    (up to sha256), whatever surface syntax they were written in.
    """
    tokens = [node._token() for node in expr.walk()]
    return hashlib.sha256(repr((head, tokens)).encode()).hexdigest()


def as_expr(value) -> Expr:
    """Coerce a Python number (or Expr) into an :class:`Expr`."""
    if isinstance(value, Expr):
        return value
    if isinstance(value, bool):
        raise TypeError("booleans are not valid stencil expressions")
    if isinstance(value, (int, float)):
        return ConstExpr(value)
    raise TypeError(f"cannot convert {type(value).__name__} to Expr")


@dataclass(frozen=True)
class ConstExpr(Expr):
    """A numeric literal."""

    value: Number

    def _token(self) -> Tuple:
        # 1 and 1.0 compare equal but render to different C
        return ("c", type(self.value).__name__, repr(self.value))


@dataclass(frozen=True)
class VarExpr(Expr):
    """A scalar variable (loop index or runtime coefficient).

    Created in the DSL via ``DefVar(name, dtype)`` / ``indices``.
    """

    name: str
    dtype_name: str = "i32"

    def __post_init__(self) -> None:
        if not self.name.isidentifier():
            raise ValueError(f"invalid variable name {self.name!r}")

    def _token(self) -> Tuple:
        return ("v", self.name, self.dtype_name)

    # Loop-index arithmetic: ``i - 1`` inside a subscript must stay an
    # IndexExpr so the halo analysis can read the constant offset.
    def __add__(self, other):
        if isinstance(other, int):
            return IndexExpr(self, other)
        return super().__add__(other)

    def __sub__(self, other):
        if isinstance(other, int):
            return IndexExpr(self, -other)
        return super().__sub__(other)


@dataclass(frozen=True)
class IndexExpr(Expr):
    """An index calculation: loop variable plus a constant offset."""

    var: VarExpr
    offset: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.offset, int):
            raise TypeError("IndexExpr offset must be an int")

    def children(self) -> Tuple[Expr, ...]:
        return (self.var,)

    def _token(self) -> Tuple:
        return ("i", self.offset)

    def __add__(self, other):
        if isinstance(other, int):
            return IndexExpr(self.var, self.offset + other)
        return super().__add__(other)

    def __sub__(self, other):
        if isinstance(other, int):
            return IndexExpr(self.var, self.offset - other)
        return super().__sub__(other)


@dataclass(frozen=True)
class TensorAccess(Expr):
    """Read (or, as an assignment target, write) one grid point.

    ``indices`` holds one :class:`IndexExpr` per spatial dimension.
    ``time_offset`` selects a plane of the sliding time window: 0 is the
    plane being produced, -1 the previous timestep, and so on.
    """

    tensor: "object"  # SpNode/TeNode; typed loosely to avoid a cycle
    indices: Tuple[IndexExpr, ...]
    time_offset: int = 0

    def __post_init__(self) -> None:
        norm = []
        for ix in self.indices:
            if isinstance(ix, VarExpr):
                ix = IndexExpr(ix, 0)
            if not isinstance(ix, IndexExpr):
                raise TypeError(
                    "tensor subscripts must be loop variables with constant "
                    f"offsets, got {type(ix).__name__}"
                )
            norm.append(ix)
        object.__setattr__(self, "indices", tuple(norm))
        if self.time_offset > 0:
            raise ValueError(
                "a stencil cannot read from the future: time_offset must be <= 0"
            )

    @cached_property
    def offsets(self) -> Tuple[int, ...]:
        """The constant spatial offset vector of this access."""
        return tuple(ix.offset for ix in self.indices)

    def children(self) -> Tuple[Expr, ...]:
        return self.indices

    def _token(self) -> Tuple:
        return ("a", self.tensor.signature, self.time_offset,
                len(self.indices))


@dataclass(frozen=True)
class OperatorExpr(Expr):
    """A unary or binary arithmetic operator."""

    op: str
    operands: Tuple[Expr, ...]

    def __post_init__(self) -> None:
        if self.op in UNARY_OPS:
            if len(self.operands) != 1:
                raise ValueError(f"unary op {self.op!r} takes 1 operand")
        elif self.op in BINARY_OPS:
            if len(self.operands) != 2:
                raise ValueError(f"binary op {self.op!r} takes 2 operands")
        else:
            raise ValueError(f"unknown operator {self.op!r}")
        object.__setattr__(self, "operands", tuple(self.operands))

    def children(self) -> Tuple[Expr, ...]:
        return self.operands

    def _token(self) -> Tuple:
        return ("o", self.op)  # the operator fixes the arity


@dataclass(frozen=True)
class CallFuncExpr(Expr):
    """A call to an external (libm-style) function."""

    func: str
    args: Tuple[Expr, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.func not in KNOWN_FUNCS:
            raise ValueError(
                f"unknown external function {self.func!r}; "
                f"supported: {sorted(KNOWN_FUNCS)}"
            )
        object.__setattr__(self, "args", tuple(as_expr(a) for a in self.args))

    def children(self) -> Tuple[Expr, ...]:
        return self.args

    def _token(self) -> Tuple:
        return ("f", self.func, len(self.args))


@dataclass(frozen=True)
class AssignExpr(Expr):
    """A value assignment: one output grid point per loop iteration."""

    target: TensorAccess
    value: Expr

    def __post_init__(self) -> None:
        if not isinstance(self.target, TensorAccess):
            raise TypeError("assignment target must be a TensorAccess")
        if any(ix.offset != 0 for ix in self.target.indices):
            raise ValueError(
                "assignment target must be the centre point (zero offsets)"
            )
        object.__setattr__(self, "value", as_expr(self.value))

    def children(self) -> Tuple[Expr, ...]:
        return (self.target, self.value)

    def _token(self) -> Tuple:
        return ("=",)
