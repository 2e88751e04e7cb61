"""The lowered kernel: one flat program that every backend consumes.

A kernel's update expression is lowered once (:attr:`Kernel.program
<repro.ir.kernel.Kernel.program>`) to its distinct tensor reads — the
*slots* — and a post-order list of ``(name, operands)`` instructions,
``name`` an operator or ``KNOWN_FUNCS`` name.  The numpy engine types
and binds that list; the C emitters print it.  Same instructions, same
order, same association: what one backend computes the other does too.

Constants are decided here and nowhere else.  Every sub-tree with no
tensor read is evaluated once — literals at lowering, free scalars when
:meth:`KernelProgram.fold` is given their values — with exactly the
arithmetic the oracle (``numpy_backend._eval``) applies to plain
scalars: python numbers, ``/`` is true division, a ``KNOWN_FUNCS`` call
goes through the same numpy function.  A backend never sees ``1 / 2``,
only ``0.5``, so it cannot disagree about what ``1 / 2`` means.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Mapping, Tuple

import numpy as np

from .expr import (
    BINARY_OPS,
    KNOWN_FUNCS,
    UNARY_OPS,
    CallFuncExpr,
    ConstExpr,
    IndexExpr,
    OperatorExpr,
    TensorAccess,
    VarExpr,
)

__all__ = ["KernelProgram", "Operand", "Instruction", "SLOT", "TEMP", "VAR",
           "VALUE"]

#: operand kinds: a tensor-access slot, the result of an earlier
#: instruction, a free scalar's name, a python/numpy scalar
SLOT, TEMP, VAR, VALUE = "slot", "temp", "var", "value"

Operand = Tuple[str, Any]
Instruction = Tuple[str, Tuple[Operand, ...]]

#: per instruction name, what the oracle computes on plain scalars
_ON_SCALARS = {
    **UNARY_OPS, **BINARY_OPS,
    **{name: getattr(np, KNOWN_FUNCS[name]) for name in KNOWN_FUNCS},
}


def _emit(code: List[Instruction], name: str,
          operands: Tuple[Operand, ...]) -> Operand:
    """``name(*operands)`` as an operand: its value when every operand
    is one (the fold), else a new instruction of ``code``."""
    if all(kind == VALUE for kind, _ in operands):
        return VALUE, _ON_SCALARS[name](*(value for _, value in operands))
    code.append((name, operands))
    return TEMP, len(code) - 1


def _finite(value) -> bool:
    try:
        return math.isfinite(value)
    except OverflowError:  # a python int beyond the double range
        return False


def _shown(name: str, operands: Tuple[Operand, ...]) -> str:
    return f"{name}({', '.join(str(value) for _, value in operands)})"


class KernelProgram:
    """A kernel's update expression as a flat post-order program.

    ``accesses`` are the distinct tensor reads (the slots); an operand
    of ``code`` references a slot, a constant, a free scalar by name or
    the result of an earlier instruction; ``result`` references the
    kernel's value.  Literal-only sub-trees are already folded.  One
    that cannot become a constant — it raises, or is not finite and so
    has no C literal — is described in ``unfoldable`` (``ir.validate``
    reports those); a raising one stays an instruction, so
    :meth:`fold` raises what the oracle does.  Holds no data and no
    scalar values: one program serves every backend and every run.
    ``typed`` is where a backend keeps what it derives from the program
    per run configuration — the numpy engine's typed terms, by bound
    scalars, scale and output dtype — so runs and rank threads share
    it; those hold no data either.
    """

    __slots__ = ("accesses", "code", "result", "unfoldable", "typed")

    def __init__(self, kernel):
        self.typed: Dict[Any, Any] = {}
        with np.errstate(all="ignore"):  # a bad constant is reported
            self._lower(kernel.expr)

    def _lower(self, expr) -> None:
        slots: Dict[Tuple, int] = {}
        accesses: List[TensorAccess] = []
        code: List[Instruction] = []
        unfoldable: List[str] = []
        done: List[Operand] = []  # values of the finished sub-trees
        todo = [(expr, False)]
        while todo:
            node, expanded = todo.pop()
            if isinstance(node, ConstExpr):
                if not _finite(node.value):
                    unfoldable.append(f"literal {node.value} is not finite")
                done.append((VALUE, node.value))
            elif isinstance(node, TensorAccess):
                key = (node.tensor.name, node.time_offset, node.offsets)
                if key not in slots:
                    slots[key] = len(accesses)
                    accesses.append(node)
                done.append((SLOT, slots[key]))
            elif isinstance(node, VarExpr):
                done.append((VAR, node.name))
            elif isinstance(node, (OperatorExpr, CallFuncExpr)):
                children = node.children()
                if not expanded:
                    todo.append((node, True))
                    todo.extend((c, False) for c in reversed(children))
                    continue
                split = len(done) - len(children)
                name = node.op if isinstance(node, OperatorExpr) else node.func
                operands = tuple(done[split:])
                del done[split:]
                try:
                    value = _emit(code, name, operands)
                except Exception as exc:
                    unfoldable.append(f"{_shown(name, operands)} raises "
                                      f"{type(exc).__name__}: {exc}")
                    code.append((name, operands))
                    value = TEMP, len(code) - 1
                if value[0] == VALUE and not _finite(value[1]):
                    unfoldable.append(
                        f"{_shown(name, operands)} is {value[1]}")
                done.append(value)
            elif isinstance(node, IndexExpr):
                raise TypeError(
                    "bare index expressions outside tensor subscripts are "
                    "not valid stencil values"
                )
            else:
                raise TypeError(
                    f"cannot evaluate IR node {type(node).__name__}"
                )
        self.accesses = tuple(accesses)
        self.code = tuple(code)
        (self.result,) = done
        self.unfoldable = tuple(unfoldable)

    def fold(self, scalars: Mapping[str, float]
             ) -> Tuple[Tuple[Instruction, ...], Operand]:
        """``(code, result)`` with the free scalars bound to ``scalars``
        and every sub-tree that made constant evaluated: the operands
        left are a slot, a value, or the result of an earlier
        instruction *of the returned code*.  Raises what the oracle
        raises: ``KeyError`` for a scalar with no value, the
        arithmetic's own exception for a ``1 / c0`` with ``c0 = 0``.
        """
        code: List[Instruction] = []
        became: List[Operand] = []  # per instruction of ``self.code``

        def bound(ref: Operand) -> Operand:
            kind, payload = ref
            if kind == TEMP:
                return became[payload]
            if kind == VAR:
                try:
                    return VALUE, scalars[payload]
                except KeyError:
                    raise KeyError(
                        f"free scalar {payload!r} has no bound value"
                    ) from None
            return ref

        for name, refs in self.code:
            became.append(_emit(code, name, tuple(bound(r) for r in refs)))
        return tuple(code), bound(self.result)
