"""MSC intermediate representation (Table 2 of the paper).

Single-level IR embedded in the host AST: tensors (``SpNode`` /
``TeNode``), nested loops (``Axis``), expressions (``AssignExpr``,
``OperatorExpr``, ``CallFuncExpr``, ``IndexExpr``), ``Kernel`` and
``Stencil`` nodes, the one lowered form of a kernel every backend
consumes (``KernelProgram``), plus the analyses the schedules and the
performance models consume.
"""

from .dtypes import DType, i32, f32, f64, dtype_from_name
from .expr import (
    AssignExpr,
    CallFuncExpr,
    ConstExpr,
    Expr,
    IndexExpr,
    OperatorExpr,
    TensorAccess,
    VarExpr,
    as_expr,
)
from .axis import Axis
from .tensor import SpNode, TeNode, TensorNode
from .kernel import Kernel, KernelApply
from .program import KernelProgram
from .stencil import Stencil, TIME_VAR
from .pipeline import StagePipeline
from .analysis import (
    KernelCharacteristics,
    characterize_kernel,
    characterize_stencil,
    classify_shape,
    halo_traffic_bytes,
    stencil_flops_per_point,
    total_traffic_bytes,
)
from .validate import ValidationError, validate_stencil

__all__ = [
    "DType", "i32", "f32", "f64", "dtype_from_name",
    "AssignExpr", "CallFuncExpr", "ConstExpr", "Expr", "IndexExpr",
    "OperatorExpr", "TensorAccess", "VarExpr", "as_expr",
    "Axis", "SpNode", "TeNode", "TensorNode",
    "Kernel", "KernelApply", "KernelProgram", "Stencil", "TIME_VAR",
    "StagePipeline",
    "KernelCharacteristics", "characterize_kernel", "characterize_stencil",
    "classify_shape", "halo_traffic_bytes", "stencil_flops_per_point",
    "total_traffic_bytes",
    "ValidationError", "validate_stencil",
]
