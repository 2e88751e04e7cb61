"""Textual MSC language: lexer + parser for Listing-1-style programs.

The paper embeds MSC in C++; alongside the Python embedding
(:mod:`repro.frontend.dsl`) this module accepts the *textual* form so
stencil programs can live in ``.msc`` files::

    const N = 64;
    const halo_width = 1;
    const time_window_size = 3;
    DefVar(k, i32); DefVar(j, i32); DefVar(i, i32);
    DefTensor3D_TimeWin(B, time_window_size, halo_width, f64, N, N, N);
    Kernel S_3d7pt((k,j,i), 0.4*B[k,j,i] + 0.1*B[k,j,i-1]
                   + 0.1*B[k,j,i+1] + 0.1*B[k-1,j,i] + 0.1*B[k+1,j,i]
                   + 0.1*B[k,j-1,i] + 0.1*B[k,j+1,i]);
    S_3d7pt.tile(2, 8, 16, xo, xi, yo, yi, zo, zi);
    S_3d7pt.reorder(xo, yo, zo, xi, yi, zi);
    S_3d7pt.parallel(xo, 64);
    Stencil st((k,j,i), B[t] << 0.6*S_3d7pt[t-1] + 0.4*S_3d7pt[t-2]);
    DefShapeMPI3D(shape_mpi, 2, 2, 2);

:func:`parse_program` returns a :class:`ParsedProgram` whose
``program`` is a ready :class:`~repro.frontend.dsl.StencilProgram`.
"""

from __future__ import annotations

import re
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from ..ir.dtypes import DType, dtype_from_name
from ..ir.expr import Expr, VarExpr, as_expr
from ..ir.kernel import KernelApply
from ..ir.pipeline import StagePipeline
from ..ir.stencil import Stencil as IRStencil
from ..ir.tensor import SpNode
from ..ir.validate import validate_stencil
from .dsl import Kernel as make_kernel, KernelHandle, StencilProgram

__all__ = ["MSCSyntaxError", "Token", "tokenize", "ParsedProgram",
           "parse_program"]


class MSCSyntaxError(SyntaxError):
    """A lexing or parsing error in an MSC program."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


@contextmanager
def _at_line(line: int):
    """Re-raise a ``ValueError`` — an IR constructor's refusal, or a
    ``ValidationError`` — as an :class:`MSCSyntaxError` at ``line``."""
    try:
        yield
    except ValueError as exc:
        raise MSCSyntaxError(str(exc), line) from exc


@dataclass(frozen=True)
class Token:
    kind: str  # ident | number | string | op
    text: str
    line: int


_TOKEN_RE = re.compile(
    r"""
    (?P<comment>//[^\n]*|/\*.*?\*/)
  | (?P<string>"[^"\n]*")
  | (?P<number>(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op><<|[-+*/(),;.\[\]=<>])
  | (?P<ws>[ \t\r]+)
  | (?P<nl>\n)
  | (?P<bad>.)
    """,
    re.VERBOSE | re.DOTALL,
)


def tokenize(source: str) -> List[Token]:
    """Lex an MSC program; comments and whitespace are dropped."""
    tokens: List[Token] = []
    line = 1
    for m in _TOKEN_RE.finditer(source):
        kind = m.lastgroup
        text = m.group()
        if kind == "nl":
            line += 1
            continue
        if kind in ("ws",):
            continue
        if kind == "comment":
            line += text.count("\n")
            continue
        if kind == "bad":
            raise MSCSyntaxError(f"unexpected character {text!r}", line)
        tokens.append(Token(kind, text, line))
    return tokens


@dataclass
class ParsedProgram:
    """Result of parsing one MSC source file.

    ``program`` runs, checks and compiles it; a file with several
    ``Stencil`` declarations is a program over a multi-stage
    :class:`~repro.ir.pipeline.StagePipeline` (declaration order =
    stage order).
    """

    program: StencilProgram
    kernels: Dict[str, KernelHandle]
    tensors: Dict[str, SpNode]
    consts: Dict[str, float]
    mpi_grid: Optional[Tuple[int, ...]] = None
    stencil_name: str = "st"
    #: (mpi shape var, tensor, data source) from ``st.input(...)``
    input_spec: Optional[Tuple[str, str, str]] = None
    #: (t_begin, t_end) from ``st.run(...)``
    run_spec: Optional[Tuple[int, int]] = None
    #: output name from ``st.compile_to_source_code(...)``
    compile_spec: Optional[str] = None

    @property
    def timesteps(self) -> Optional[int]:
        if self.run_spec is None:
            return None
        return self.run_spec[1] - self.run_spec[0] + 1


class _Parser:
    """Recursive-descent parser over the token stream."""

    def __init__(self, tokens: List[Token]):
        self.tokens = tokens
        self.pos = 0
        self.consts: Dict[str, Union[int, float]] = {}
        self.vars: Dict[str, VarExpr] = {}
        self.tensors: Dict[str, SpNode] = {}
        self.kernels: Dict[str, KernelHandle] = {}
        self.mpi_grid: Optional[Tuple[int, ...]] = None
        #: line of the ``DefShapeMPI`` statement that set ``mpi_grid``
        self.mpi_line = 1
        #: (name, output, expression, line) per ``Stencil`` statement
        self.stencils: List[Tuple[str, SpNode, Expr, int]] = []
        self.stencil_name: Optional[str] = None
        self.input_spec: Optional[Tuple[Optional[str], str, str]] = None
        self.run_spec: Optional[Tuple[int, int]] = None
        self.compile_spec: Optional[str] = None

    # -- token helpers --------------------------------------------------------
    def _peek(self) -> Optional[Token]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _next(self) -> Token:
        tok = self._peek()
        if tok is None:
            last = self.tokens[-1].line if self.tokens else 1
            raise MSCSyntaxError("unexpected end of program", last)
        self.pos += 1
        return tok

    def _expect(self, text: str) -> Token:
        tok = self._next()
        if tok.text != text:
            raise MSCSyntaxError(
                f"expected {text!r}, got {tok.text!r}", tok.line
            )
        return tok

    def _expect_ident(self) -> Token:
        tok = self._next()
        if tok.kind != "ident":
            raise MSCSyntaxError(
                f"expected identifier, got {tok.text!r}", tok.line
            )
        return tok

    def _accept(self, text: str) -> bool:
        tok = self._peek()
        if tok is not None and tok.text == text:
            self.pos += 1
            return True
        return False

    # -- program structure --------------------------------------------------------
    def parse(self) -> None:
        while self._peek() is not None:
            self._statement()

    def _statement(self) -> None:
        """One statement; what its IR constructors refuse (a window
        under 2 planes, a misplaced loop variable ...) is reported at
        the statement's first line."""
        tok = self._peek()
        assert tok is not None
        with _at_line(tok.line):
            self._dispatch(tok)

    def _dispatch(self, tok: Token) -> None:
        if tok.text == "const":
            self._const_decl()
        elif tok.text == "DefVar":
            self._defvar()
        elif tok.text.startswith("DefTensor"):
            self._deftensor(tok.text)
        elif tok.text.startswith("DefShapeMPI"):
            self._defshape(tok.text)
        elif tok.text == "Kernel":
            self._kernel_decl()
        elif tok.text == "Stencil":
            self._stencil_decl()
        elif tok.kind == "ident" and tok.text in self.kernels:
            self._schedule_call()
        elif tok.kind == "ident" and tok.text == self.stencil_name:
            self._driver_call()
        else:
            raise MSCSyntaxError(
                f"unexpected statement start {tok.text!r}", tok.line
            )

    def _const_decl(self) -> None:
        self._expect("const")
        name = self._expect_ident()
        self._expect("=")
        value = self._number_or_const()
        self._expect(";")
        self.consts[name.text] = value

    def _number_or_const(self) -> Union[int, float]:
        tok = self._next()
        if tok.kind == "number":
            return (
                float(tok.text)
                if any(c in tok.text for c in ".eE")
                else int(tok.text)
            )
        if tok.kind == "ident" and tok.text in self.consts:
            return self.consts[tok.text]
        raise MSCSyntaxError(
            f"expected number or known constant, got {tok.text!r}", tok.line
        )

    def _defvar(self) -> None:
        self._expect("DefVar")
        self._expect("(")
        name = self._expect_ident()
        self._expect(",")
        dt = self._dtype()
        self._expect(")")
        self._expect(";")
        self.vars[name.text] = VarExpr(name.text, dt.name)

    def _dtype(self) -> DType:
        tok = self._expect_ident()
        try:
            return dtype_from_name(tok.text)
        except KeyError as exc:
            raise MSCSyntaxError(exc.args[0], tok.line) from None

    def _deftensor(self, head: str) -> None:
        m = re.fullmatch(r"DefTensor([123])D(_TimeWin)?", head)
        if not m:
            tok = self._peek()
            raise MSCSyntaxError(
                f"unknown tensor declarator {head!r}",
                tok.line if tok else 1,
            )
        ndim = int(m.group(1))
        has_window = m.group(2) is not None
        self._next()  # consume declarator
        self._expect("(")
        name = self._expect_ident()
        self._expect(",")
        window = 2
        if has_window:
            window = int(self._number_or_const())
            self._expect(",")
        halo = int(self._number_or_const())
        self._expect(",")
        dt = self._dtype()
        dims = []
        for _ in range(ndim):
            self._expect(",")
            dims.append(int(self._number_or_const()))
        self._expect(")")
        self._expect(";")
        self.tensors[name.text] = SpNode(
            name.text, tuple(dims), dt,
            halo=(halo,) * ndim, time_window=window,
        )

    def _defshape(self, head: str) -> None:
        m = re.fullmatch(r"DefShapeMPI([123])D", head)
        if not m:
            tok = self._peek()
            raise MSCSyntaxError(
                f"unknown MPI shape declarator {head!r}",
                tok.line if tok else 1,
            )
        ndim = int(m.group(1))
        head = self._next()
        self._expect("(")
        self._expect_ident()  # the shape variable name
        dims = []
        for _ in range(ndim):
            self._expect(",")
            dims.append(int(self._number_or_const()))
        self._expect(")")
        self._accept(";")
        self.mpi_grid = tuple(dims)
        self.mpi_line = head.line

    def _loop_var_list(self) -> Tuple[VarExpr, ...]:
        self._expect("(")
        out = []
        while True:
            v = self._expect_ident()
            if v.text not in self.vars:
                raise MSCSyntaxError(
                    f"undeclared loop variable {v.text!r}", v.line
                )
            out.append(self.vars[v.text])
            if not self._accept(","):
                break
        self._expect(")")
        return tuple(out)

    def _kernel_decl(self) -> None:
        self._expect("Kernel")
        name = self._expect_ident()
        self._expect("(")
        loop_vars = self._loop_var_list()
        self._expect(",")
        expr = self._expression()
        self._expect(")")
        self._expect(";")
        if name.text in self.kernels:
            raise MSCSyntaxError(
                f"kernel {name.text!r} redefined", name.line
            )
        self.kernels[name.text] = make_kernel(name.text, loop_vars, expr)

    def _stencil_decl(self) -> None:
        tok = self._expect("Stencil")
        name = self._expect_ident()
        self._expect("(")
        self._loop_var_list()
        self._expect(",")
        out = self._expect_ident()
        if out.text not in self.tensors:
            raise MSCSyntaxError(
                f"stencil output {out.text!r} is not a tensor", out.line
            )
        self._expect("[")
        tvar = self._expect_ident()
        if tvar.text != "t":
            raise MSCSyntaxError(
                f"stencil output must be indexed with t, got {tvar.text!r}",
                tvar.line,
            )
        self._expect("]")
        self._expect("<<")
        expr = self._expression()
        self._expect(")")
        self._expect(";")
        if any(entry[0] == name.text for entry in self.stencils):
            raise MSCSyntaxError(
                f"stencil {name.text!r} redefined", name.line
            )
        self.stencils.append(
            (name.text, self.tensors[out.text], expr, tok.line))
        if self.stencil_name is None:
            self.stencil_name = name.text

    def _schedule_call(self) -> None:
        kname = self._expect_ident()
        handle = self.kernels[kname.text]
        self._expect(".")
        meth = self._expect_ident()
        self._expect("(")
        args: List[Union[int, float, str]] = []
        if not self._accept(")"):
            while True:
                tok = self._next()
                if tok.kind == "number":
                    args.append(
                        float(tok.text)
                        if any(c in tok.text for c in ".eE")
                        else int(tok.text)
                    )
                elif tok.kind == "string":
                    args.append(tok.text.strip('"'))
                elif tok.kind == "ident":
                    if tok.text in self.consts:
                        args.append(self.consts[tok.text])
                    else:
                        args.append(tok.text)
                else:
                    raise MSCSyntaxError(
                        f"bad schedule argument {tok.text!r}", tok.line
                    )
                if not self._accept(","):
                    break
            self._expect(")")
        self._expect(";")
        method = getattr(handle, meth.text, None)
        if method is None or meth.text not in (
            "tile", "reorder", "parallel", "cache_read", "cache_write",
            "compute_at", "vectorize", "unroll",
        ):
            raise MSCSyntaxError(
                f"unknown scheduling primitive {meth.text!r}", meth.line
            )
        if meth.text == "cache_read":
            tensor_name = args[0]
            if tensor_name not in self.tensors:
                raise MSCSyntaxError(
                    f"cache_read of unknown tensor {tensor_name!r}",
                    meth.line,
                )
            args[0] = self.tensors[tensor_name]
        try:
            method(*args)
        except (ValueError, TypeError) as exc:
            raise MSCSyntaxError(str(exc), meth.line) from exc

    def _driver_call(self) -> None:
        """Listing 1 lines 14-16: st.input / st.run /
        st.compile_to_source_code."""
        self._expect_ident()  # the stencil variable
        self._expect(".")
        meth = self._expect_ident()
        self._expect("(")
        if meth.text == "input":
            shape = self._expect_ident()  # MPI shape variable (or none_)
            self._expect(",")
            tensor = self._expect_ident()
            if tensor.text not in self.tensors:
                raise MSCSyntaxError(
                    f"st.input names unknown tensor {tensor.text!r}",
                    tensor.line,
                )
            self._expect(",")
            data = self._next()
            if data.kind != "string":
                raise MSCSyntaxError(
                    "st.input data must be a string (a path or "
                    '"random")', data.line,
                )
            self.input_spec = (
                shape.text, tensor.text, data.text.strip('"')
            )
        elif meth.text == "run":
            begin = int(self._number_or_const())
            self._expect(",")
            end = int(self._number_or_const())
            if end < begin:
                raise MSCSyntaxError(
                    f"st.run({begin}, {end}): end before begin", meth.line
                )
            self.run_spec = (begin, end)
        elif meth.text == "compile_to_source_code":
            name = self._next()
            if name.kind != "string":
                raise MSCSyntaxError(
                    "compile_to_source_code takes a string name", name.line
                )
            self.compile_spec = name.text.strip('"')
        else:
            raise MSCSyntaxError(
                f"unknown stencil method {meth.text!r}", meth.line
            )
        self._expect(")")
        self._expect(";")

    # -- expressions ---------------------------------------------------------------
    def _expression(self) -> Expr:
        return self._additive()

    def _additive(self) -> Expr:
        left = self._multiplicative()
        while True:
            if self._accept("+"):
                left = as_expr(left) + self._multiplicative()
            elif self._accept("-"):
                left = as_expr(left) - self._multiplicative()
            else:
                return as_expr(left)

    def _multiplicative(self) -> Expr:
        left = self._unary()
        while True:
            if self._accept("*"):
                left = as_expr(left) * self._unary()
            elif self._accept("/"):
                left = as_expr(left) / self._unary()
            else:
                return as_expr(left)

    def _unary(self) -> Expr:
        if self._accept("-"):
            return -self._unary()
        if self._accept("+"):
            return self._unary()
        return self._primary()

    def _primary(self) -> Expr:
        tok = self._next()
        if tok.text == "(":
            inner = self._expression()
            self._expect(")")
            return inner
        if tok.kind == "number":
            value = (
                float(tok.text)
                if any(c in tok.text for c in ".eE")
                else int(tok.text)
            )
            return as_expr(value)
        if tok.kind != "ident":
            raise MSCSyntaxError(
                f"unexpected token {tok.text!r} in expression", tok.line
            )
        name = tok.text
        if name in self.consts:
            return as_expr(self.consts[name])
        if name in self.tensors:
            return self._tensor_access(self.tensors[name], tok.line)
        if name in self.kernels:
            return self._kernel_apply(self.kernels[name], tok.line)
        if name in self.vars:
            return self.vars[name]
        raise MSCSyntaxError(f"undefined name {name!r}", tok.line)

    def _index(self) -> Expr:
        """One subscript: a loop variable with an optional ± constant."""
        tok = self._next()
        if tok.kind != "ident" or tok.text not in self.vars:
            raise MSCSyntaxError(
                f"subscripts must be loop variables, got {tok.text!r}",
                tok.line,
            )
        var = self.vars[tok.text]
        if self._accept("+"):
            off = int(self._number_or_const())
            return var + off
        if self._accept("-"):
            off = int(self._number_or_const())
            return var - off
        return var

    def _tensor_access(self, tensor: SpNode, line: int) -> Expr:
        self._expect("[")
        subs = [self._index()]
        while self._accept(","):
            subs.append(self._index())
        self._expect("]")
        if len(subs) != tensor.ndim:
            raise MSCSyntaxError(
                f"{tensor.name} is {tensor.ndim}-D but subscripted with "
                f"{len(subs)} indices",
                line,
            )
        return tensor[tuple(subs)]

    def _kernel_apply(self, handle: KernelHandle, line: int) -> KernelApply:
        self._expect("[")
        tv = self._expect_ident()
        if tv.text != "t":
            raise MSCSyntaxError(
                f"kernels are applied at time t-k, got {tv.text!r}", tv.line
            )
        self._expect("-")
        k = int(self._number_or_const())
        self._expect("]")
        return handle.at(-k)


def parse_program(source: str) -> ParsedProgram:
    """Parse MSC source text into a ready program."""
    from ..obs import span

    with span("frontend.parse", chars=len(source)) as sp:
        parsed = _parse_program(source)
        sp.set(
            stencil=parsed.stencil_name,
            kernels=len(parsed.kernels),
            tensors=len(parsed.tensors),
            stages=len(parsed.program.stages),
        )
    return parsed


def _parse_program(source: str) -> ParsedProgram:
    parser = _Parser(tokenize(source))
    parser.parse()
    if not parser.stencils:
        raise MSCSyntaxError("program has no Stencil declaration", 1)
    # each stage is reported at its Stencil statement, what only their
    # combination gets wrong at the first
    stages = []
    for _, output, expr, line in parser.stencils:
        with _at_line(line):
            stages.append(IRStencil(output, expr))
            validate_stencil(stages[-1])
    with _at_line(parser.stencils[0][3]):
        program = StencilProgram.of(
            stages[0] if len(stages) == 1 else StagePipeline(stages)
        )
    program.attach(*parser.kernels.values())
    if parser.mpi_grid is not None:
        with _at_line(parser.mpi_line):
            program.set_mpi_grid(parser.mpi_grid)
    if parser.input_spec is not None and parser.input_spec[2] == "random":
        program.input(None, parser.tensors[parser.input_spec[1]], "random")
    return ParsedProgram(
        program=program,
        kernels=dict(parser.kernels),
        tensors=dict(parser.tensors),
        consts=dict(parser.consts),
        mpi_grid=parser.mpi_grid,
        stencil_name=parser.stencil_name,
        input_spec=parser.input_spec,
        run_spec=parser.run_spec,
        compile_spec=parser.compile_spec,
    )
