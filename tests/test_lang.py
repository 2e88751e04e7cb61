"""Tests for the textual MSC language (lexer + parser)."""

import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.backend.numpy_backend import reference_run
from repro.frontend.lang import (
    MSCSyntaxError,
    parse_program,
    tokenize,
)

VALID_3D = """
// 3d7pt with two time dependencies
const N = 12;
const halo_width = 1;
const time_window_size = 3;
DefVar(k, i32); DefVar(j, i32); DefVar(i, i32);
DefTensor3D_TimeWin(B, time_window_size, halo_width, f64, N, N, N);
Kernel S_3d7pt((k,j,i), 0.4*B[k,j,i] + 0.1*B[k,j,i-1] + 0.1*B[k,j,i+1]
               + 0.1*B[k-1,j,i] + 0.1*B[k+1,j,i]
               + 0.1*B[k,j-1,i] + 0.1*B[k,j+1,i]);
S_3d7pt.tile(2, 4, 6, xo, xi, yo, yi, zo, zi);
S_3d7pt.reorder(xo, yo, zo, xi, yi, zi);
S_3d7pt.parallel(xo, 8);
Stencil st((k,j,i), B[t] << 0.6*S_3d7pt[t-1] + 0.4*S_3d7pt[t-2]);
"""


class TestTokenizer:
    def test_token_kinds(self):
        toks = tokenize('Kernel S((k), 0.5*B[k] - 1); // c\n"str"')
        kinds = {t.kind for t in toks}
        assert kinds == {"ident", "op", "number", "string"}

    def test_comments_stripped(self):
        toks = tokenize("a // comment\nb /* multi\nline */ c")
        assert [t.text for t in toks] == ["a", "b", "c"]

    def test_line_numbers_tracked(self):
        toks = tokenize("a\nb\n\nc")
        assert [t.line for t in toks] == [1, 2, 4]

    def test_shift_operator(self):
        toks = tokenize("B[t] << S[t-1]")
        assert any(t.text == "<<" for t in toks)

    def test_bad_character(self):
        with pytest.raises(MSCSyntaxError, match="unexpected character"):
            tokenize("a @ b")


class TestParserAccepts:
    def test_full_program(self):
        parsed = parse_program(VALID_3D)
        assert parsed.consts["N"] == 12
        assert parsed.tensors["B"].time_window == 3
        kern = parsed.kernels["S_3d7pt"].kernel
        assert kern.npoints == 7
        assert parsed.program.ir.time_dependencies == 2

    def test_schedule_calls_applied(self):
        parsed = parse_program(VALID_3D)
        sched = parsed.kernels["S_3d7pt"].schedule
        assert sched.tile_factors == {"k": 2, "j": 4, "i": 6}
        assert sched.nthreads == 8

    def test_parsed_program_runs_correctly(self, rng):
        parsed = parse_program(VALID_3D)
        init = [rng.random((12, 12, 12)) for _ in range(2)]
        parsed.program.set_initial(init)
        got = parsed.program.run(3)
        ref = reference_run(parsed.program.ir, init, 3, boundary="zero")
        np.testing.assert_array_equal(got, ref)

    def test_mpi_shape_recorded(self):
        src = VALID_3D + "DefShapeMPI3D(shape, 2, 1, 2);\n"
        parsed = parse_program(src)
        assert parsed.mpi_grid == (2, 1, 2)
        assert parsed.program.mpi_grid == (2, 1, 2)

    def test_2d_program(self):
        src = """
        DefVar(j, i32); DefVar(i, i32);
        DefTensor2D(A, 1, f32, 16, 16);
        Kernel S((j,i), 0.25*A[j,i] + 0.25*A[j,i-1]
                 + 0.25*A[j-1,i] + 0.25*A[j+1,i]);
        Stencil st((j,i), A[t] << S[t-1]);
        """
        parsed = parse_program(src)
        assert parsed.tensors["A"].dtype.name == "f32"
        assert parsed.program.ir.time_dependencies == 1

    def test_cache_primitives_via_text(self):
        src = VALID_3D.replace(
            "S_3d7pt.parallel(xo, 8);",
            'S_3d7pt.cache_read(B, buffer_read, "global");\n'
            'S_3d7pt.cache_write(buffer_write, "global");\n'
            "S_3d7pt.compute_at(buffer_read, zo);\n"
            "S_3d7pt.parallel(xo, 8);",
        )
        parsed = parse_program(src)
        bindings = parsed.kernels["S_3d7pt"].schedule.cache_bindings()
        assert {b.buffer for b in bindings} == {
            "buffer_read", "buffer_write"
        }

    def test_parenthesised_expressions(self):
        src = """
        DefVar(i, i32);
        DefTensor1D(A, 1, f64, 16);
        Kernel S((i), 0.5*(A[i-1] + A[i+1]) - A[i]/2);
        Stencil st((i), A[t] << S[t-1]);
        """
        parsed = parse_program(src)
        assert parsed.kernels["S"].npoints == 3


class TestParserRejects:
    def test_missing_stencil(self):
        src = "DefVar(i, i32);\nDefTensor1D(A, 1, f64, 8);\n"
        with pytest.raises(MSCSyntaxError, match="no Stencil"):
            parse_program(src)

    def test_undeclared_variable(self):
        src = """
        DefVar(i, i32);
        DefTensor1D(A, 1, f64, 8);
        Kernel S((q), A[q]);
        Stencil st((q), A[t] << S[t-1]);
        """
        with pytest.raises(MSCSyntaxError, match="undeclared"):
            parse_program(src)

    def test_undefined_name_in_expression(self):
        src = """
        DefVar(i, i32);
        DefTensor1D(A, 1, f64, 8);
        Kernel S((i), A[i] + Z[i]);
        Stencil st((i), A[t] << S[t-1]);
        """
        with pytest.raises(MSCSyntaxError, match="undefined name"):
            parse_program(src)

    def test_kernel_redefinition(self):
        src = """
        DefVar(i, i32);
        DefTensor1D(A, 1, f64, 8);
        Kernel S((i), A[i]);
        Kernel S((i), A[i-1] + A[i+1]);
        Stencil st((i), A[t] << S[t-1]);
        """
        with pytest.raises(MSCSyntaxError, match="redefined"):
            parse_program(src)

    def test_unknown_primitive(self):
        src = """
        DefVar(i, i32);
        DefTensor1D(A, 1, f64, 8);
        Kernel S((i), A[i]);
        S.prefetch(i);
        Stencil st((i), A[t] << S[t-1]);
        """
        with pytest.raises(MSCSyntaxError, match="unknown scheduling"):
            parse_program(src)

    def test_error_reports_line_number(self):
        src = "const x = ;\n"
        with pytest.raises(MSCSyntaxError, match="line 1"):
            parse_program(src)

    def test_wrong_subscript_arity(self):
        src = """
        DefVar(j, i32); DefVar(i, i32);
        DefTensor2D(A, 1, f64, 8, 8);
        Kernel S((j,i), A[i]);
        Stencil st((j,i), A[t] << S[t-1]);
        """
        with pytest.raises(MSCSyntaxError, match="2-D"):
            parse_program(src)

    def test_stencil_without_time_index(self):
        src = """
        DefVar(i, i32);
        DefTensor1D(A, 1, f64, 8);
        Kernel S((i), A[i]);
        Stencil st((i), A[i] << S[t-1]);
        """
        with pytest.raises(MSCSyntaxError, match="indexed with t"):
            parse_program(src)

    def test_schedule_error_surfaces_with_line(self):
        src = VALID_3D.replace(
            "S_3d7pt.tile(2, 4, 6, xo, xi, yo, yi, zo, zi);",
            "S_3d7pt.tile(2, 4, xo, xi, yo, yi, zo, zi);",
        )
        with pytest.raises(MSCSyntaxError):
            parse_program(src)

    def test_truncated_program(self):
        with pytest.raises(MSCSyntaxError, match="end of program"):
            parse_program("DefVar(i,")


class TestDriverStatements:
    """Listing 1 lines 14-16: st.input / st.run / st.compile_to_source_code."""

    FULL = VALID_3D + """
    DefShapeMPI3D(shape_mpi, 2, 1, 2);
    st.input(shape_mpi, B, "random");
    st.run(1, 10);
    st.compile_to_source_code("3d7pt");
    """

    def test_specs_recorded(self):
        parsed = parse_program(self.FULL)
        assert parsed.input_spec == ("shape_mpi", "B", "random")
        assert parsed.run_spec == (1, 10)
        assert parsed.compile_spec == "3d7pt"
        assert parsed.timesteps == 10

    def test_random_input_installs_initial_planes(self):
        parsed = parse_program(self.FULL)
        result = parsed.program.run(timesteps=2)
        assert result.shape == (12, 12, 12)

    def test_run_backwards_rejected(self):
        with pytest.raises(MSCSyntaxError, match="end before begin"):
            parse_program(VALID_3D + "st.run(10, 1);")

    def test_unknown_method_rejected(self):
        with pytest.raises(MSCSyntaxError, match="unknown stencil method"):
            parse_program(VALID_3D + "st.execute(1);")

    def test_input_unknown_tensor_rejected(self):
        with pytest.raises(MSCSyntaxError, match="unknown tensor"):
            parse_program(VALID_3D + 'st.input(shape, Z, "random");')

    def test_compile_requires_string(self):
        with pytest.raises(MSCSyntaxError, match="string"):
            parse_program(VALID_3D + "st.compile_to_source_code(name);")

    def test_no_driver_statements_is_fine(self):
        parsed = parse_program(VALID_3D)
        assert parsed.run_spec is None
        assert parsed.timesteps is None


def test_unknown_dtype_names_its_line():
    src = VALID_3D.replace("DefVar(j, i32)", "DefVar(j, i3)")
    with pytest.raises(MSCSyntaxError, match="line 6: unknown dtype 'i3'"):
        parse_program(src)
    src = VALID_3D.replace("halo_width, f64", "halo_width, q64")
    with pytest.raises(MSCSyntaxError, match="line 7: unknown dtype 'q64'"):
        parse_program(src)


def _mutation_corpus():
    from tests.test_cli import (
        MSC_DISTRIBUTED, MSC_PIPELINE, MSC_SINGLE_NODE, MSC_SUNWAY,
    )

    return (VALID_3D, MSC_DISTRIBUTED, MSC_SINGLE_NODE, MSC_SUNWAY,
            MSC_PIPELINE)


#: what a mutation writes in: names the parser knows in the wrong
#: place, unknown ones, odd numbers and every punctuation token
_PIECES = (
    "i3", "f16", "f64", "i32", "t", "N", "U", "B", "S", "st", "xo", "zi",
    "0", "1", "-1", "2.5", "1e9", "Stencil", "Kernel", "DefVar",
    "DefTensor2D", "DefTensor3D_TimeWin", "DefShapeMPI2D", "const",
    "tile", "parallel", "cache_read", "run", "input", '"random"',
    ";", ",", ".", "(", ")", "[", "]", "<<", "=", "+", "-", "*", "/",
)


@st.composite
def _mutated_sources(draw):
    """A corpus program with one to three token-level edits: delete,
    replace, insert or duplicate a token."""
    words = re.findall(r"\s+|\w+|<<|.", draw(st.sampled_from(
        _mutation_corpus())), re.S)
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(words) - 1))
        edit = draw(st.sampled_from(("delete", "replace", "insert",
                                     "duplicate")))
        if edit == "delete":
            del words[at]
        elif edit == "duplicate":
            words.insert(at, words[at])
        else:
            piece = draw(st.sampled_from(_PIECES))
            words[at:at + (edit == "replace")] = [piece]
    return "".join(words)


@given(source=_mutated_sources())
@settings(max_examples=400)
@example(source=VALID_3D.replace("DefVar(j, i32)", "DefVar(j, i3)"))
def test_mutated_programs_fail_only_with_named_errors(source):
    """Whatever the text, the parser returns a program or raises an
    ``MSCSyntaxError`` or a ``ValueError`` subclass."""
    try:
        parse_program(source)
    except (MSCSyntaxError, ValueError):
        pass
