"""Shared hypothesis strategies for the MSC test suite.

Factored out of ``test_printer.py``, ``test_properties.py`` and
``test_properties_extensions.py``, and reused by the cross-backend
differential harness (``test_differential.py``): stencil shapes,
process grids, tile factors, coefficient lists, seeds, and composite
generators for whole random star stencils plus checker-legal schedules.
"""

from __future__ import annotations

from hypothesis import strategies as st

from repro.ir import Kernel, SpNode, Stencil, VarExpr, f32, f64, i32
from repro.ir.expr import (
    KNOWN_FUNCS, CallFuncExpr, ConstExpr, OperatorExpr,
)
from repro.schedule import Schedule

__all__ = [
    "boundaries",
    "box_stencil_cases",
    "coefficients",
    "expression_kernel_cases",
    "legal_schedules",
    "process_grids",
    "seeds",
    "shapes",
    "star_stencil_cases",
    "tile_factors",
]

#: boundary handling modes shared by every backend
boundaries = st.sampled_from(["zero", "periodic"])

#: loop-variable names per dimensionality, outermost first
AXIS_VARS = {1: ("i",), 2: ("j", "i"), 3: ("k", "j", "i")}

#: (outer, inner) tile-axis names per dimension position
TILE_NAMES = (("xo", "xi"), ("yo", "yi"), ("zo", "zi"))


def shapes(ndim: int, min_side: int = 4, max_side: int = 40):
    """Rectangular domain shapes: one integer extent per dimension."""
    return st.tuples(*(st.integers(min_side, max_side)
                       for _ in range(ndim)))


def process_grids(ndim: int, max_procs: int = 4):
    """MPI process grids (small, so in-process worlds stay cheap)."""
    return st.tuples(*(st.integers(1, max_procs) for _ in range(ndim)))


def tile_factors(ndim: int, lo: int = 1, hi: int = 8):
    """Per-dimension tile factors."""
    return st.tuples(*(st.integers(lo, hi) for _ in range(ndim)))


def seeds():
    """RNG seeds for deterministic random initial conditions."""
    return st.integers(0, 2 ** 16)


def coefficients(min_size: int, max_size: int, bound: float = 4.0,
                 nonzero: bool = False):
    """Lists of finite stencil coefficients in ``[-bound, bound]``."""
    base = st.floats(-bound, bound, allow_nan=False, allow_infinity=False)
    if nonzero:
        base = base.filter(lambda x: x != 0)
    return st.lists(base, min_size=min_size, max_size=max_size)


@st.composite
def star_stencil_cases(draw, ndim: int = 2, dtype=f64, max_radius: int = 2,
                       max_side: int = 14):
    """A random linear star stencil with a matching halo and time window.

    Returns ``(stencil, kernel, shape)``.  Coefficients are scaled by
    the point count so repeated sweeps stay bounded; the tensor halo
    equals the stencil radius and the time window covers the deepest
    drawn dependency — i.e. the case is *valid* IR by construction (the
    analyzer's HALO001/IR001 checks pass).
    """
    radius = draw(st.integers(1, max_radius))
    deps = draw(st.integers(1, 2))
    shape = draw(shapes(ndim, min_side=max(6, 4 * radius),
                        max_side=max_side))
    ivars = tuple(VarExpr(n) for n in AXIS_VARS[ndim])
    tensor = SpNode("B", shape, dtype, halo=(radius,) * ndim,
                    time_window=deps + 1)

    npoints = 1 + 2 * ndim * radius
    coef = draw(coefficients(npoints, npoints, bound=1.0))
    scale = 1.0 / npoints
    expr = (coef[0] * scale) * tensor[ivars]
    ci = 1
    for d in range(ndim):
        for off in range(1, radius + 1):
            left = tuple(
                v - off if dd == d else v for dd, v in enumerate(ivars)
            )
            right = tuple(
                v + off if dd == d else v for dd, v in enumerate(ivars)
            )
            expr = expr + (coef[ci] * scale) * tensor[left]
            expr = expr + (coef[ci + 1] * scale) * tensor[right]
            ci += 2
    kern = Kernel("S_rand", ivars, expr)

    t = Stencil.t
    if deps == 1:
        comb = kern[t - 1]
    else:
        w = draw(st.floats(0.1, 0.9, allow_nan=False))
        comb = w * kern[t - 1] + (1.0 - w) * kern[t - 2]
    return Stencil(tensor, comb), kern, shape


@st.composite
def box_stencil_cases(draw, ndim: int = 2, dtype=f64, max_radius: int = 2,
                      max_side: int = 14):
    """A random linear *box* stencil: every offset in ``[-r, r]^ndim``.

    Returns ``(stencil, kernel, shape)``.  Box stencils read diagonal
    neighbours directly, so they exercise corner/edge ghost propagation
    — the part of the halo exchange the ``diag`` mode coalesces into
    direct messages instead of relaying through dimension phases.
    """
    import itertools

    radius = draw(st.integers(1, max_radius))
    shape = draw(shapes(ndim, min_side=max(6, 4 * radius),
                        max_side=max_side))
    ivars = tuple(VarExpr(n) for n in AXIS_VARS[ndim])
    tensor = SpNode("B", shape, dtype, halo=(radius,) * ndim,
                    time_window=2)

    offsets = list(itertools.product(range(-radius, radius + 1),
                                     repeat=ndim))
    npoints = len(offsets)
    coef = draw(coefficients(npoints, npoints, bound=1.0))
    scale = 1.0 / npoints
    expr = None
    for c, off in zip(coef, offsets):
        idx = tuple(v + o for v, o in zip(ivars, off))
        term = (c * scale) * tensor[idx]
        expr = term if expr is None else expr + term
    kern = Kernel("B_rand", ivars, expr)
    return Stencil(tensor, kern[Stencil.t - 1]), kern, shape


#: arity of every external function the IR knows
FUNC_ARITY = {name: 2 if name in ("pow", "fmin", "fmax") else 1
              for name in KNOWN_FUNCS}

#: runtime scalars the generated kernels may read
SCALAR_NAMES = ("w0", "w1")


@st.composite
def expression_kernel_cases(draw, out_dtype=None, max_leaves: int = 10,
                            operators_only: bool = False):
    """A random 2-D kernel over *every* expression node kind.

    Leaves are reads of the output tensor ``A`` (window 3), reads of an
    auxiliary tensor ``C`` — whose dtype may differ from ``A``'s — at any
    time depth, int and float literals and the free scalars
    :data:`SCALAR_NAMES`; inner nodes are ``neg``/``add``/``sub``/
    ``mul``/``div`` and every ``KNOWN_FUNCS`` call.  Nothing is drawn
    towards being an array: constants-only kernels and bare accesses
    occur.  ``operators_only`` restricts the draw to what generated C
    must reproduce bit for bit: no ``KNOWN_FUNCS`` call, and ``C`` in
    ``A``'s dtype (one stencil, one dtype).  Returns ``(kernel, A, C,
    scalars)``; nodes are built explicitly (``VarExpr + int`` would
    become an ``IndexExpr``).
    """
    radius = draw(st.integers(1, 2))
    shape = draw(shapes(2, min_side=4 * radius + 2, max_side=12))
    if out_dtype is None:
        out_dtype = draw(st.sampled_from([f32, f64]))
    aux_dtype = (out_dtype if operators_only
                 else draw(st.sampled_from([f32, f64, i32])))
    j, i = (VarExpr(n) for n in AXIS_VARS[2])
    A = SpNode("A", shape, out_dtype, halo=(radius,) * 2, time_window=3)
    C = SpNode("C", shape, aux_dtype, halo=(radius,) * 2, time_window=8)

    offset = st.integers(-radius, radius)
    reads_a = st.builds(lambda dj, di: A[j + dj, i + di], offset, offset)
    reads_c = st.builds(
        lambda depth, dj, di: C.at(-depth)[j + dj, i + di],
        st.integers(0, 7), offset, offset,
    )
    literals = st.one_of(
        st.integers(-3, 3),
        st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False),
    ).map(ConstExpr)
    scalars = st.sampled_from(SCALAR_NAMES).map(
        lambda name: VarExpr(name, "f64"))
    leaves = st.one_of(reads_a, reads_a, reads_c, literals, scalars)

    def grow(children):
        calls = [
            st.builds(lambda *args, name=name: CallFuncExpr(name, args),
                      *[children] * arity)
            for name, arity in FUNC_ARITY.items()
            if not operators_only
        ]
        return st.one_of(
            st.builds(lambda a: OperatorExpr("neg", (a,)), children),
            *[st.builds(lambda a, b, op=op: OperatorExpr(op, (a, b)),
                        children, children)
              for op in ("add", "sub", "mul", "div")],
            st.one_of(*calls),
        )

    expr = draw(st.recursive(leaves, grow, max_leaves=max_leaves))
    values = {
        name: draw(st.floats(-1.5, 1.5, allow_nan=False))
        for name in SCALAR_NAMES
    }
    return Kernel("K_rand", (j, i), expr), A, C, values


@st.composite
def legal_schedules(draw, kernel, shape, max_threads: int = 4):
    """A random tiled/reordered/parallel schedule, legal by construction.

    Tile factors are clipped to the extents, the reorder keeps each
    tile-inner axis inside its tile-outer axis, and the parallel axis
    is the outermost tile-enumerating loop — so the static analyzer's
    machine-independent checks report no errors.
    """
    ndim = len(shape)
    sched = Schedule(kernel)
    factors = [
        min(draw(st.integers(1, 8)), s) for s in shape
    ]
    flat = []
    for d in range(ndim):
        flat.extend(TILE_NAMES[d])
    sched.tile(*factors, *flat)
    if draw(st.booleans()):
        # the paper's canonical order: all outers, then all inners
        outers = [TILE_NAMES[d][0] for d in range(ndim)]
        inners = [TILE_NAMES[d][1] for d in range(ndim)]
        sched.reorder(*outers, *inners)
    nthreads = draw(st.sampled_from([1, 2, max_threads]))
    if nthreads > 1:
        sched.parallel("xo", nthreads)
    return sched
