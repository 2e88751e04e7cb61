"""Multi-stage pipeline: HPGMG-style smoother + residual (STELLA pattern).

The paper's 3d7pt benchmark comes from HPGMG; a real multigrid cycle
applies a *sequence* of stencil stages per step — the "multiple stages
in PDEs" pattern the related work attributes to STELLA.  This demo
solves a 2-D Poisson problem with a weighted-Jacobi smoother stage and
a residual stage chained in one :class:`StagePipeline`:

    stage 1:  U  <-  U + w * (b - A U) / diag(A)      (smooth)
    stage 2:  R  <-  b - A U                          (residual of fresh U)

The residual stage reads the *just-smoothed* U (a current-step stage
reference).  The demo checks the residual norm decreases monotonically
and that the distributed run matches the serial one exactly.

Run:  python examples/multigrid_smoother.py
"""

import numpy as np

from repro.backend.pipeline_exec import (
    PipelineExecutor,
    distributed_pipeline_run,
)
from repro.ir import Kernel, SpNode, StagePipeline, Stencil, VarExpr, f64


def build_pipeline(n, omega=0.8, dtype=f64):
    U = SpNode("U", (n, n), dtype, halo=(1, 1), time_window=2)
    R = SpNode("R", (n, n), dtype, halo=(1, 1), time_window=2)
    Brhs = SpNode("Brhs", (n, n), dtype, halo=(1, 1), time_window=2)
    j, i = VarExpr("j"), VarExpr("i")

    # weighted Jacobi for -Laplace(U) = b with Dirichlet-0 boundary:
    # U_new = (1-w) U + w/4 (U_l + U_r + U_u + U_d + b)
    smooth = Kernel(
        "jacobi", (j, i),
        (1.0 - omega) * U[j, i]
        + (omega / 4.0) * (U[j, i - 1] + U[j, i + 1]
                           + U[j - 1, i] + U[j + 1, i] + Brhs[j, i]),
    )
    # residual r = b - A U = b - (4U - neighbours), on the fresh U
    resid = Kernel(
        "residual", (j, i),
        Brhs[j, i] - 4.0 * U[j, i]
        + (U[j, i - 1] + U[j, i + 1] + U[j - 1, i] + U[j + 1, i]),
    )
    t = Stencil.t
    return StagePipeline((
        Stencil(U, smooth[t - 1]),
        Stencil(R, resid[t - 1]),
    ))


def main():
    n = 64
    pipe = build_pipeline(n)
    print(f"pipeline: {pipe}")
    print(f"history needed: {pipe.required_history()}, "
          f"auxiliary inputs: {sorted(pipe.aux_tensors())}")

    rng = np.random.default_rng(4)
    b = rng.random((n, n))
    u0 = np.zeros((n, n))

    ex = PipelineExecutor(pipe, boundary="zero", inputs={"Brhs": b})
    ex.initialize({"U": [u0]})
    norms = []
    for sweep in range(40):
        ex.step()
        r = ex.results()["R"]
        norms.append(float(np.linalg.norm(r)))
    print("\nresidual 2-norm after n smoothing sweeps:")
    for s in (0, 4, 9, 19, 39):
        print(f"  sweep {s + 1:3d}: {norms[s]:10.4f}")
    # weighted Jacobi is a convergent smoother: monotone decrease.
    # (It damps high-frequency error fast and smooth error slowly —
    # which is exactly why multigrid pairs it with coarse grids.)
    assert all(a >= b_ for a, b_ in zip(norms, norms[1:]))
    assert norms[-1] < 0.9 * norms[0]

    serial = PipelineExecutor(
        pipe, boundary="zero", inputs={"Brhs": b}
    ).run({"U": [u0]}, 12)
    dist = distributed_pipeline_run(
        pipe, {"U": [u0]}, 12, (2, 2), boundary="zero",
        inputs={"Brhs": b},
    )
    assert np.array_equal(dist["U"], serial["U"])
    assert np.array_equal(dist["R"], serial["R"])
    print("\ndistributed (2x2) pipeline identical to serial")
    print("multigrid smoother demo OK")


if __name__ == "__main__":
    main()
