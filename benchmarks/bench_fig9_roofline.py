"""Fig. 9: roofline analysis on Sunway (a) and Matrix (b).

Paper: all benchmarks memory-bound except 2d169pt on Sunway, which is
compute-bound; on Matrix, the limited bandwidth keeps 2d169pt
memory-bound too.
"""

from _common import emit

from repro.evalsuite import fig9_points, format_table
from repro.machine import Roofline
from repro.machine.spec import MATRIX_SN, SUNWAY_CG


def _render(machine_name, machine):
    points = fig9_points(machine_name)
    roof = Roofline(machine)
    rows = [
        {
            "benchmark": p.name,
            "oi_flops_per_byte": p.operational_intensity,
            "attainable_gflops": p.attainable_gflops,
            "achieved_gflops": p.achieved_gflops,
            "utilization": p.utilization,
            "bound": p.bound,
        }
        for p in points
    ]
    text = format_table(
        rows,
        ["benchmark", "oi_flops_per_byte", "attainable_gflops",
         "achieved_gflops", "bound"],
        title=(
            f"Fig. 9 roofline on {machine.name}: peak="
            f"{machine.peak_gflops:.0f} GFlops, bw={machine.mem_bw_GBs} "
            f"GB/s, ridge={roof.ridge_oi:.1f} flops/B"
        ),
    )
    return points, text


def test_fig9_sunway(benchmark):
    points, text = benchmark(_render, "sunway", SUNWAY_CG)
    emit("fig9_roofline_sunway", text)
    bounds = {p.name: p.bound for p in points}
    assert bounds["2d169pt_box"] == "compute"
    assert sum(1 for b in bounds.values() if b == "memory") == 7


def test_fig9_matrix(benchmark):
    points, text = benchmark(_render, "matrix", MATRIX_SN)
    emit("fig9_roofline_matrix", text)
    assert all(p.bound == "memory" for p in points)
