"""Metamorphic checks of the performance models.

For every Table-4 program under its Table-5 schedule on every simulated
machine: run time is linear in the number of timesteps, more memory
bandwidth never makes a run slower, and more network bandwidth (per
link or across the bisection) never makes a scaled step slower.
"""

from dataclasses import replace

import pytest

from repro.evalsuite.configs import TABLE7_SUNWAY, TABLE7_TIANHE3
from repro.evalsuite.harness import build_with_schedule
from repro.frontend.stencils import ALL_BENCHMARKS
from repro.machine import CacheMachineSimulator, SunwaySimulator
from repro.machine.spec import (
    CPU_E5_2680V4,
    MATRIX_SN,
    SUNWAY_CG,
    SUNWAY_NETWORK,
    TIANHE3_NETWORK,
)
from repro.runtime.network import scaling_run

BENCHMARKS = [b.name for b in ALL_BENCHMARKS]
#: target name -> (node spec, interconnect, Table-7 scaling rows)
MACHINES = {
    "sunway": (SUNWAY_CG, SUNWAY_NETWORK, TABLE7_SUNWAY),
    "matrix": (MATRIX_SN, TIANHE3_NETWORK, TABLE7_TIANHE3),
    "cpu": (CPU_E5_2680V4, TIANHE3_NETWORK, TABLE7_TIANHE3),
}

pytestmark = pytest.mark.parametrize("machine", sorted(MACHINES))


def _simulate(name, machine, timesteps, spec=None):
    """``StencilProgram.simulate`` on ``spec`` (default: the target's)."""
    prog, _ = build_with_schedule(name, machine)
    spec = spec or MACHINES[machine][0]
    sim = SunwaySimulator(spec) if spec.cacheless \
        else CacheMachineSimulator(spec)
    sched = prog.schedules()[prog.ir.kernels[0].name]
    return sim.run(prog.ir, sched, timesteps)


@pytest.mark.parametrize("name", BENCHMARKS)
def test_total_time_is_linear_in_timesteps(name, machine):
    t1, t2, t8 = (_simulate(name, machine, n).total_s for n in (1, 2, 8))
    assert t1 > 0
    # equal increments per step: t8 - t2 == 6 (t2 - t1)
    assert t8 - t2 == pytest.approx(6 * (t2 - t1), rel=1e-9)
    assert t8 - t1 == pytest.approx(7 * (t2 - t1), rel=1e-9)


@pytest.mark.parametrize("name", BENCHMARKS)
def test_more_memory_bandwidth_is_never_slower(name, machine):
    spec = MACHINES[machine][0]
    base = _simulate(name, machine, 2, spec)
    faster = _simulate(name, machine, 2,
                       replace(spec, mem_bw_GBs=2 * spec.mem_bw_GBs))
    assert faster.total_s <= base.total_s


@pytest.mark.parametrize("name", BENCHMARKS)
@pytest.mark.parametrize("field", ["link_bw_GBs", "bisection_GBs"])
def test_more_network_bandwidth_is_never_slower(name, field, machine):
    spec, network, rows = MACHINES[machine]
    prog, _ = build_with_schedule(name, machine)
    wider = replace(network, **{field: 2 * getattr(network, field)})
    ndim = len(prog.ir.output.shape)
    for row in rows:
        if row.ndim != ndim:
            continue
        for sub in (row.strong_sub_grid, row.weak_sub_grid):
            base = scaling_run(prog.ir, sub, row.mpi_grid, spec, network)
            more = scaling_run(prog.ir, sub, row.mpi_grid, spec, wider)
            assert more.step_s <= base.step_s, (row, sub)
