"""Focused tests for smaller API surfaces not covered elsewhere:
TimingReport, GeneratedCode, BufferPool tags, simmpi Sendrecv,
DMAStats, streaming report, evalsuite configs, and the docs generator.
"""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.backend.c_codegen import GeneratedCode
from repro.comm import BufferPool
from repro.evalsuite.configs import TABLE7_SUNWAY, TABLE8, table5_row
from repro.machine.report import TimingReport
from repro.runtime.simmpi import run_ranks


class TestTimingReport:
    def _report(self, compute=0.2, memory=0.8, overhead=0.0, steps=10):
        return TimingReport(
            machine="m", stencil="s", precision="fp64",
            timesteps=steps, compute_s=compute, memory_s=memory,
            overhead_s=overhead, flops_per_step=1e9,
        )

    def test_step_is_sum(self):
        assert self._report().step_s == pytest.approx(1.0)

    def test_total_includes_overhead_once(self):
        r = self._report(overhead=5.0)
        assert r.total_s == pytest.approx(10 * 1.0 + 5.0)

    def test_gflops(self):
        r = self._report(compute=0.5, memory=0.5, steps=10)
        assert r.gflops == pytest.approx(1.0)

    def test_speedup_over(self):
        fast = self._report(compute=0.1, memory=0.1)
        slow = self._report(compute=1.0, memory=1.0)
        assert fast.speedup_over(slow) == pytest.approx(10.0)

    def test_zero_time_with_flops_is_malformed(self):
        # work recorded but no elapsed time: a malformed report, and the
        # error names the stencil rather than leaking a bare
        # ZeroDivisionError (regression: obs/metrics consumers render
        # empty reports)
        r = self._report(compute=0.0, memory=0.0, steps=1)
        with pytest.raises(ValueError, match="zero elapsed time"):
            r.gflops

    def test_empty_run_rates_zero(self):
        # 0 flops (or 0 timesteps) and 0 time is simply an empty run
        r = TimingReport(
            machine="m", stencil="s", precision="fp64", timesteps=0,
            compute_s=0.0, memory_s=0.0, flops_per_step=1e9,
        )
        assert r.gflops == 0.0
        r = TimingReport(
            machine="m", stencil="s", precision="fp64", timesteps=5,
            compute_s=0.0, memory_s=0.0, flops_per_step=0.0,
        )
        assert r.gflops == 0.0


class TestGeneratedCode:
    def test_write_to_roundtrip(self, tmp_path):
        code = GeneratedCode(name="x", target="cpu")
        code.files["x.c"] = "int main(void) { return 0; }\n"
        code.files["Makefile"] = "all:\n\ttrue\n"
        paths = code.write_to(str(tmp_path))
        assert len(paths) == 2
        assert (tmp_path / "x.c").read_text().startswith("int main")

    def test_main_source_picks_c_file(self):
        code = GeneratedCode(name="x", target="cpu")
        code.files["Makefile"] = "all:\n"
        code.files["x.c"] = "/*src*/"
        assert code.main_source == "/*src*/"

    def test_main_source_missing(self):
        code = GeneratedCode(name="x", target="cpu")
        with pytest.raises(KeyError):
            code.main_source

    def test_loc_wrapped(self):
        code = GeneratedCode(name="x", target="cpu")
        code.files["x.c"] = "a" * 200 + "\nshort\n"
        assert code.loc() == 2
        assert code.loc(wrap=80) == 3 + 1  # ceil(200/80) + 1


class TestBufferPool:
    def test_distinct_dtypes_distinct_buffers(self):
        pool = BufferPool()
        a = pool.get(10, np.float64)
        b = pool.get(10, np.float32)
        assert a.dtype != b.dtype

    def test_same_size_same_tag_reused(self):
        pool = BufferPool()
        assert pool.get(10, np.float64) is pool.get(10, np.float64)


class TestSendrecv:
    def test_ring_rotation(self):
        def main(comm):
            right = (comm.rank + 1) % comm.size
            left = (comm.rank - 1) % comm.size
            recv = np.zeros(1)
            comm.Sendrecv(np.array([float(comm.rank)]), right,
                          recv, left)
            return recv[0]

        assert run_ranks(4, main) == [3.0, 0.0, 1.0, 2.0]


class TestConfigs:
    def test_table5_grid_matches_benchmarks(self):
        assert table5_row("2d9pt_star").grid == (4096, 4096)
        assert table5_row("3d31pt_star").grid == (256, 256, 256)

    def test_table7_strong_halves_subgrids(self):
        rows3d = [r for r in TABLE7_SUNWAY if r.ndim == 3]
        vols = [
            np.prod(r.strong_sub_grid) * r.processes for r in rows3d
        ]
        # fixed global volume across the strong-scaling ladder
        assert len(set(vols)) == 1

    def test_table7_weak_fixed_subgrid(self):
        for r in TABLE7_SUNWAY:
            assert np.prod(r.weak_sub_grid) in (4096 ** 2, 256 ** 3)

    def test_table8_subgrids_cover_global(self):
        from repro.evalsuite.configs import (
            PHYSIS_GLOBAL_2D, PHYSIS_GLOBAL_3D,
        )

        for r in TABLE8:
            g = PHYSIS_GLOBAL_2D if r.ndim == 2 else PHYSIS_GLOBAL_3D
            covered = [s * p for s, p in zip(r.sub_grid, r.mpi_grid)]
            assert tuple(covered) == tuple(g)


class TestDocsGenerator:
    def test_generates_api_markdown(self, tmp_path):
        root = Path(__file__).resolve().parent.parent
        result = subprocess.run(
            [sys.executable, str(root / "tools" / "gen_api_docs.py")],
            capture_output=True, text=True, cwd=str(root),
            timeout=300,
        )
        assert result.returncode == 0, result.stderr
        api = (root / "docs" / "API.md").read_text()
        assert "# API reference" in api
        assert "repro.comm.exchange" in api
        assert "repro.ir.stencil" in api


class TestBundleDigests:
    def test_one_line_per_bundle_and_compare_exit_code(self, tmp_path):
        """``tools/bundle_digests.py``: one line per Table-4 cpu bundle
        under the default and the Table-5 schedule, and per Sunway
        bundle; ``--compare`` is silent-and-zero on equal digests,
        non-zero on any difference."""
        root = Path(__file__).resolve().parent.parent

        def tool(*args):
            return subprocess.run(
                [sys.executable, str(root / "tools" / "bundle_digests.py"),
                 *args], capture_output=True, text=True, timeout=300)

        listed = tool()
        assert listed.returncode == 0, listed.stderr
        lines = listed.stdout.splitlines()
        assert len(lines) == 8 * 3 * 2 * 2 + 8 * 2
        assert len({line.split()[0] for line in lines}) == 112
        assert sum("/table5" in line for line in lines) == 64
        assert sum("/sunway/" in line for line in lines) == 16
        same = tmp_path / "same.txt"
        same.write_text(listed.stdout)
        assert tool("--compare", str(same)).returncode == 0
        other = tmp_path / "other.txt"
        other.write_text("\n".join(["0" * 64 + lines[0][64:]] + lines[2:]))
        differs = tool("--compare", str(other))
        assert differs.returncode == 1
        assert lines[0].split()[1] in differs.stdout  # changed
        assert lines[1].split()[1] in differs.stdout  # missing there
        assert "110/112 bundles identical" in differs.stdout


class TestAsciiChart:
    def test_renders_series_and_legend(self):
        from repro.evalsuite import line_chart

        chart = line_chart(
            {"a": [(1, 1.0), (2, 4.0)], "b": [(1, 2.0), (2, 3.0)]},
            width=32, height=8,
        )
        assert "o=a" in chart and "x=b" in chart
        assert "|" in chart and "+" in chart

    def test_log_scales(self):
        from repro.evalsuite import line_chart

        chart = line_chart(
            {"s": [(10, 10.0), (100, 100.0), (1000, 1000.0)]},
            logx=True, logy=True,
        )
        assert "log-x" in chart and "log-y" in chart

    def test_log_rejects_nonpositive(self):
        from repro.evalsuite import line_chart

        with pytest.raises(ValueError):
            line_chart({"s": [(0, 1.0)]}, logx=True)

    def test_empty_rejected(self):
        from repro.evalsuite import line_chart

        with pytest.raises(ValueError):
            line_chart({})


class TestAnnealingInitialState:
    def test_initial_state_respected(self):
        from repro.autotune import simulated_annealing

        axes = [list(range(10))]
        res = simulated_annealing(
            axes, lambda x: float(x), iterations=1, seed=0,
            initial_state=(3,),
        )
        assert res.initial_energy == 3.0

    def test_bad_initial_state(self):
        from repro.autotune import simulated_annealing

        with pytest.raises(ValueError, match="initial_state"):
            simulated_annealing(
                [list(range(3))], lambda x: 0.0, iterations=1,
                initial_state=(7,),
            )
