"""What does always-on telemetry cost a run?  Exit 1 over the budget.

    python tools/telemetry_overhead.py

Runs one single-node numpy execution (``2d9pt_box``, 160², 16 steps)
in two telemetry configurations, interleaved A/B over ``PAIRS`` pairs:
everything off, and the always-on default (flight recorder + metrics
registry, as :func:`repro.obs.session` sets up every command without
``--serve-metrics``).  The overhead is the *median of per-pair
ratios*: the two runs of a pair are adjacent in time, so slow host
drift cancels within each pair, and the median across pairs sheds the
occasional preempted outlier.  The verdict is the median of
``REPEATS`` such measurements: it prints each fraction and exits 1 when
their median reaches ``BUDGET``.
"""

from __future__ import annotations

import os
import sys
import time
from typing import Dict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from repro import obs  # noqa: E402
from repro.obs.metrics import median  # noqa: E402
from repro.obs.trace import preserved  # noqa: E402

#: interleaved off/on pairs
PAIRS = 7
#: timesteps per run: tens of ms, so the fixed per-span cost amortizes
STEPS = 16
SHAPE = (160, 160)
#: the overhead fraction a run may cost
BUDGET = 0.05
#: measurements the verdict takes the median of
REPEATS = 3


def measure() -> Dict[str, float]:
    """The paired-median overhead of the always-on telemetry."""
    import numpy as np

    from repro.frontend.stencils import benchmark_by_name

    prog, _ = benchmark_by_name("2d9pt_box").build(grid=SHAPE)
    rng = np.random.default_rng(0)
    init = [rng.random(SHAPE).astype(prog.ir.output.dtype.np_dtype)
            for _ in range(prog.ir.required_time_window - 1)]

    def one_run() -> float:
        prog.set_initial(init)
        t0 = time.perf_counter()
        prog.run(STEPS, check=False, backend="numpy")
        return time.perf_counter() - t0

    tr, reg = obs.tracer(), obs.registry()
    times_off, times_on = [], []
    kept = dropped = 0
    with preserved():
        one_run()  # warm caches outside both measurement arms
        for _ in range(PAIRS):
            tr.disable()
            tr.disable_flight()
            reg.disable()
            times_off.append(one_run())
            fl = tr.enable_flight()
            reg.enable()
            times_on.append(one_run())
            kept += fl.kept
            dropped += fl.dropped
    return {
        "overhead_frac": median([(on - off) / off for off, on
                                 in zip(times_off, times_on) if off > 0]),
        "median_on_s": median(times_on),
        "median_off_s": median(times_off),
        "flight_spans": float(kept),
        "flight_dropped": float(dropped),
    }


def main() -> int:
    fracs = []
    for _ in range(REPEATS):
        m = measure()
        fracs.append(m["overhead_frac"])
        print(f"telemetry overhead {m['overhead_frac']:+.4f} (median off "
              f"{m['median_off_s']:.4f} s, on {m['median_on_s']:.4f} s, "
              f"{m['flight_spans']:g} flight spans, "
              f"{m['flight_dropped']:g} dropped)")
    frac = median(fracs)
    print(f"median telemetry overhead {frac:+.4f}, budget {BUDGET:.2f}: "
          f"{'ok' if frac < BUDGET else 'OVER BUDGET'}")
    return 0 if frac < BUDGET else 1


if __name__ == "__main__":
    sys.exit(main())
