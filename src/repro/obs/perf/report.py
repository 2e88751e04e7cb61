"""ASCII rendering of bench documents (the ``repro bench`` output).

One block per workload: the gated metric medians with their noise
scale, a phase bar chart (host attribution alongside the modelled
phases), and the roofline placement per kernel with a utilization
bar.  Rendering imports :mod:`repro.evalsuite.ascii_plot` lazily so
``repro.obs`` stays importable without the evalsuite package loaded.
"""

from __future__ import annotations

from typing import Any, Dict

from ..export import fmt_time
from .phases import PHASES

__all__ = ["format_bench", "format_workload"]


def _fmt_value(value: float, unit: str) -> str:
    if unit == "s":
        return fmt_time(value)
    shown = f"{value:.4g}"
    return f"{shown} {unit}".rstrip()


def format_workload(name: str, wl: Dict[str, Any]) -> str:
    from ...evalsuite.ascii_plot import bar_chart

    lines = [f"## {name}  ({wl['samples']} samples, "
             f"{wl['warmup']} warmup, seed {wl['seed']})"]

    metrics = wl.get("metrics", {})
    if metrics:
        header = (f"  {'metric':20s} {'median':>12s} {'mad':>10s} "
                  f"{'ci95':>26s}  gate")
        lines.append(header)
        lines.append("  " + "-" * (len(header) - 2))
        for mname in sorted(metrics):
            m = metrics[mname]
            unit = m.get("unit", "")
            ci = m.get("ci95", [m["median"], m["median"]])
            lines.append(
                f"  {mname:20s} {_fmt_value(m['median'], unit):>12s} "
                f"{_fmt_value(m['mad'], unit):>10s} "
                f"[{_fmt_value(ci[0], unit)}, "
                f"{_fmt_value(ci[1], unit)}]".ljust(64)
                + ("  gated" if m.get("gate") else "")
            )

    sim = wl.get("phases_sim", {})
    if sim:
        lines.append("  modelled phases:")
        bars = {p: sim[p]["time_s"] for p in PHASES if p in sim}
        bars.update({p: v["time_s"] for p, v in sim.items()
                     if p not in bars})
        chart = bar_chart(bars, width=32, fmt=fmt_time)
        lines.extend("    " + ln for ln in chart.splitlines())

    host = wl.get("phases_host", {})
    if host:
        total = wl.get("phase_total_host_s", 0.0)
        cov = wl.get("phase_coverage", 0.0)
        lines.append(
            f"  host phase attribution (total {fmt_time(total)}, "
            f"coverage {cov:.1%}):"
        )
        bars = {p: host[p]["time_s"] for p in PHASES if p in host}
        bars.update({p: v["time_s"] for p, v in host.items()
                     if p not in bars})
        chart = bar_chart(bars, width=32, fmt=fmt_time)
        lines.extend("    " + ln for ln in chart.splitlines())

    roofline = wl.get("roofline", {})
    for kname in sorted(roofline):
        pt = roofline[kname]
        util = pt.get("utilization", 0.0)
        bar = "#" * int(round(util * 20))
        lines.append(
            f"  roofline {kname}: OI {pt['operational_intensity']:.3f} "
            f"flops/B, {pt['achieved_gflops']:.1f} / "
            f"{pt['attainable_gflops']:.1f} GFlops "
            f"({pt['bound']}-bound)  |{bar:<20s}| {util:.1%}"
        )
    return "\n".join(lines)


def format_bench(doc: Dict[str, Any]) -> str:
    """Render one bench document for the terminal."""
    env = doc.get("environment", {})
    lines = [
        f"BENCH {doc.get('name', '?')}  "
        f"(schema {doc.get('format')}/v{doc.get('version')}, "
        f"python {env.get('python', '?')}, "
        f"numpy {env.get('numpy', '?')})"
    ]
    for wname in sorted(doc.get("workloads", {})):
        lines.append("")
        lines.append(format_workload(wname, doc["workloads"][wname]))
    return "\n".join(lines)
