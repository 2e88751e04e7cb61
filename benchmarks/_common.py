"""Shared helpers for the reproduction benchmarks.

Every ``bench_*`` target regenerates one table or figure of the paper:
it computes the rows/series through :mod:`repro.evalsuite`, prints them
(visible with ``pytest benchmarks/ -s``) and appends them to
``benchmarks/results/<name>.txt`` so the artefacts survive the run.
"""

from __future__ import annotations

import os

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def emit(name: str, text: str) -> None:
    """Print a reproduction artefact and persist it as
    ``results/<name>.txt``."""
    banner = f"\n===== {name} =====\n"
    print(banner + text)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, f"{name}.txt"), "w") as fh:
        fh.write(text + "\n")


def mean(values):
    values = list(values)
    return sum(values) / len(values)
