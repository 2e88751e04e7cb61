"""Shared fixtures for the MSC test suite."""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from repro.ir import SpNode, Kernel, Stencil, VarExpr, f64
from repro.schedule import Schedule

# Tier-1 draws no random seed: two runs of the suite test the same
# examples.  ``--hypothesis-profile=random`` (the hypothesis plugin's
# flag, applied after this file is imported) searches afresh.
_EVERY_PROFILE = dict(deadline=None,
                      suppress_health_check=[HealthCheck.too_slow])
settings.register_profile("tier1", derandomize=True, **_EVERY_PROFILE)
settings.register_profile("random", **_EVERY_PROFILE)
settings.load_profile("tier1")


@pytest.fixture(scope="session", autouse=True)
def _isolated_artifact_cache(tmp_path_factory):
    """Keep native-backend builds out of the user's ~/.cache store.

    An explicit REPRO_CACHE_DIR (e.g. CI warming a cache across jobs)
    is honoured.
    """
    if "REPRO_CACHE_DIR" not in os.environ:
        os.environ["REPRO_CACHE_DIR"] = str(
            tmp_path_factory.mktemp("artifact-cache")
        )
    yield


@pytest.fixture(scope="session", autouse=True)
def _isolated_run_ledger(tmp_path_factory):
    """Keep in-process cli.main() calls out of the user's run ledger.

    An explicit REPRO_LEDGER_DIR (e.g. a test exercising the real
    resolution chain) is honoured.
    """
    if "REPRO_LEDGER_DIR" not in os.environ:
        os.environ["REPRO_LEDGER_DIR"] = str(
            tmp_path_factory.mktemp("run-ledger")
        )
    yield


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def vars3d():
    return VarExpr("k"), VarExpr("j"), VarExpr("i")


@pytest.fixture
def vars2d():
    return VarExpr("j"), VarExpr("i")


def make_3d7pt(shape=(16, 16, 16), dtype=f64, time_window=3,
               name="B"):
    """A 3d7pt kernel over a fresh tensor; returns (tensor, kernel)."""
    k, j, i = VarExpr("k"), VarExpr("j"), VarExpr("i")
    tensor = SpNode(name, shape, dtype, halo=(1, 1, 1),
                    time_window=time_window)
    kern = Kernel(
        "S_3d7pt", (k, j, i),
        0.4 * tensor[k, j, i]
        + 0.1 * tensor[k, j, i - 1] + 0.1 * tensor[k, j, i + 1]
        + 0.1 * tensor[k - 1, j, i] + 0.1 * tensor[k + 1, j, i]
        + 0.05 * tensor[k, j - 1, i] + 0.05 * tensor[k, j + 1, i],
    )
    return tensor, kern


def make_2d5pt(shape=(16, 16), dtype=f64, time_window=2, name="A"):
    j, i = VarExpr("j"), VarExpr("i")
    tensor = SpNode(name, shape, dtype, halo=(1, 1),
                    time_window=time_window)
    kern = Kernel(
        "S_2d5pt", (j, i),
        0.5 * tensor[j, i]
        + 0.125 * (tensor[j, i - 1] + tensor[j, i + 1]
                   + tensor[j - 1, i] + tensor[j + 1, i]),
    )
    return tensor, kern


@pytest.fixture
def stencil_3d7pt_2dep():
    """3d7pt with two time dependencies over a 16^3 grid."""
    tensor, kern = make_3d7pt()
    t = Stencil.t
    return Stencil(tensor, 0.6 * kern[t - 1] + 0.4 * kern[t - 2])


@pytest.fixture
def stencil_2d5pt_1dep():
    tensor, kern = make_2d5pt()
    t = Stencil.t
    return Stencil(tensor, kern[t - 1])


@pytest.fixture
def tiled_schedule_3d(stencil_3d7pt_2dep):
    kern = stencil_3d7pt_2dep.kernels[0]
    sched = Schedule(kern)
    sched.tile(4, 8, 16, "xo", "xi", "yo", "yi", "zo", "zi")
    sched.reorder("xo", "yo", "zo", "xi", "yi", "zi")
    sched.parallel("xo", 4)
    return sched
