"""Distributed stencil execution over the simulated MPI runtime, and
the one table of runs no engine executes.

``distributed_run`` executes a stencil across an MPI process grid with
real data: every rank owns a sub-domain (Fig. 6a), steps it with the
same :class:`~repro.backend.numpy_backend.BlockEngine` a single node
uses, exchanges halos through the communication library after producing
each plane, and rank 0 gathers the global result.  The output must
match the single-node serial reference exactly — that equivalence is
the core integration test of the communication library.  Pipelines go
through the same driver.  :data:`UNSUPPORTED` is every run no engine
executes; ``StencilProgram.run`` and ``distributed_run`` consult it.
"""

from __future__ import annotations

from collections import Counter
from functools import partial
from typing import Dict, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from ..backend.numpy_backend import (
    BlockEngine, checked_inputs, checked_seeds,
)
from ..comm.decomposition import SubDomain, decompose
from ..comm.halo import HaloSpec, core_owned_regions
from ..ir.pipeline import StagePipeline, as_pipeline
from ..ir.stencil import Stencil
from ..obs import counter, span
from ..obs.events import emit
from .simmpi import CartComm, run_ranks

__all__ = ["distributed_run", "DistributedStencil", "UNSUPPORTED",
           "UnsupportedRun", "unsupported"]


class UnsupportedRun(ValueError):
    """A run that hits a row of :data:`UNSUPPORTED`."""


#: every combination no engine runs: (row, does a run hit it, why),
#: a run given as in :func:`unsupported`
UNSUPPORTED = (
    ("native x pipeline",
     lambda r: r["backend"] == "native" and r["stages"] > 1,
     "the native backend runs one-stage programs; pipelines run on numpy"),
    ("native x MPI grid",
     lambda r: r["backend"] == "native" and r["distributed"],
     "the native backend runs single-node programs; ranks run on numpy"),
    ("boundary x MPI grid",
     lambda r: r["distributed"] and r["boundary"] not in ("zero", "periodic"),
     "distributed runs support zero/periodic boundaries, got {boundary!r}"),
    ("exchange_mode x single node",
     lambda r: r["exchange_mode"] is not None and not r["distributed"],
     "exchange_mode {exchange_mode!r} selects how ranks exchange halos; "
     "a single-node run has no ranks"),
)


def unsupported(backend: str, distributed: bool, stages: int = 1,
                boundary: str = "zero",
                exchange_mode: Optional[str] = None) -> Optional[str]:
    """The message of the first :data:`UNSUPPORTED` row the run hits,
    or None when some engine runs it."""
    run = {"backend": backend, "distributed": distributed,
           "stages": stages, "boundary": boundary,
           "exchange_mode": exchange_mode}
    for row, hits, why in UNSUPPORTED:
        if hits(run):
            return f"{row}: {why.format(**run)}"
    return None


def _refresh_ghosts(comm: CartComm, sub_shape: Sequence[int], exchangers,
                    name: str, halo: Sequence[int],
                    plane: np.ndarray) -> None:
    """Exchange the ghosts of one rank's freshly written ``plane``."""
    ex = exchangers.get(name)
    scattered_once = ex is None  # an auxiliary tensor
    if scattered_once:
        from ..comm.library import create_exchanger  # an import cycle

        ex = create_exchanger("async", comm, HaloSpec(sub_shape, halo))
    # an overlap-mode exchanger allows one in-flight exchange;
    # drain it before starting the next (no-op otherwise)
    ex.finish_exchange()
    # window planes are recycled: clear stale ghosts on global
    # (neighbour-less) edges, which the exchange will not overwrite
    for strip in ex.edge_ghosts:
        plane[strip] = 0
    ex.begin_exchange(plane)
    if scattered_once:
        ex.finish_exchange()


def _overlap_split(comm: CartComm, shape: Sequence[int],
                   radius: Sequence[int]):
    """``core_owned_regions`` of this rank's block for a stage of
    ``radius``.  A side gets a shell only when its ghosts come from
    another rank: a global edge is filled, and a rank that is its own
    neighbour copies its ghosts, before the exchange begins.  A ghost
    block from another rank lies, in some dimension, behind a side
    whose ghosts do too, so CORE never reads a ghost in flight."""
    width = []
    for d, r in enumerate(radius):
        low, high = (0 <= peer != comm.rank for peer in comm.Shift(d, 1))
        width.append((r * low, r * high))
    return core_owned_regions(shape, width)


class DistributedStencil:
    """One rank's block of a distributed stencil (or pipeline).

    A :class:`BlockEngine` whose ghost refresh is the halo exchange;
    what remains here is distributed *policy*: which exchanger serves
    which tensor, and the CORE/OWNED split of the ``overlap`` mode.
    """

    def __init__(self, stencil: Union[Stencil, StagePipeline],
                 comm: CartComm, subdomains: Sequence[SubDomain],
                 exchanger: str = "async", scalars=None,
                 exchange_mode: Optional[str] = None):
        from ..comm.library import create_exchanger  # breaks an import cycle

        self.comm = comm
        self.sub = subdomains[comm.rank]
        # only the async exchanger family understands modes; other
        # strategies reject the option in their constructor
        options = {} if exchange_mode is None else {"mode": exchange_mode}
        #: one exchanger per stage output; in overlap mode the newest
        #: plane's exchange stays in flight during the next CORE compute
        self.exchangers: Dict[str, object] = {}
        # not a bound method: an engine pointing back at this object
        # would leave every run's planes to the cycle collector
        self.engine = BlockEngine(
            stencil,
            partial(_refresh_ghosts, comm, self.sub.shape, self.exchangers),
            self.sub.shape, scalars,
        )
        for out in self.engine.pipeline.outputs:
            self.exchangers[out.name] = create_exchanger(
                exchanger, comm, HaloSpec(self.sub.shape, out.halo),
                **options
            )
        #: per stage output, the overlap split of this rank's block:
        #: (CORE box or None, OWNED slabs), as ``compute`` regions
        self._split = {}
        for stage in self.engine.pipeline.stages:
            core, owned = _overlap_split(comm, self.sub.shape, stage.radius)
            self._split[stage.output.name] = (
                None if core is None else (tuple(core),),
                tuple(tuple(slab) for slab in owned),
            )

    def scatter(self, seeds: Mapping[str, Sequence[np.ndarray]],
                inputs: Mapping[str, np.ndarray]) -> None:
        """Install this rank's part of the global auxiliary and seed data."""
        own = self.sub.slices()
        aux = self.engine.pipeline.aux_tensors()
        for name, data in inputs.items():
            self.engine.set_aux(aux[name], data[own])
        with span("runtime.seed", rank=self.comm.rank):
            self.engine.seed({
                name: [plane[own] for plane in planes]
                for name, planes in seeds.items()
            })

    def _compute(self, stage: Stencil, t: int) -> None:
        pending = [ex for ex in self.exchangers.values() if ex.pending]
        if not pending:
            self.engine.compute(stage, t)
            return
        # compute/communication overlap: the CORE block only reads
        # interior cells of the history planes, so it is computed while
        # the newest plane's ghost blocks are still in flight; the
        # OWNED shell waits for them
        rank = self.comm.rank
        core, owned = self._split[stage.output.name]
        if core is not None:
            with span("runtime.core_compute", rank=rank, t=t):
                self.engine.compute(stage, t, lambda _k: core)
        for ex in pending:
            ex.finish_exchange()
        with span("runtime.owned_compute", rank=rank, t=t,
                  slabs=len(owned)):
            self.engine.compute(stage, t, lambda _k: owned)

    def step(self) -> None:
        with span("runtime.step", rank=self.comm.rank,
                  t=self.engine.t + 1):
            self.engine.step(self._compute)
        counter("runtime.steps", rank=self.comm.rank)


def _run_distributed(program: Union[Stencil, StagePipeline],
                     seeds: Mapping[str, Sequence[np.ndarray]],
                     timesteps: int, grid: Sequence[int],
                     boundary: str = "zero", inputs=None,
                     exchanger: str = "async", subdomains=None,
                     scalars=None, faults=None, exchange_mode=None
                     ) -> Tuple[Dict[str, np.ndarray], Dict[str, int]]:
    """The driver behind :func:`distributed_run` and a distributed
    ``StencilProgram.run``: validate once, before any rank starts;
    then each rank scatters, steps and gathers.  Returns the global
    newest plane of every stage output and the ranks' summed
    ``BlockEngine.plan_stats``.
    """
    pipeline, history = as_pipeline(program)
    outputs = pipeline.outputs
    grid = tuple(int(g) for g in grid)
    if len(grid) != pipeline.ndim:
        raise ValueError(
            f"MPI grid is {len(grid)}-D for a {pipeline.ndim}-D stencil"
        )
    if message := unsupported("numpy", True, pipeline.nstages, boundary,
                              exchange_mode):
        raise UnsupportedRun(message)
    # run-ledger fingerprint plumbing: a no-op unless a CLI command is
    # collecting a record (see repro.obs.ledger)
    from ..obs import ledger as obs_ledger

    mode = exchange_mode or "default"
    obs_ledger.note(config={
        "mpi_grid": list(grid),
        "exchanger": exchanger,
        "exchange_mode": mode,
        "boundary": boundary,
        "dist_timesteps": int(timesteps),
    })
    nprocs = int(np.prod(grid))
    if subdomains is None:
        subdomains = decompose(pipeline.shape, grid)
    else:
        subdomains = list(subdomains)
        if len(subdomains) != nprocs:
            raise ValueError(
                f"custom decomposition has {len(subdomains)} sub-domains "
                f"for {nprocs} ranks"
            )
    # every sub-domain must be at least as wide as the halo so the
    # inner-halo strips do not overlap
    for sd in subdomains:
        for out in outputs:
            if any(s < h for s, h in zip(sd.shape, out.halo)):
                raise ValueError(
                    f"sub-domain {sd.shape} narrower than halo {out.halo}; "
                    "use a smaller MPI grid"
                )
    seeds = checked_seeds(outputs, history, seeds, pipeline.shape)
    inputs = checked_inputs(pipeline.aux_tensors(), inputs)

    def rank_main(comm: CartComm):
        dist = DistributedStencil(
            program, comm, subdomains, exchanger, scalars, exchange_mode
        )
        dist.scatter(seeds, inputs)
        for _ in range(timesteps):
            dist.step()
        # the last plane's overlap exchange (if any) must drain before
        # the gather so the trace DAG stays well-formed
        for ex in dist.exchangers.values():
            ex.finish_exchange()
        with span("runtime.gather", rank=comm.rank):
            pieces = comm.gather(
                (dist.sub.rank, dist.engine.results(),
                 dist.engine.plan_stats), root=0
            )
        if comm.rank != 0:
            return None
        result = {
            out.name: np.zeros(pipeline.shape, dtype=out.dtype.np_dtype)
            for out in outputs
        }
        plans: Counter = Counter()
        for rank, local, stats in pieces:
            own = subdomains[int(rank)].slices()
            for name, data in local.items():
                result[name][own] = data
            plans.update(stats)
        return result, dict(plans)

    label = "+".join(out.name for out in outputs)
    counter("runtime.runs", backend="numpy", exchange_mode=mode)
    with span("runtime.distributed_run", stencil=label,
              nprocs=nprocs, grid=str(grid), timesteps=timesteps,
              exchanger=exchanger, backend="numpy",
              exchange_mode=mode,
              faulty=faults is not None):
        emit("phase.enter", phase="distributed_run", stencil=label,
             nprocs=nprocs, exchange_mode=mode)
        try:
            results = run_ranks(
                nprocs, rank_main, cart_dims=grid,
                periods=tuple(boundary == "periodic" for _ in grid),
                faults=faults,
                scope_attrs={"backend": "numpy", "exchange_mode": mode},
            )
        finally:
            emit("phase.exit", phase="distributed_run", stencil=label)
    return results[0]


def distributed_run(stencil: Stencil, init: Sequence[np.ndarray],
                    timesteps: int, grid: Sequence[int],
                    boundary: str = "zero",
                    inputs: Optional[Mapping[str, np.ndarray]] = None,
                    exchanger: str = "async",
                    subdomains: Optional[Sequence[SubDomain]] = None,
                    scalars=None, faults=None,
                    exchange_mode: Optional[str] = None) -> np.ndarray:
    """Run ``timesteps`` sweeps over an MPI grid; return the global result.

    ``init`` are the W-1 global initial planes.  Uses the named
    exchange strategy from the communication-library registry.  A
    custom rectilinear (tensor-product) ``subdomains`` list — e.g. the
    inspector's load-balanced decomposition — may replace the default
    uniform split; it must match ``grid``'s rank ordering.

    ``faults`` attaches a fault injector to the simulated world (a
    :class:`~repro.runtime.faults.FaultInjector` or a spec string such
    as ``"drop:p=0.2"``); the ``async`` exchanger then runs its
    retransmission protocol (see ``docs/RESILIENCE.md``).

    ``exchange_mode`` selects the async exchanger's wire protocol
    (``"basic"``/``"diag"``/``"overlap"``); results are bit-identical
    across modes.  Leave ``None`` to use the strategy's default.
    """
    name = stencil.output.name
    return _run_distributed(
        stencil, {name: init}, timesteps, grid, boundary, inputs,
        exchanger, subdomains, scalars, faults, exchange_mode,
    )[0][name]
