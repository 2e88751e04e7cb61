"""Append-only on-disk run ledger (``repro.obs.ledger``).

Spans describe one run; BENCH documents describe one bench invocation.
The ledger is the *longitudinal* layer: a small sqlite store (stdlib
:mod:`sqlite3`, no new dependencies) that every recording CLI command
(``run``, ``simulate``, ``tune``, ``bench``, ``verify``) appends one
row per workload to by default.  Each row carries:

- a **config fingerprint** — benchmark, backend, exchange mode, grid,
  IR/schedule fingerprints, the :func:`machine_spec_hash` of the
  (possibly perturbed) machine spec — the "what ran",
- an **environment fingerprint** — python/numpy/platform/git (from
  :func:`repro.obs.perf.runner.environment_fingerprint`) — the "where",
- **phase self-times** — deterministic modelled phases
  (``phases_sim``, from the simulators / bench documents) and host
  phases folded from the tracer/flight ring through the stable
  taxonomy of :mod:`repro.obs.perf.phases`,
- **metric points** — every gated bench metric as its full
  median/MAD/CI aggregate, so later comparisons stay CI-aware,
- an **outcome** (``ok`` / ``error`` / ``regression``) plus a
  ``verdict`` column that ``repro history``'s change-point detector
  annotates back in.

Storage location: ``$REPRO_LEDGER_DIR/ledger.db`` when set, else
``$XDG_STATE_HOME/repro/ledger.db``, else
``~/.local/state/repro/ledger.db``.  ``REPRO_LEDGER=0`` opts the CLI
hooks out entirely (nothing is opened or written).

The collector half (:func:`begin` / :func:`note` /
:func:`note_workload` / :func:`finish`) is how the CLI builds a record
incrementally while a command runs: commands contribute what they know
(fingerprints, metrics, modelled phases) and ``repro.cli.main``
finalises the record — folding the run's spans, stamping the outcome
— after the command returns.  Every ledger write emits a
``ledger.record`` event so event-log narrations show the run id.  All
collector failures are swallowed (one stderr warning): observability
must never break the run it observes.

``repro diff`` and ``repro history`` (see :mod:`repro.obs.diff`) are
the query surfaces over this store.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import sqlite3
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

from .metrics import aggregate

__all__ = [
    "ENV_LEDGER",
    "ENV_LEDGER_DIR",
    "LEDGER_SCHEMA_VERSION",
    "LEDGED_COMMANDS",
    "RunRecord",
    "RunLedger",
    "enabled",
    "ledger_dir",
    "ledger_path",
    "open_ledger",
    "machine_spec_hash",
    "program_fingerprints",
    "metric_point",
    "fold_spans",
    "begin",
    "note",
    "note_workload",
    "finish",
    "discard",
    "pending",
]

#: opt-out switch: ``REPRO_LEDGER=0`` disables all CLI ledger writes
ENV_LEDGER = "REPRO_LEDGER"
#: directory override for the on-disk store
ENV_LEDGER_DIR = "REPRO_LEDGER_DIR"

LEDGER_SCHEMA_VERSION = 1
LEDGER_FILENAME = "ledger.db"

#: CLI commands that append a run record by default
LEDGED_COMMANDS = ("run", "simulate", "tune", "bench", "verify")

_OFF_VALUES = ("0", "off", "false", "no")


def enabled() -> bool:
    """Ledger recording on unless ``REPRO_LEDGER`` opts out."""
    return os.environ.get(ENV_LEDGER, "1").lower() not in _OFF_VALUES


def ledger_dir() -> str:
    """The directory holding the store (see module docstring)."""
    override = os.environ.get(ENV_LEDGER_DIR)
    if override:
        return override
    state_home = os.environ.get("XDG_STATE_HOME")
    if state_home:
        return os.path.join(state_home, "repro")
    return os.path.join(os.path.expanduser("~"), ".local", "state",
                        "repro")


def ledger_path(directory: Optional[str] = None) -> str:
    """Full path of the sqlite store."""
    return os.path.join(directory or ledger_dir(), LEDGER_FILENAME)


# ---------------------------------------------------------------------------
# fingerprints
# ---------------------------------------------------------------------------

def machine_spec_hash(spec: Any) -> str:
    """Short stable hash of a (possibly perturbed) machine spec."""
    payload = json.dumps(dataclasses.asdict(spec), sort_keys=True,
                         default=str)
    return hashlib.sha256(payload.encode()).hexdigest()[:12]


def program_fingerprints(program: Any) -> Dict[str, str]:
    """IR + schedule fingerprints of a stencil program (best-effort)."""
    out: Dict[str, str] = {}
    try:
        from ..backend.native import ir_fingerprint, schedule_fingerprint

        out["ir_fp"] = ir_fingerprint(program.ir)[:12]
        schedules = program.schedules()
        if schedules:
            out["schedule_fp"] = schedule_fingerprint(schedules)[:12]
    except Exception:  # noqa: BLE001 - fingerprints stay best-effort
        pass
    return out


def metric_point(value: float, unit: str = "", direction: str = "lower",
                 gate: bool = False) -> Dict[str, Any]:
    """One metric value in the bench runner's aggregate shape.

    A single observation gets a zero-width CI, so the diff layer can
    treat ledger points and bench aggregates identically (any
    >threshold shift on a gated point is outside its CI).
    """
    return aggregate([float(value)]) | {
        "unit": unit,
        "direction": direction,
        "gate": bool(gate),
    }


def fold_spans(spans: Iterable[Any]) -> Tuple[
        Dict[str, Dict[str, float]], Dict[str, float]]:
    """Fold spans into (host phase stats, per-span-name self-times).

    Phases use the stable taxonomy of :mod:`repro.obs.perf.phases`;
    the per-name self-time map (top 40 names by time) is what lets
    ``repro diff`` align two runs at span granularity, below phases.
    """
    from .perf.phases import attribute

    attr = attribute(spans)
    phases = {
        name: {"time_s": st.time_s, "count": float(st.count),
               "bytes": st.bytes}
        for name, st in attr.phases.items()
    }
    top = dict(sorted(attr.by_name.items(), key=lambda kv: -kv[1])[:40])
    return phases, top


# ---------------------------------------------------------------------------
# records and the store
# ---------------------------------------------------------------------------

@dataclass
class RunRecord:
    """One ledger row (pre-insert form)."""

    command: str
    workload: Optional[str] = None
    outcome: str = "ok"
    rc: int = 0
    verdict: Optional[str] = None
    config: Dict[str, Any] = field(default_factory=dict)
    environment: Dict[str, Any] = field(default_factory=dict)
    #: deterministic modelled phases (simulator / bench ``phases_sim``)
    phases_sim: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: host phases folded from the tracer (noisy, informational)
    phases_host: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: per-span-name host self-times (top names)
    spans: Dict[str, float] = field(default_factory=dict)
    #: metric name -> aggregate dict (:func:`metric_point` shape)
    metrics: Dict[str, Any] = field(default_factory=dict)
    ts: float = 0.0


_SCHEMA = f"""
CREATE TABLE IF NOT EXISTS runs (
    id INTEGER PRIMARY KEY AUTOINCREMENT,
    ts REAL NOT NULL,
    schema_version INTEGER NOT NULL DEFAULT {LEDGER_SCHEMA_VERSION},
    command TEXT NOT NULL,
    workload TEXT,
    outcome TEXT NOT NULL,
    rc INTEGER NOT NULL,
    verdict TEXT,
    config TEXT NOT NULL,
    environment TEXT NOT NULL,
    phases TEXT NOT NULL,
    metrics TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_runs_workload ON runs (workload, id);
"""


class RunLedger:
    """The sqlite-backed append-only run store.

    Append-only by construction: the only UPDATE the API can issue is
    :meth:`annotate`, which fills the ``verdict`` column of an existing
    row (the change-point detector writing its finding back).
    """

    def __init__(self, path: str):
        self.path = path
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        self._conn = sqlite3.connect(path)
        self._conn.executescript(_SCHEMA)
        self._conn.commit()

    # -- writing ---------------------------------------------------------
    def record(self, rec: RunRecord) -> int:
        """Append one run record; returns its ledger id."""
        phases = {
            "sim": rec.phases_sim,
            "host": rec.phases_host,
            "spans": rec.spans,
        }
        cur = self._conn.execute(
            "INSERT INTO runs (ts, schema_version, command, workload, "
            "outcome, rc, verdict, config, environment, phases, metrics)"
            " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
            (
                rec.ts or time.time(),
                LEDGER_SCHEMA_VERSION,
                rec.command,
                rec.workload,
                rec.outcome,
                int(rec.rc),
                rec.verdict,
                json.dumps(rec.config, sort_keys=True, default=str),
                json.dumps(rec.environment, sort_keys=True, default=str),
                json.dumps(phases, sort_keys=True, default=str),
                json.dumps(rec.metrics, sort_keys=True, default=str),
            ),
        )
        self._conn.commit()
        return int(cur.lastrowid)

    def annotate(self, run_id: int, verdict: str) -> bool:
        """Set (merge into) one row's verdict; True if the row exists."""
        row = self.get(run_id)
        if row is None:
            return False
        prior = row.get("verdict")
        if prior and verdict in prior.split("; "):
            return True
        merged = f"{prior}; {verdict}" if prior else verdict
        self._conn.execute(
            "UPDATE runs SET verdict = ? WHERE id = ?", (merged, run_id)
        )
        self._conn.commit()
        return True

    # -- reading ---------------------------------------------------------
    @staticmethod
    def _row_to_dict(row: Tuple) -> Dict[str, Any]:
        (rid, ts, schema_version, command, workload, outcome, rc,
         verdict, config, environment, phases, metrics) = row
        ph = json.loads(phases)
        return {
            "id": int(rid),
            "ts": float(ts),
            "schema_version": int(schema_version),
            "command": command,
            "workload": workload,
            "outcome": outcome,
            "rc": int(rc),
            "verdict": verdict,
            "config": json.loads(config),
            "environment": json.loads(environment),
            "phases_sim": ph.get("sim", {}),
            "phases_host": ph.get("host", {}),
            "spans": ph.get("spans", {}),
            "metrics": json.loads(metrics),
        }

    _COLS = ("id, ts, schema_version, command, workload, outcome, rc, "
             "verdict, config, environment, phases, metrics")

    def get(self, run_id: int) -> Optional[Dict[str, Any]]:
        """One row as a dict, or ``None``."""
        cur = self._conn.execute(
            f"SELECT {self._COLS} FROM runs WHERE id = ?", (int(run_id),)
        )
        row = cur.fetchone()
        return self._row_to_dict(row) if row else None

    def query(self, workload: Optional[str] = None,
              command: Optional[str] = None,
              limit: Optional[int] = None) -> List[Dict[str, Any]]:
        """Rows (ascending id), filtered by workload and/or command.

        ``limit`` keeps the *newest* N matching rows.
        """
        clauses, params = [], []
        if workload is not None:
            clauses.append("workload = ?")
            params.append(workload)
        if command is not None:
            clauses.append("command = ?")
            params.append(command)
        where = f" WHERE {' AND '.join(clauses)}" if clauses else ""
        sql = f"SELECT {self._COLS} FROM runs{where} ORDER BY id"
        rows = [self._row_to_dict(r)
                for r in self._conn.execute(sql, params)]
        if limit is not None and limit >= 0:
            rows = rows[max(0, len(rows) - limit):]
        return rows

    def workloads(self) -> List[Tuple[str, int]]:
        """Distinct recorded workload names with their run counts."""
        cur = self._conn.execute(
            "SELECT workload, COUNT(*) FROM runs WHERE workload IS NOT "
            "NULL GROUP BY workload ORDER BY workload"
        )
        return [(w, int(n)) for w, n in cur.fetchall()]

    def __len__(self) -> int:
        cur = self._conn.execute("SELECT COUNT(*) FROM runs")
        return int(cur.fetchone()[0])

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "RunLedger":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def open_ledger(directory: Optional[str] = None) -> RunLedger:
    """Open (creating if needed) the store in ``directory``."""
    return RunLedger(ledger_path(directory))


# ---------------------------------------------------------------------------
# the CLI collector
# ---------------------------------------------------------------------------

@dataclass
class _Pending:
    command: str
    ts: float
    shared: RunRecord
    workloads: List[RunRecord] = field(default_factory=list)


_PENDING: Optional[_Pending] = None
_ENV_CACHE: Optional[Dict[str, Any]] = None


def _environment() -> Dict[str, Any]:
    """Per-process cached environment fingerprint (it cannot change)."""
    global _ENV_CACHE
    if _ENV_CACHE is None:
        from .perf.runner import environment_fingerprint

        _ENV_CACHE = environment_fingerprint()
    return _ENV_CACHE


def begin(command: str) -> None:
    """Start collecting one CLI invocation's run record."""
    global _PENDING
    _PENDING = _Pending(
        command=command,
        ts=time.time(),
        shared=RunRecord(command=command, ts=time.time()),
    )


def pending() -> Optional[RunRecord]:
    """The command-level record being collected, or ``None``."""
    return _PENDING.shared if _PENDING is not None else None


def discard() -> None:
    """Drop the pending record without writing."""
    global _PENDING
    _PENDING = None


def note(workload: Optional[str] = None,
         config: Optional[Mapping[str, Any]] = None,
         metrics: Optional[Mapping[str, Any]] = None,
         phases_sim: Optional[Mapping[str, Dict[str, float]]] = None,
         verdict: Optional[str] = None) -> None:
    """Merge details into the pending command-level record (no-op when
    nothing is being collected, so library callers can note freely)."""
    if _PENDING is None:
        return
    rec = _PENDING.shared
    if workload is not None:
        rec.workload = workload
    if config:
        rec.config.update(config)
    if metrics:
        rec.metrics.update(metrics)
    if phases_sim:
        rec.phases_sim.update(
            {k: dict(v) for k, v in phases_sim.items()}
        )
    if verdict is not None:
        rec.verdict = verdict


def note_workload(name: str,
                  config: Optional[Mapping[str, Any]] = None,
                  metrics: Optional[Mapping[str, Any]] = None,
                  phases_sim: Optional[Mapping[str, Any]] = None,
                  phases_host: Optional[Mapping[str, Any]] = None,
                  environment: Optional[Mapping[str, Any]] = None) -> None:
    """Add one per-workload record (``bench`` writes one row per
    workload so ``repro history <workload>`` has a natural key)."""
    if _PENDING is None:
        return
    _PENDING.workloads.append(RunRecord(
        command=_PENDING.command,
        workload=name,
        config=dict(config or {}),
        metrics=dict(metrics or {}),
        phases_sim={k: dict(v) for k, v in (phases_sim or {}).items()},
        phases_host={k: dict(v) for k, v in (phases_host or {}).items()},
        environment=dict(environment or {}),
        ts=_PENDING.ts,
    ))


def finish(rc: int, spans: Optional[Iterable[Any]] = None,
           directory: Optional[str] = None) -> List[int]:
    """Finalise and write the pending record(s); returns ledger ids.

    ``spans`` (tracer records or flight-ring snapshot) are folded into
    host phases/span self-times for command-level records.  Never
    raises: a broken store degrades to one stderr warning.
    """
    global _PENDING
    pend = _PENDING
    _PENDING = None
    if pend is None:
        return []
    try:
        shared = pend.shared
        outcome = "error" if rc else "ok"
        if shared.verdict and shared.verdict.startswith("regression"):
            outcome = "regression"
        phases_host: Dict[str, Dict[str, float]] = {}
        span_times: Dict[str, float] = {}
        if spans is not None:
            phases_host, span_times = fold_spans(spans)
        environment = _environment()

        records = pend.workloads or [shared]
        for rec in records:
            rec.rc = int(rc)
            rec.outcome = outcome
            rec.verdict = rec.verdict or shared.verdict
            if not rec.environment:
                rec.environment = environment
            if rec is shared or len(records) == 1:
                rec.phases_host = rec.phases_host or phases_host
                rec.spans = rec.spans or span_times
            rec.ts = rec.ts or pend.ts

        from .events import emit

        with open_ledger(directory) as ledger:
            ids = []
            for rec in records:
                rid = ledger.record(rec)
                ids.append(rid)
                emit("ledger.record", run_id=rid, command=rec.command,
                     workload=rec.workload, outcome=rec.outcome)
        return ids
    except Exception as exc:  # noqa: BLE001 - never break the run
        print(f"warning: run ledger write failed: {exc}",
              file=sys.stderr)
        return []
