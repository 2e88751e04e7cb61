"""Live telemetry (``repro.obs.live``): the localhost scrape server.

:class:`TelemetryServer` is a stdlib ``http.server`` endpoint
(127.0.0.1 only) behind the CLI's ``--serve-metrics PORT``:
``GET /metrics`` returns the OpenMetrics exposition of the registry,
``GET /flight`` the flight-recorder accounting + top-k hot spans.
Both are read at request time, so a scrape sees the run as it is.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional

from .metrics import MetricsRegistry, registry
from .trace import FlightRecorder, tracer

__all__ = ["TelemetryServer"]


class TelemetryServer:
    """Localhost HTTP scrape endpoint over the live obs state.

    Routes::

        GET /metrics  -> OpenMetrics text (the registry, right now)
        GET /flight   -> JSON flight-recorder accounting + top-k spans

    Binds 127.0.0.1 only — telemetry is for the operator's tunnel, not
    the open network.  ``port=0`` picks a free port (see :attr:`port`).
    """

    def __init__(self, port: int = 0,
                 reg: Optional[MetricsRegistry] = None,
                 recorder: Optional[FlightRecorder] = None):
        self.registry = reg if reg is not None else registry()
        self._recorder = recorder
        self._scrapes = 0
        server = self

        class Handler(BaseHTTPRequestHandler):
            def log_message(self, fmt: str, *args: Any) -> None:
                pass  # scrapes must not spam the run's stdout

            def do_GET(self) -> None:
                server._scrapes += 1
                path = self.path.split("?", 1)[0]
                if path == "/metrics":
                    body = server.registry.to_openmetrics().encode("utf-8")
                    ctype = ("application/openmetrics-text; "
                             "version=1.0.0; charset=utf-8")
                elif path == "/flight":
                    body = json.dumps(
                        server.flight_payload(), indent=2, default=str
                    ).encode("utf-8")
                    ctype = "application/json"
                else:
                    self.send_error(404, "unknown path")
                    return
                self.send_response(200)
                self.send_header("Content-Type", ctype)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

        self._httpd = ThreadingHTTPServer(("127.0.0.1", port), Handler)
        self._httpd.daemon_threads = True
        self._thread: Optional[threading.Thread] = None

    def flight_payload(self) -> Dict[str, Any]:
        """Accounting + top-k of the attached (or global) flight ring."""
        fl = self._recorder if self._recorder is not None else tracer().flight
        if fl is None:
            return {"attached": False}
        payload: Dict[str, Any] = {"attached": True}
        payload.update(fl.counts())
        payload["top"] = fl.top(k=8)
        payload["span_rate"] = fl.span_rate(5.0, tracer().now_s())
        return payload

    @property
    def port(self) -> int:
        """The bound port (the chosen one when constructed with 0)."""
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://127.0.0.1:{self.port}"

    @property
    def scrapes(self) -> int:
        return self._scrapes

    def start(self) -> None:
        if self._thread is not None and self._thread.is_alive():
            return
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            kwargs={"poll_interval": 0.1},
            name="obs-telemetry-http",
            daemon=True,
        )
        self._thread.start()

    def stop(self) -> None:
        self._httpd.shutdown()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        self._httpd.server_close()
