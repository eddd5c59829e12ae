"""Live HTTP observability endpoint for a running Machine.

A :class:`MetricsServer` binds a ``ThreadingHTTPServer`` on a daemon
thread and exposes three routes, scrape-able *mid-run* on all three
transports (the server thread never touches the transport's queues —
everything it reads is counters, gauges, and the flight-recorder ring):

* ``GET /metrics`` — Prometheus text exposition, built by the existing
  reflective exporter (:func:`~repro.analysis.telemetry_export.
  to_prometheus`); scrape-time memory gauges are refreshed here.
* ``GET /healthz`` — watchdog verdicts as JSON.  Returns **200** while
  every watchdog is quiet and **503** while any (stall, retry storm,
  message-rate anomaly) is firing, so an orchestrator's liveness probe
  needs no body parsing.
* ``GET /status`` — a JSON snapshot for humans and dashboards: current
  epoch, per-rank progress and handler time, skew scores, watchdog
  states, the fast path with each bound action's resolved tier and the
  reason for it, and the tail of the flight recorder.

Start it with ``Machine(observe=True)`` (ephemeral port),
``Machine(observe=9464)`` (fixed port), or an
:class:`~repro.runtime.health.ObserveConfig`; the bound port is
``machine.observer.port``.  ``repro serve-metrics`` wraps a looping
workload around this for CI scrapes and manual poking.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional


class MetricsServer:
    """Background HTTP server bound to one machine."""

    def __init__(self, machine, host: str = "127.0.0.1", port: int = 0) -> None:
        self.machine = machine
        self.host = host
        self._requested_port = port
        self._httpd: Optional[ThreadingHTTPServer] = None
        self._thread: Optional[threading.Thread] = None
        #: The bound port (resolves port 0 to the ephemeral allocation).
        self.port: Optional[int] = None

    # -- lifecycle ------------------------------------------------------------
    def start(self) -> "MetricsServer":
        if self._httpd is not None:
            return self
        handler = _make_handler(self.machine)
        try:
            self._httpd = ThreadingHTTPServer(
                (self.host, self._requested_port), handler
            )
        except OSError as err:
            # Port 0 never collides (the kernel picks a free ephemeral
            # port); a fixed port can, and the bare errno is unhelpful.
            raise OSError(
                f"cannot bind observability server on "
                f"{self.host}:{self._requested_port} ({err}); pass port=0 "
                f"for an ephemeral port and read it back from .port"
            ) from err
        self._httpd.daemon_threads = True
        self.port = self._httpd.server_address[1]
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name=f"repro-observe-{self.port}",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._httpd is None:
            return
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        self._httpd = None
        self._thread = None

    @property
    def url(self) -> str:
        if self.port is None:
            raise RuntimeError(
                "server not started; the bound port is only known after "
                "start() (port=0 is resolved by the kernel at bind time)"
            )
        return f"http://{self.host}:{self.port}"

    def __enter__(self) -> "MetricsServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()


def _make_handler(machine):
    """A request-handler class closed over ``machine``."""

    class _Handler(BaseHTTPRequestHandler):
        server_version = "repro-observe/1"

        def do_GET(self) -> None:  # noqa: N802 - http.server API
            path = self.path.split("?", 1)[0].rstrip("/") or "/"
            try:
                if path == "/metrics":
                    from .telemetry_export import to_prometheus

                    self._send(200, to_prometheus(machine),
                               "text/plain; version=0.0.4")
                elif path == "/healthz":
                    ok, payload = machine.health.check()
                    self._send_json(200 if ok else 503, payload)
                elif path == "/status":
                    status = machine.health.status()
                    status["flight_tail"] = machine.flight.tail(16)
                    status["n_ranks"] = machine.n_ranks
                    status["fast_path"] = machine.fast_path
                    status["tiers"] = machine.action_tiers
                    status["transport"] = type(machine.transport).__name__
                    self._send_json(200, status)
                elif path == "/":
                    self._send_json(
                        200, {"routes": ["/metrics", "/healthz", "/status"]}
                    )
                else:
                    self._send_json(404, {"error": f"no route {path}"})
            except Exception as exc:  # observer must never kill the run
                try:
                    self._send_json(500, {"error": repr(exc)})
                except Exception:  # pragma: no cover - client went away
                    pass

        def _send(self, code: int, body: str, ctype: str) -> None:
            data = body.encode("utf-8")
            self.send_response(code)
            self.send_header("Content-Type", ctype)
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)

        def _send_json(self, code: int, obj) -> None:
            self._send(code, json.dumps(obj, indent=2) + "\n",
                       "application/json")

        def log_message(self, fmt, *args) -> None:  # silence stderr spam
            pass

    return _Handler


def scrape(
    url: str,
    timeout: float = 5.0,
    *,
    method: Optional[str] = None,
    data: Optional[dict] = None,
) -> tuple[int, str]:
    """Fetch one observability/service route; returns ``(status, body)``.

    Stdlib-only helper for tests and the CLI (no requests dependency);
    non-200 responses are returned, not raised.  With ``data`` (or an
    explicit ``method``) the request becomes a JSON POST — the shape the
    graph-service API (:mod:`repro.service.api`) accepts.
    """
    from urllib.error import HTTPError
    from urllib.request import Request, urlopen

    body = None
    headers = {}
    if data is not None:
        body = json.dumps(data).encode("utf-8")
        headers["Content-Type"] = "application/json"
        if method is None:
            method = "POST"
    req = Request(url, data=body, headers=headers, method=method)
    try:
        with urlopen(req, timeout=timeout) as resp:
            return resp.status, resp.read().decode("utf-8")
    except HTTPError as err:  # 4xx/5xx still carry a body we want
        return err.code, err.read().decode("utf-8")


__all__ = ["MetricsServer", "scrape"]
