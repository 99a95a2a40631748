"""Prometheus text-format exposition for the metrics registry.

The :class:`~repro.obs.metrics.MetricsRegistry` already accumulates
counters, gauges and fixed-bucket histograms across queries; this
module renders that state in the Prometheus text exposition format
(version 0.0.4) and serves it from a daemon-thread HTTP endpoint, so
a long-running ``duel`` session is scrapeable like any service::

    duel_queries_total 42
    duel_query_wall_ms_bucket{le="0.5"} 17
    duel_query_wall_ms_bucket{le="+Inf"} 42
    duel_query_wall_ms_sum 104.2
    duel_query_wall_ms_count 42

Registry histograms store per-bucket (non-cumulative) counts with
inclusive upper bounds — exactly Prometheus ``le`` semantics — so the
renderer only has to accumulate them left to right; the overflow
bucket becomes the ``+Inf`` bucket.  Output is deterministic: names
are sorted within each section, making successive scrapes diffable.

The server is intentionally tiny (stdlib ``http.server``, daemon
threads, bound to localhost by default); it serves ``GET /metrics``
and a ``GET /healthz`` liveness probe and nothing else.
"""

from __future__ import annotations

import re
import threading
from typing import Optional

#: The content type Prometheus scrapers expect.
CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Default metric-name prefix (the exposition namespace).
PREFIX = "duel_"

_INVALID = re.compile(r"[^a-zA-Z0-9_:]")


def sanitize(name: str) -> str:
    """A valid Prometheus metric name for ``name``."""
    cleaned = _INVALID.sub("_", name)
    if cleaned and cleaned[0].isdigit():
        cleaned = "_" + cleaned
    return cleaned


def escape_label_value(value: str) -> str:
    """``value`` escaped for use inside ``{label="..."}``.

    The text format requires backslash, double-quote and newline to be
    escaped inside label values — statement fingerprints carry raw
    query shapes (``(string ?)``, C declarations with quotes), so the
    statement families must escape or the exposition breaks mid-scrape.
    """
    return (value.replace("\\", "\\\\")
                 .replace('"', '\\"')
                 .replace("\n", "\\n"))


def _number(value) -> str:
    """Render a sample value (ints stay integral, floats full-precision)."""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int) or (isinstance(value, float)
                                  and value.is_integer()):
        return str(int(value))
    return repr(float(value))


def render_prometheus(registry, prefix: str = PREFIX,
                      collectors=()) -> str:
    """The whole registry in Prometheus text format (trailing newline).

    ``collectors`` are extra callables returning pre-rendered exposition
    lines (already prefixed/escaped) appended after the registry — the
    serve layer plugs the labeled statement-statistics families in
    here.  A failing collector is skipped: a scrape must never 500
    because one subsystem's renderer raised.
    """
    lines: list[str] = []
    for name, counter in registry.counters().items():
        full = prefix + sanitize(name)
        lines.append(f"# TYPE {full} counter")
        lines.append(f"{full} {_number(counter.value)}")
    for name, gauge in registry.gauges().items():
        full = prefix + sanitize(name)
        lines.append(f"# TYPE {full} gauge")
        lines.append(f"{full} {_number(gauge.value)}")
    for name, hist in registry.histograms().items():
        full = prefix + sanitize(name)
        lines.append(f"# TYPE {full} histogram")
        cumulative = 0
        for bound, count in zip(hist.bounds, hist.counts):
            cumulative += count
            lines.append(f'{full}_bucket{{le="{bound:g}"}} {cumulative}')
        lines.append(f'{full}_bucket{{le="+Inf"}} {hist.count}')
        lines.append(f"{full}_sum {_number(hist.total)}")
        lines.append(f"{full}_count {hist.count}")
    for collector in collectors:
        try:
            lines.extend(collector())
        except Exception:
            continue
    return "\n".join(lines) + "\n"


class MetricsServer:
    """Serves ``/metrics`` from a daemon thread (``--metrics-port``).

    ``port=0`` binds an ephemeral port; :meth:`start` returns the
    actual one.  The handler renders the registry at request time, so
    every scrape sees current totals.  :meth:`stop` shuts the server
    down and joins the thread; the daemon flag means a forgotten
    server never blocks interpreter exit.
    """

    def __init__(self, registry, port: int = 0, host: str = "127.0.0.1",
                 health=None, collectors=()):
        self.registry = registry
        self.host = host
        self.port = port
        #: Extra exposition-line collectors appended to every scrape
        #: (see :func:`render_prometheus`).
        self.collectors = tuple(collectors)
        #: Optional callable returning ``(status code, body text)`` for
        #: ``/healthz`` — the serve layer plugs its
        #: :meth:`~repro.serve.health.ServerHealth.healthz` in here so
        #: the probe reports ok/degraded/draining instead of a static
        #: liveness "ok".
        self.health = health
        self._server: Optional[ThreadingHTTPServer] = None
        self._thread: Optional[threading.Thread] = None

    def start(self) -> int:
        """Bind and start serving; returns the bound port."""
        if self._server is not None:
            return self.port
        # Imported here: the HTTP stack (http.client, ssl, email) adds
        # about 3.4 MB of resident memory to every process that merely
        # renders metrics (the statements table, the REPL ``metrics``).
        from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
        registry = self.registry
        server = self

        class Handler(BaseHTTPRequestHandler):
            def do_GET(self):
                path = self.path.split("?", 1)[0].rstrip("/") or "/"
                status = 200
                if path in ("/", "/metrics"):
                    body = render_prometheus(
                        registry,
                        collectors=server.collectors).encode("utf-8")
                    content_type = CONTENT_TYPE
                elif path == "/healthz":
                    if server.health is not None:
                        try:
                            status, text = server.health()
                        except Exception:
                            status, text = 500, "health probe failed\n"
                        body = text.encode("utf-8")
                    else:
                        body = b"ok\n"
                    content_type = "text/plain; charset=utf-8"
                else:
                    self.send_error(404, "unknown path")
                    return
                self.send_response(status)
                self.send_header("Content-Type", content_type)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args):
                pass                  # scrapes must not spam the REPL

        self._server = ThreadingHTTPServer((self.host, self.port), Handler)
        self._server.daemon_threads = True
        self.port = self._server.server_address[1]
        self._thread = threading.Thread(target=self._server.serve_forever,
                                        name="duel-metrics", daemon=True)
        self._thread.start()
        return self.port

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}/metrics"

    def stop(self) -> None:
        """Shut down the server and join its thread (idempotent)."""
        server, thread = self._server, self._thread
        self._server = self._thread = None
        if server is not None:
            server.shutdown()
            server.server_close()
        if thread is not None:
            thread.join(timeout=5)
