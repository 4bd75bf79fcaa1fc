"""Exposition endpoint smoke tests: /metrics, /health, /trace."""

import json
import urllib.request

from repro.obs.httpd import TelemetryHTTPServer
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import PipelineTracer


def _get(addr, path):
    host, port = addr
    with urllib.request.urlopen(
        f"http://{host}:{port}{path}", timeout=5.0
    ) as resp:
        return resp.status, resp.headers.get("Content-Type"), resp.read()


class TestTelemetryHTTPServer:
    def test_metrics_health_trace_roundtrip(self):
        reg = MetricsRegistry()
        reg.counter("poem_x_total", "things").inc(3)
        tracer = PipelineTracer(sample_every=1)
        tr = tracer.maybe_start()
        tr.stage("receive", 1e-6)
        tracer.commit(tr, [], [])
        srv = TelemetryHTTPServer(
            reg, health_fn=lambda: {"running": True}, tracer=tracer
        )
        addr = srv.start()
        try:
            status, ctype, body = _get(addr, "/metrics")
            assert status == 200
            assert ctype.startswith("text/plain")
            assert b"poem_x_total 3" in body

            status, ctype, body = _get(addr, "/health")
            assert status == 200
            assert json.loads(body) == {"running": True}

            status, _, body = _get(addr, "/trace?n=5")
            assert status == 200
            spans = json.loads(body)["spans"]
            assert len(spans) == 1
            assert spans[0]["outcome"] == "no-neighbors"
        finally:
            srv.stop()

    def test_unknown_path_404(self):
        srv = TelemetryHTTPServer(MetricsRegistry())
        addr = srv.start()
        try:
            import urllib.error

            try:
                _get(addr, "/nope")
                raise AssertionError("expected 404")
            except urllib.error.HTTPError as exc:
                assert exc.code == 404
        finally:
            srv.stop()

    def test_health_absent_404(self):
        srv = TelemetryHTTPServer(MetricsRegistry())
        addr = srv.start()
        try:
            import urllib.error

            try:
                _get(addr, "/health")
                raise AssertionError("expected 404")
            except urllib.error.HTTPError as exc:
                assert exc.code == 404
        finally:
            srv.stop()

    def test_stop_is_idempotent(self):
        srv = TelemetryHTTPServer(MetricsRegistry())
        srv.start()
        srv.stop()
        srv.stop()

    def test_errors_carry_json_body_and_content_length(self):
        import urllib.error

        srv = TelemetryHTTPServer(MetricsRegistry())
        addr = srv.start()
        try:
            try:
                _get(addr, "/nope")
                raise AssertionError("expected 404")
            except urllib.error.HTTPError as exc:
                body = exc.read()
                assert exc.headers.get("Content-Type") == "application/json"
                assert int(exc.headers.get("Content-Length")) == len(body)
                doc = json.loads(body)
                assert doc["error"] == "not found"
                assert doc["path"] == "/nope"
        finally:
            srv.stop()

    def test_head_mirrors_get_on_every_route(self):
        import http.client

        reg = MetricsRegistry()
        reg.counter("poem_y_total", "things").inc(1)
        srv = TelemetryHTTPServer(reg, health_fn=lambda: {"ok": True})
        host, port = srv.start()
        try:
            for path, expect in (
                ("/metrics", 200),
                ("/health", 200),
                ("/trace", 404),   # no tracer attached
                ("/nope", 404),
            ):
                get_status, _, get_body = None, None, b""
                conn = http.client.HTTPConnection(host, port, timeout=5.0)
                conn.request("GET", path)
                resp = conn.getresponse()
                get_status, get_body = resp.status, resp.read()
                conn.close()

                conn = http.client.HTTPConnection(host, port, timeout=5.0)
                conn.request("HEAD", path)
                resp = conn.getresponse()
                head_body = resp.read()
                assert resp.status == get_status == expect, path
                # Same headers as GET — length included — but no body.
                assert (
                    int(resp.headers.get("Content-Length"))
                    == len(get_body)
                ), path
                assert head_body == b"", path
                conn.close()
        finally:
            srv.stop()

    def test_profile_route(self):
        import urllib.error

        from repro.obs.profiler import SamplingProfiler

        prof = SamplingProfiler(role="http-test")
        prof.sample_once()
        srv = TelemetryHTTPServer(MetricsRegistry(), profiler=prof)
        addr = srv.start()
        try:
            status, ctype, body = _get(addr, "/profile")
            assert status == 200
            assert ctype.startswith("text/plain")
            first = body.decode().splitlines()[0]
            stack, count = first.rsplit(" ", 1)
            assert stack.startswith("http-test;") and int(count) >= 1

            status, ctype, body = _get(addr, "/profile?format=json")
            doc = json.loads(body)
            assert doc["role"] == "http-test" and doc["stacks"]

            status, _, body = _get(addr, "/profile?format=summary")
            assert b"samples" in body
        finally:
            srv.stop()

        # No profiler anywhere: /profile is a JSON 404, not a crash.
        srv = TelemetryHTTPServer(MetricsRegistry())
        addr = srv.start()
        try:
            try:
                _get(addr, "/profile")
                raise AssertionError("expected 404")
            except urllib.error.HTTPError as exc:
                assert exc.code == 404
                assert "no profiler" in json.loads(exc.read())["error"]
        finally:
            srv.stop()

    def test_profile_burst_window(self):
        srv = TelemetryHTTPServer(MetricsRegistry())
        addr = srv.start()
        try:
            status, _, body = _get(addr, "/profile?seconds=0.2&format=json")
            assert status == 200
            doc = json.loads(body)
            assert doc["role"] == "burst"
            assert doc["window_seconds"] == 0.2
        finally:
            srv.stop()

    def test_timeline_route(self):
        from repro.obs.profiler import SamplingProfiler

        tracer = PipelineTracer(sample_every=1)
        tr = tracer.maybe_start()
        tr.stage("receive", 1e-6)
        tracer.commit(tr, [], [])
        prof = SamplingProfiler(role="http-test")
        prof.sample_once()
        srv = TelemetryHTTPServer(
            MetricsRegistry(), tracer=tracer, profiler=prof
        )
        addr = srv.start()
        try:
            status, ctype, body = _get(addr, "/timeline")
            assert status == 200
            assert ctype == "application/json"
            doc = json.loads(body)
            cats = {e.get("cat") for e in doc["traceEvents"]}
            assert "pipeline" in cats and "sample" in cats
        finally:
            srv.stop()


class TestServerEndpoint:
    def test_poem_server_exposes_metrics(self):
        from repro.core.tcpserver import PoEmServer

        srv = PoEmServer(seed=0, metrics_port=0)
        srv.start()
        try:
            assert srv.metrics_address is not None
            status, _, body = _get(srv.metrics_address, "/metrics")
            assert status == 200
            text = body.decode()
            # The full catalog is registered up front.
            for name in (
                "poem_engine_ingested_total",
                "poem_engine_drop_reason_total",
                "poem_scheduler_lag_seconds",
                "poem_pipeline_stage_seconds",
                "poem_schedule_depth",
                "poem_server_clients",
                "poem_thread_failures_total",
            ):
                assert name in text, f"{name} missing from /metrics"

            status, _, body = _get(srv.metrics_address, "/health")
            health = json.loads(body)
            assert health["running"] is True
            assert "engine" in health
            assert "schedule_depth" in health
        finally:
            srv.stop()

    def test_endpoint_lifecycle_with_stop(self):
        from repro.core.tcpserver import PoEmServer

        srv = PoEmServer(seed=0, metrics_port=0)
        srv.start()
        addr = srv.metrics_address
        srv.stop()
        assert srv.metrics_address is None
        import urllib.error

        try:
            _get(addr, "/metrics")
            raise AssertionError("endpoint should be down after stop()")
        except (urllib.error.URLError, ConnectionError, OSError):
            pass


class TestImportHygiene:
    def test_server_import_leaves_http_stack_unloaded(self):
        """The endpoint is off by default, so importing the server (and
        with it ``repro.obs``, which every deployment imports) must not
        drag in ``http.server`` and its ~30 modules: ~6 MB of resident
        memory in the server, the emulator, the cluster parent and every
        worker.  ``PoEmServer.start()`` imports ``repro.obs.httpd`` when
        ``metrics_port`` asks for it."""
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro

        src = str(Path(repro.__file__).resolve().parents[1])
        probe = (
            "import sys; import repro.core.tcpserver, repro.obs; "
            "print(sorted(m for m in ('http.server', 'ssl', 'socketserver') "
            "if m in sys.modules))"
        )
        out = subprocess.run(
            [sys.executable, "-c", probe],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True, timeout=60, check=True,
        )
        assert out.stdout.strip() == "[]", out.stdout
