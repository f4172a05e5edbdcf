"""Integration tests for the sharded serving tier (:mod:`repro.serve`).

The load-bearing assertion is the merge contract over HTTP: after
concurrent multi-shard ingest with estimate queries in flight, the
quiesced ``/admin/estimate/*`` answers must be **bit-identical** to a
single-threaded :class:`SketchTree` fed the concatenated stream — AMS
linearity end to end, through the queue/drain/merge machinery.

The suite boots real servers on ephemeral ports (``http.server`` in a
background thread) — no sockets are mocked.
"""

import dataclasses
import http.client
import io
import json
import queue
import threading
import urllib.error
import urllib.request
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import SketchTreeConfig
from repro.core.sketchtree import SketchTree
from repro.errors import ConfigError
from repro.obs.registry import MetricsRegistry
from repro.serve.api import MAX_BODY_BYTES, ApiHandler, make_server
from repro.serve.app import ServerApp, build_parser, run_from_args
from repro.serve.models import (
    ApiError,
    parse_estimate_request,
    parse_ingest_request,
)
from repro.serve.service import ShardedService
from repro.serve.shards import IngestShard
from repro.trees import from_sexpr

CONFIG = SketchTreeConfig(
    s1=40, s2=5, max_pattern_edges=3, n_virtual_streams=31, seed=7
)

STREAM = [
    "(A (B) (C))",
    "(A (C) (B))",
    "(A (B (C)))",
    "(A (B) (C))",
    "(X (A (B)))",
    "(A (B) (B))",
    "(A (B (C) (B)))",
    "(X (A (C)))",
] * 6

QUERIES = ["(A (B))", "(A (C))", "(X (A))", "(A (B (C)))"]


def reference_synopsis(texts=STREAM):
    synopsis = SketchTree(CONFIG)
    synopsis.update_batch([from_sexpr(text) for text in texts])
    return synopsis


class Client:
    """A tiny JSON client over urllib (raises nothing on 4xx/5xx)."""

    def __init__(self, port):
        self.base = f"http://127.0.0.1:{port}"

    def get(self, path):
        try:
            with urllib.request.urlopen(self.base + path, timeout=30) as resp:
                return resp.status, resp.read().decode()
        except urllib.error.HTTPError as error:
            return error.code, error.read().decode()

    def post(self, path, payload):
        request = urllib.request.Request(
            self.base + path,
            data=json.dumps(payload).encode(),
            headers={"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(request, timeout=30) as resp:
                return resp.status, json.loads(resp.read())
        except urllib.error.HTTPError as error:
            return error.code, json.loads(error.read())


@pytest.fixture
def server(tmp_path):
    """A started 3-shard server on an ephemeral port, stopped afterwards."""
    service = ShardedService(
        CONFIG, n_shards=3, checkpoint_dir=tmp_path / "ckpts"
    )
    app = ServerApp(service, port=0)
    app.start()
    yield app, Client(app.port)
    app.request_stop()
    app.shutdown()


# ---------------------------------------------------------------------------
# Schemas
# ---------------------------------------------------------------------------


class TestModels:
    def test_ingest_parses_sexprs(self):
        trees = parse_ingest_request({"trees": ["(A (B))", "(C)"]})
        # The root is the last node in postorder.
        assert [tree.labels[-1] for tree in trees] == ["A", "C"]

    @pytest.mark.parametrize(
        "payload",
        [
            [],
            {},
            {"trees": []},
            {"trees": "not-a-list"},
            {"trees": [42]},
            {"trees": ["(unclosed"]},
        ],
    )
    def test_ingest_rejections_are_400(self, payload):
        with pytest.raises(ApiError) as excinfo:
            parse_ingest_request(payload)
        assert excinfo.value.status == 400

    def test_ingest_oversize_is_413(self):
        with pytest.raises(ApiError) as excinfo:
            parse_ingest_request({"trees": ["(A)"] * 10_001})
        assert excinfo.value.status == 413

    def test_ingest_error_names_the_position(self):
        with pytest.raises(ApiError, match=r"trees\[1\]"):
            parse_ingest_request({"trees": ["(A)", "(("]})

    def test_estimate_unknown_kind_is_404(self):
        with pytest.raises(ApiError) as excinfo:
            parse_estimate_request("median", {"query": "(A)"})
        assert excinfo.value.status == 404

    def test_estimate_sum_takes_queries_list(self):
        assert parse_estimate_request("sum", {"queries": ["(A)"]}) == ["(A)"]
        with pytest.raises(ApiError):
            parse_estimate_request("sum", {"query": "(A)"})

    def test_estimate_single_takes_query_string(self):
        assert parse_estimate_request("ordered", {"query": "(A)"}) == "(A)"
        with pytest.raises(ApiError):
            parse_estimate_request("ordered", {"queries": ["(A)"]})


# ---------------------------------------------------------------------------
# Shards
# ---------------------------------------------------------------------------


class TestIngestShard:
    def test_drain_means_applied(self):
        shard = IngestShard(0, CONFIG)
        shard.start()
        shard.submit([from_sexpr(text) for text in STREAM])
        shard.drain()
        assert shard.synopsis.n_trees == len(STREAM)
        shard.stop()

    def test_full_queue_backpressures(self):
        shard = IngestShard(0, CONFIG, max_pending=1)  # never started
        shard.submit([from_sexpr("(A)")])
        with pytest.raises(queue.Full):
            shard.submit([from_sexpr("(A)")])

    def test_submit_after_stop_is_refused(self):
        shard = IngestShard(0, CONFIG)
        shard.start()
        shard.stop()
        with pytest.raises(ConfigError):
            shard.submit([from_sexpr("(A)")])

    def test_fault_is_recorded_and_quiesce_survives(self):
        shard = IngestShard(0, CONFIG)
        shard.start()
        shard._queue.put_nowait(object())  # not a batch: the writer faults
        shard.submit([from_sexpr("(A)")])  # still consumed and acked
        shard.drain()  # must not deadlock on the faulted shard
        assert shard.error() is not None
        shard.stop()

    def test_restored_synopsis_config_must_match(self):
        other = SketchTree(
            SketchTreeConfig(s1=10, s2=3, n_virtual_streams=31, seed=1)
        )
        with pytest.raises(ConfigError):
            IngestShard(0, CONFIG, synopsis=other)


# ---------------------------------------------------------------------------
# Service (no HTTP)
# ---------------------------------------------------------------------------


class TestShardedService:
    def test_accepts_topk_config(self):
        """Fold/unfold merging lifts the old shard-level topk ban."""
        service = ShardedService(
            SketchTreeConfig(
                s1=10, s2=3, n_virtual_streams=31, topk_size=2, seed=3
            ),
            n_shards=2,
        )
        assert service.stats()["config"]["topk_size"] == 2

    def test_rejects_negative_window_trees(self):
        with pytest.raises(ConfigError):
            ShardedService(CONFIG, window_trees=-1)

    def test_rejects_resume_without_dir(self):
        with pytest.raises(ConfigError):
            ShardedService(CONFIG, resume=True)

    def test_round_robin_covers_all_shards(self):
        service = ShardedService(CONFIG, n_shards=3)
        service.start()
        for text in STREAM:
            service.submit([from_sexpr(text)])
        service.drain()
        assert [s.synopsis.n_trees for s in service.shards] == [16, 16, 16]
        service.stop()

    def test_merged_is_bit_identical_to_serial_run(self):
        service = ShardedService(CONFIG, n_shards=4)
        service.start()
        service.submit([from_sexpr(text) for text in STREAM])
        merged = service.merged_synopsis()
        reference = reference_synopsis()
        for query in QUERIES:
            assert merged.estimate_ordered(query) == reference.estimate_ordered(
                query
            )
        service.stop()

    def test_stop_is_idempotent_and_refuses_ingest(self):
        service = ShardedService(CONFIG, n_shards=2)
        service.start()
        service.stop()
        assert service.stop() == []
        with pytest.raises(ApiError):
            service.submit([from_sexpr("(A)")])

    def test_health_and_ready_derive_from_gauges(self):
        registry = MetricsRegistry()
        service = ShardedService(CONFIG, n_shards=2, metrics=registry)
        assert not service.ready()["ready"]  # drain threads not started
        service.start()
        assert service.ready()["ready"]
        assert service.health()["status"] == "ok"
        assert registry.gauge("serve_shards_alive").value == 2
        service.stop()
        assert not service.ready()["ready"]


# ---------------------------------------------------------------------------
# HTTP integration
# ---------------------------------------------------------------------------


class TestHttpIntegration:
    def test_concurrent_ingest_then_merged_estimates_bit_identical(
        self, server
    ):
        """The acceptance test: ≥2 shards, concurrent ingest with reads
        in flight, then quiesced merge answers == single-threaded run."""
        app, client = server
        chunks = [STREAM[i : i + 4] for i in range(0, len(STREAM), 4)]
        read_errors = []
        stop_reading = threading.Event()

        def reader():
            while not stop_reading.is_set():
                status, body = client.post(
                    "/estimate/ordered", {"query": "(A (B))"}
                )
                if status != 200 or "estimate" not in body:
                    read_errors.append((status, body))

        def writer(chunk):
            status, body = client.post("/ingest", {"trees": chunk})
            assert status == 202, body

        readers = [threading.Thread(target=reader) for _ in range(2)]
        for thread in readers:
            thread.start()
        writers = [
            threading.Thread(target=writer, args=(chunk,)) for chunk in chunks
        ]
        for thread in writers:
            thread.start()
        for thread in writers:
            thread.join()
        stop_reading.set()
        for thread in readers:
            thread.join()
        assert not read_errors

        status, drained = client.post("/admin/drain", {})
        assert status == 200 and drained["n_trees"] == len(STREAM)
        reference = reference_synopsis()
        for query in QUERIES:
            status, body = client.post(
                "/admin/estimate/ordered", {"query": query}
            )
            assert status == 200
            assert body["estimate"] == reference.estimate_ordered(query)
        status, body = client.post(
            "/admin/estimate/sum", {"queries": QUERIES}
        )
        assert body["estimate"] == reference.estimate_sum(QUERIES)

    def test_lockfree_estimates_sum_per_shard_answers(self, server):
        app, client = server
        client.post("/ingest", {"trees": STREAM})
        client.post("/admin/drain", {})
        expected = sum(
            shard.synopsis.estimate_unordered("(A (B))")
            for shard in app.service.shards
        )
        status, body = client.post(
            "/estimate/unordered", {"query": "(A (B))"}
        )
        assert status == 200 and body["estimate"] == expected

    def test_xpath_estimates_serve(self, server):
        app, client = server
        client.post("/ingest", {"trees": STREAM})
        client.post("/admin/drain", {})
        status, body = client.post("/estimate/xpath", {"query": "/A/B"})
        assert status == 200 and body["estimate"] > 0

    def test_health_ready_and_stats(self, server):
        app, client = server
        assert client.get("/healthz")[0] == 200
        assert client.get("/readyz")[0] == 200
        client.post("/ingest", {"trees": STREAM[:8]})
        client.post("/admin/drain", {})
        stats = json.loads(client.get("/stats")[1])
        assert stats["n_trees"] == 8
        assert len(stats["shards"]) == 3
        assert stats["config"]["seed"] == CONFIG.seed

    def test_metrics_endpoint_parses_with_multiline_help(self, server):
        """The live /metrics text must scan line-by-line even though
        serve_queue_depth's HELP is deliberately multi-line."""
        app, client = server
        client.post("/ingest", {"trees": STREAM[:8]})
        client.post("/admin/drain", {})
        status, text = client.get("/metrics")
        assert status == 200
        helps = {}
        for line in text.splitlines():
            assert line, "blank line in exposition output"
            if line.startswith("# HELP "):
                name, escaped = line[len("# HELP "):].split(" ", 1)
                helps[name] = escaped
            elif line.startswith("# TYPE "):
                assert line.split(" ")[-1] in ("counter", "gauge", "histogram")
            else:
                float(line.rsplit(" ", 1)[1])
        assert "\\n" in helps["repro_serve_queue_depth"]  # escaped, not raw
        assert "repro_serve_trees_total 8" in text
        assert "repro_serve_shards 3" in text

    def test_error_mapping(self, server):
        app, client = server
        assert client.post("/ingest", {"trees": []})[0] == 400
        assert client.post("/estimate/median", {"query": "(A)"})[0] == 404
        assert client.get("/nope")[0] == 404
        assert client.post("/nope", {})[0] == 404
        # An invalid pattern reaches the synopsis and maps to a 400.
        status, body = client.post(
            "/estimate/ordered", {"query": "(A (B (C (D (E)))))"}
        )
        assert status == 400 and "error" in body

    def test_backpressure_is_503_with_retry_after(self, tmp_path):
        service = ShardedService(CONFIG, n_shards=1, max_pending=1)
        # Shards deliberately NOT started: the queue can only fill.
        httpd = make_server(service)
        thread = threading.Thread(target=httpd.serve_forever, daemon=True)
        thread.start()
        client = Client(httpd.server_address[1])
        try:
            assert client.post("/ingest", {"trees": ["(A)"]})[0] == 202
            status, body = client.post("/ingest", {"trees": ["(A)"]})
            assert status == 503
            assert "retry" in body["error"].lower()
        finally:
            httpd.shutdown()
            httpd.server_close()

    def test_snapshot_resume_round_trip(self, tmp_path):
        first = ShardedService(
            CONFIG, n_shards=2, checkpoint_dir=tmp_path / "ck"
        )
        app = ServerApp(first, port=0)
        app.start()
        client = Client(app.port)
        client.post("/ingest", {"trees": STREAM})
        status, body = client.post("/admin/snapshot", {})
        assert status == 200 and len(body["checkpoints"]) == 2
        app.request_stop()
        app.wait_for_signal()
        finals = app.shutdown()
        assert len(finals) == 2  # SIGTERM path writes final checkpoints

        second = ShardedService(
            CONFIG, n_shards=2, checkpoint_dir=tmp_path / "ck", resume=True
        )
        second.start()
        reference = reference_synopsis()
        merged = second.merged_synopsis()
        for query in QUERIES:
            assert merged.estimate_ordered(query) == reference.estimate_ordered(
                query
            )
        second.stop()

    def test_snapshot_without_dir_is_409(self):
        service = ShardedService(CONFIG, n_shards=1)
        service.start()
        httpd = make_server(service)
        thread = threading.Thread(target=httpd.serve_forever, daemon=True)
        thread.start()
        try:
            assert Client(httpd.server_address[1]).post(
                "/admin/snapshot", {}
            )[0] == 409
        finally:
            httpd.shutdown()
            httpd.server_close()
            service.stop()

    def test_graceful_stop_applies_queued_batches(self, tmp_path):
        service = ShardedService(CONFIG, n_shards=2)
        app = ServerApp(service, port=0)
        app.start()
        client = Client(app.port)
        client.post("/ingest", {"trees": STREAM})
        app.request_stop()
        app.wait_for_signal()
        app.shutdown()  # must drain before joining the drain threads
        total = sum(shard.synopsis.n_trees for shard in service.shards)
        assert total == len(STREAM)
        # The listener is closed: new connections are refused.
        with pytest.raises(urllib.error.URLError):
            urllib.request.urlopen(
                f"http://127.0.0.1:{app.port}/healthz", timeout=2
            )


# ---------------------------------------------------------------------------
# Transport: one write per response, bodies always consumed
# ---------------------------------------------------------------------------


class RecordingWriter:
    """A ``wfile`` stand-in recording every write call."""

    def __init__(self):
        self.writes: list[bytes] = []

    def write(self, data):
        self.writes.append(bytes(data))
        return len(data)

    def flush(self):
        pass


def request_bytes(method, path, body=b"", headers=None):
    lines = [f"{method} {path} HTTP/1.1", "Host: test"]
    if body:
        lines.append(f"Content-Length: {len(body)}")
    lines.extend(f"{k}: {v}" for k, v in (headers or {}).items())
    return ("\r\n".join(lines) + "\r\n\r\n").encode() + body


def serve_in_memory(service, raw_requests):
    """Run ``ApiHandler`` over one in-memory keep-alive connection.

    Returns the handler and, per request, the list of ``wfile`` writes
    it produced — no sockets, no clocks.
    """
    handler = ApiHandler.__new__(ApiHandler)
    handler.server = SimpleNamespace(service=service)
    handler.client_address = ("127.0.0.1", 0)
    handler.rfile = io.BytesIO(b"".join(raw_requests))
    handler.wfile = RecordingWriter()
    handler.close_connection = False
    per_request = []
    for _ in raw_requests:
        before = len(handler.wfile.writes)
        handler.handle_one_request()
        per_request.append(handler.wfile.writes[before:])
    return handler, per_request


def parse_response(raw):
    head, _, body = raw.partition(b"\r\n\r\n")
    status_line, *header_lines = head.decode("latin-1").split("\r\n")
    headers = dict(line.split(": ", 1) for line in header_lines)
    return int(status_line.split()[1]), headers, body


@pytest.fixture
def started_service():
    service = ShardedService(CONFIG, n_shards=2)
    service.start()
    yield service
    service.stop()


class TestTransport:
    def test_every_response_is_one_write(self, started_service):
        query = json.dumps({"query": "(A (B))"}).encode()
        requests = [
            request_bytes("GET", "/healthz"),
            request_bytes("GET", "/readyz"),
            request_bytes("GET", "/metrics"),
            request_bytes("GET", "/stats"),
            request_bytes("GET", "/nope"),
            request_bytes("POST", "/ingest", json.dumps({"trees": STREAM}).encode()),
            request_bytes("POST", "/admin/drain", b"{}"),
            request_bytes("POST", "/estimate/ordered", query),
            request_bytes("POST", "/estimate/median", query),
            request_bytes("POST", "/admin/estimate/unordered", query),
            request_bytes("POST", "/ingest", b"not json"),
            request_bytes("POST", "/nope", b"{}"),
        ]
        handler, writes = serve_in_memory(started_service, requests)
        statuses = []
        for response in writes:
            assert len(response) == 1, response
            status, headers, body = parse_response(response[0])
            assert int(headers["Content-Length"]) == len(body)
            statuses.append(status)
        assert statuses == [200, 200, 200, 200, 404, 202, 200, 200, 404, 200,
                            400, 404]
        assert not handler.close_connection

    def test_ignored_bodies_keep_the_connection_in_sync(self, started_service):
        """drain-with-body → healthz → unknown-path-with-body → healthz."""
        _, writes = serve_in_memory(
            started_service,
            [
                request_bytes("POST", "/admin/drain", b'{"ignored": true}'),
                request_bytes("GET", "/healthz"),
                request_bytes("POST", "/nope", b'{"ignored": true}'),
                request_bytes("GET", "/healthz"),
                request_bytes("POST", "/estimate/median", b'{"query": "(A)"}'),
                request_bytes("GET", "/healthz"),
            ],
        )
        statuses = [parse_response(w[0])[0] for w in writes]
        assert statuses == [200, 200, 404, 200, 404, 200]

    @pytest.mark.parametrize(
        "headers,status",
        [
            ({"Content-Length": str(MAX_BODY_BYTES + 1)}, 413),
            ({"Content-Length": "-5"}, 400),
            ({"Content-Length": "many"}, 400),
            ({"Transfer-Encoding": "chunked"}, 411),
        ],
    )
    def test_unreadable_body_answers_and_closes(
        self, started_service, headers, status
    ):
        handler, writes = serve_in_memory(
            started_service,
            [request_bytes("POST", "/ingest", headers=headers)],
        )
        (response,) = writes
        got, response_headers, _ = parse_response(response[0])
        assert got == status
        assert response_headers["Connection"] == "close"
        assert handler.close_connection

    def test_keep_alive_survives_body_ignoring_routes(self, server):
        """Over a real socket: one http.client connection throughout."""
        app, _ = server
        conn = http.client.HTTPConnection("127.0.0.1", app.port, timeout=30)
        try:
            sequence = [
                ("POST", "/ingest", json.dumps({"trees": STREAM[:8]}), 202),
                ("POST", "/admin/drain", '{"ignored": 1}', 200),
                ("GET", "/healthz", None, 200),
                ("POST", "/nope", '{"ignored": 1}', 404),
                ("GET", "/healthz", None, 200),
                ("POST", "/admin/snapshot", '{"ignored": 1}', 200),
                ("POST", "/estimate/ordered", '{"query": "(A (B))"}', 200),
            ]
            for method, path, body, status in sequence:
                conn.request(method, path, body=body)
                response = conn.getresponse()
                response.read()
                assert (path, response.status) == (path, status)
                assert not response.will_close
        finally:
            conn.close()


# ---------------------------------------------------------------------------
# The fast path: one compiled plan, summed over shards
# ---------------------------------------------------------------------------

FAST_CONFIG = SketchTreeConfig(
    s1=9, s2=3, max_pattern_edges=3, n_virtual_streams=5, seed=7
)


@st.composite
def sexpr_trees(draw, depth=0):
    label = draw(st.sampled_from("ABCD"))
    fanout = 0 if depth >= 2 else draw(st.integers(0, 3))
    kids = [draw(sexpr_trees(depth + 1)) for _ in range(fanout)]
    return "(" + label + "".join(" " + kid for kid in kids) + ")"


@st.composite
def small_patterns(draw):
    """Patterns with 1..3 edges over the tree alphabet."""
    root = draw(st.sampled_from("ABCD"))
    kids = draw(st.lists(st.sampled_from("ABCD"), min_size=1, max_size=3))
    if len(kids) < 3 and draw(st.booleans()):
        kids[0] = f"{kids[0]} ({draw(st.sampled_from('ABCD'))})"
    return "(" + root + "".join(f" ({kid})" for kid in kids) + ")"


class TestFastPathBitIdentity:
    @pytest.mark.parametrize("n_shards", [1, 2, 3])
    @pytest.mark.parametrize("topk_size", [0, 2])
    @settings(max_examples=15, deadline=None)
    @given(
        trees=st.lists(sexpr_trees(), min_size=1, max_size=18),
        patterns=st.lists(small_patterns(), min_size=1, max_size=3, unique=True),
        path=st.lists(st.sampled_from("ABCD"), min_size=2, max_size=3),
    )
    def test_estimate_route_equals_sum_of_shard_estimates(
        self, n_shards, topk_size, trees, patterns, path
    ):
        config = dataclasses.replace(FAST_CONFIG, topk_size=topk_size)
        service = ShardedService(config, n_shards=n_shards)
        # The test thread is every shard's single writer (no drain threads).
        for index, text in enumerate(trees):
            service.shards[index % n_shards].synopsis.update(from_sexpr(text))
        cases = [
            ("ordered", patterns[0]),
            ("unordered", patterns[-1]),
            ("sum", patterns),
            ("xpath", "/".join(path)),
        ]
        requests = [
            request_bytes(
                "POST",
                f"/estimate/{kind}",
                json.dumps(
                    {"queries": query} if kind == "sum" else {"query": query}
                ).encode(),
            )
            for kind, query in cases
        ]
        _, writes = serve_in_memory(service, requests)
        for (kind, query), response in zip(cases, writes):
            status, _, body = parse_response(response[0])
            assert status == 200, body
            expected = sum(
                getattr(shard.synopsis, f"estimate_{kind}")(query)
                for shard in service.shards
            )
            assert json.loads(body)["estimate"] == expected, (kind, query)


# ---------------------------------------------------------------------------
# CLI entry points
# ---------------------------------------------------------------------------


class TestCli:
    def test_module_parser_defaults(self):
        args = build_parser().parse_args([])
        assert args.port == 8080 and args.shards == 4

    def test_experiments_cli_has_serve_subcommand(self):
        from repro.cli import build_parser as experiments_parser

        args = experiments_parser().parse_args(
            ["serve", "--port", "0", "--shards", "2"]
        )
        assert args.experiment == "serve" and args.shards == 2

    def test_run_from_args_serves_and_stops_on_signal(self, capsys):
        args = build_parser().parse_args(
            ["--port", "0", "--shards", "2", "--s1", "20", "--streams", "31"]
        )
        # Drive run_from_args from a helper thread: install_signal_handlers
        # requires the main thread, so patch it out and stop via the app.
        import repro.serve.app as app_module

        original_wait = app_module.ServerApp.wait_for_signal
        original_install = app_module.ServerApp.install_signal_handlers

        def wait_and_record(self):
            self.request_stop()
            original_wait(self)

        app_module.ServerApp.install_signal_handlers = lambda self: None
        app_module.ServerApp.wait_for_signal = wait_and_record
        try:
            assert run_from_args(args) == 0
        finally:
            app_module.ServerApp.install_signal_handlers = original_install
            app_module.ServerApp.wait_for_signal = original_wait
        out = capsys.readouterr().out
        assert "serving on http://" in out
        assert "stopped cleanly" in out
