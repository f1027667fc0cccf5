"""The decision query service, locked by a differential harness.

The load-bearing property, checked with hypothesis: for *any* user
FoM weight vector, re-ranking the warehouse's stored frame
(:func:`~repro.core.queryservice.rerank_frame`) is **byte-identical**
to re-running the whole sweep through ``evaluate_cell`` with those
weights as the sweep-wide default — including on grids that carry
their own ``fom_weights`` axis, where non-``paper`` points must keep
their per-point ranking.  Equality is asserted on the JSON column
serialisation, so equal means equal IEEE doubles, not "close".

Around it: the query semantics of all six kinds, the contradictory-ask
matrix (every bad request is a :class:`QueryError`, never a
traceback), the stdlib HTTP surface (including keep-alive latency and
the malformed-request edges), the manifest memo and frame-cache
sizing, and the concurrency satellite — reader threads hammering mixed
queries while a writer appends a shard must only ever observe
complete, canonical warehouse states.
"""

from __future__ import annotations

import http.client
import json
import socket
import statistics
import sys
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.area.footprint import Footprint, MountKind
from repro.area.substrate import PCB_RULE
from repro.core.figure_of_merit import FomWeights
from repro.core.methodology import CandidateBuildUp
from repro.core import queryservice
from repro.core.queryservice import (
    QUERY_KINDS,
    QueryError,
    QueryService,
    parse_fom_weights,
    rerank_frame,
    response_bytes,
    serve_warehouse,
    weighted_fom,
)
from repro.core.sharding import run_shard
from repro.core.sweep import DesignPoint, SweepGrid, run_design_sweep
from repro.core.warehouse import (
    append_shard_artifact,
    build_warehouse,
    decision_frame_for_cells,
    init_warehouse,
    load_warehouse,
    manifest_path,
)
from repro.cost.moe.flow import ProductionFlow
from repro.cost.moe.nodes import CarrierStep, TestStep
from repro.errors import SpecificationError

#: The differential grid carries a fom_weights *axis* on purpose: the
#: non-``paper`` point must keep its own ranking under every re-rank.
GRID = SweepGrid(
    volumes=(1e3, 5e3, 1e4, 1e5),
    fom_weights=(None, FomWeights(performance=2.0, cost=0.5)),
)


def _flow(area_cm2: float) -> ProductionFlow:
    flow = ProductionFlow(name="toy")
    flow.add(CarrierStep("ID1", "carrier", unit_cost=10.0 + area_cm2))
    flow.add(TestStep("ID2", "test", test_cost=1.0))
    return flow


def fixed_candidates(point: DesignPoint) -> list[CandidateBuildUp]:
    footprints = [Footprint("chip", 25.0, MountKind.PACKAGED)]
    return [
        CandidateBuildUp(
            name="ref",
            footprints=footprints,
            substrate_rule=PCB_RULE,
            flow_factory=_flow,
            fixed_performance=1.0,
        ),
        CandidateBuildUp(
            name="alt",
            footprints=footprints * 2,
            substrate_rule=PCB_RULE,
            flow_factory=_flow,
            fixed_performance=0.9,
        ),
    ]


@pytest.fixture(scope="module")
def warehouse_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("warehouse") / "wh"
    build_warehouse(directory, GRID, fixed_candidates)
    return directory


@pytest.fixture(scope="module")
def stored(warehouse_dir):
    return load_warehouse(warehouse_dir)


@pytest.fixture(scope="module")
def service(warehouse_dir):
    return QueryService(warehouse_dir)


#: Exponents stay in a band where FoM values neither overflow nor
#: denormalise — the regime the paper's weighting study lives in.
weight_values = st.floats(
    min_value=0.0,
    max_value=4.0,
    allow_nan=False,
    allow_infinity=False,
)


class TestDifferentialRerank:
    """The harness the tentpole is locked by."""

    @settings(max_examples=40, deadline=None)
    @given(
        performance=weight_values,
        size=weight_values,
        cost=weight_values,
    )
    def test_rerank_equals_fresh_sweep_byte_for_byte(
        self, stored, performance, size, cost
    ):
        weights = FomWeights(
            performance=performance, size=size, cost=cost
        )
        fresh = run_design_sweep(
            GRID, fixed_candidates, weights=weights
        )
        reranked = rerank_frame(stored, weights)
        assert reranked.to_json_columns() == (
            fresh.frame.to_json_columns()
        )

    def test_paper_weights_are_the_identity(self, stored):
        reranked = rerank_frame(stored, FomWeights())
        assert reranked.to_json_columns() == (
            stored.frame.to_json_columns()
        )

    def test_weighted_fom_matches_the_scalar_formula(self, stored):
        from repro.core.figure_of_merit import figure_of_merit

        weights = FomWeights(performance=1.7, size=0.3, cost=2.9)
        vector = weighted_fom(
            stored.frame.column("performance"),
            stored.size_ratio,
            stored.cost_ratio,
            weights,
        )
        scalar = [
            figure_of_merit(p, s, c, weights)
            for p, s, c in zip(
                stored.frame.column("performance").tolist(),
                stored.size_ratio.tolist(),
                stored.cost_ratio.tolist(),
            )
        ]
        assert vector.tolist() == scalar


class TestParseFomWeights:
    def test_string_forms(self):
        weights = parse_fom_weights("2:1:0.5")
        assert (weights.performance, weights.size, weights.cost) == (
            2.0,
            1.0,
            0.5,
        )
        assert parse_fom_weights("paper") == FomWeights()

    def test_list_form(self):
        assert parse_fom_weights([2, 1, 0.5]) == parse_fom_weights(
            "2:1:0.5"
        )

    @pytest.mark.parametrize(
        "bad",
        [
            "1:2",
            "a:b:c",
            "-1:1:1",
            "inf:1:1",
            [1, 2],
            [1, 2, True],
            {"performance": 1},
            None,
        ],
    )
    def test_bad_values_raise_query_errors(self, bad):
        with pytest.raises(QueryError):
            parse_fom_weights(bad)


class TestQueryKinds:
    def test_manifest_reports_coverage(self, service):
        payload = service.execute({"kind": "manifest"})
        assert payload["complete"] is True
        assert payload["covered_points"] == 8
        assert payload["total_points"] == 8

    def test_pareto_returns_only_front_rows(self, service, stored):
        payload = service.execute({"kind": "pareto"})
        front = stored.frame.filter(
            stored.frame.column("on_pareto_front")
        )
        assert payload["rows"] == front.to_json_columns()
        assert payload["count"] == len(front)

    def test_where_filters_compose(self, service, stored):
        payload = service.execute(
            {
                "kind": "pareto",
                "where": {"volume": 1e4, "candidate": "ref"},
            }
        )
        for volume in payload["rows"]["volume"]:
            assert volume == 1e4
        for name in payload["rows"]["candidate"]:
            assert name == "ref"

    def test_winners_counts_match_the_frame(self, service, stored):
        payload = service.execute({"kind": "winners"})
        assert payload["winner_counts"] == (
            stored.frame.winner_counts()
        )
        assert payload["points"] == 8

    def test_best_is_the_argmax_row(self, service, stored):
        payload = service.execute({"kind": "best"})
        best = stored.frame.row(stored.frame.best_index()).as_dict()
        assert payload["best"] == best

    def test_rerank_response_carries_ranking_artifacts(self, service):
        payload = service.execute(
            {"kind": "rerank", "fom_weights": "2:1:0.5"}
        )
        fresh = run_design_sweep(
            GRID,
            fixed_candidates,
            weights=FomWeights(performance=2.0, size=1.0, cost=0.5),
        )
        assert payload["rows"] == fresh.frame.to_json_columns()
        assert payload["winner_counts"] == (
            fresh.frame.winner_counts()
        )
        assert payload["best"] == fresh.frame.row(
            fresh.frame.best_index()
        ).as_dict()

    def test_sensitivity_slices_one_point_each(self, service):
        payload = service.execute(
            {
                "kind": "sensitivity",
                "axis": "volume",
                "where": {"weights": "paper"},
            }
        )
        assert [s["value"] for s in payload["slices"]] == [
            1e3,
            5e3,
            1e4,
            1e5,
        ]
        for entry in payload["slices"]:
            assert entry["winner"] in entry["fom"]
            assert set(entry["fom"]) == {"ref", "alt"}

    def test_sensitivity_under_user_weights(self, service):
        payload = service.execute(
            {
                "kind": "sensitivity",
                "axis": "volume",
                "where": {"weights": "paper"},
                "fom_weights": "0:0:1",
            }
        )
        fresh = run_design_sweep(
            GRID,
            fixed_candidates,
            weights=FomWeights(performance=0.0, size=0.0, cost=1.0),
        )
        mask = fresh.frame.column("weights") == "paper"
        sub = fresh.frame.filter(mask)
        for entry in payload["slices"]:
            vmask = sub.column("volume") == entry["value"]
            winners = sub.column("candidate")[
                vmask & sub.column("is_winner")
            ]
            assert entry["winner"] == winners[0]


class TestBadAsks:
    @pytest.mark.parametrize(
        "request_payload",
        [
            "not an object",
            {"kind": "nope"},
            {},
            {"kind": "pareto", "surprise": 1},
            {"kind": "pareto", "fom_weights": "2:1:1"},
            {"kind": "rerank"},
            {"kind": "rerank", "fom_weights": "1:2"},
            {"kind": "manifest", "where": {"volume": 1e3}},
            {"kind": "manifest", "fom_weights": "1:1:1"},
            {"kind": "winners", "axis": "volume"},
            {"kind": "sensitivity"},
            {"kind": "sensitivity", "axis": "candidate"},
            {
                "kind": "sensitivity",
                "axis": "volume",
                "where": {"volume": 1e3},
            },
            {"kind": "sensitivity", "axis": "volume"},
            {"kind": "pareto", "where": {"bogus": 1}},
            {"kind": "pareto", "where": {"volume": "lots"}},
            {"kind": "pareto", "where": {"volume": True}},
            {"kind": "pareto", "where": {"candidate": 7}},
            {"kind": "pareto", "where": "volume=1e3"},
            {"kind": "best", "where": {"volume": 77.0}},
        ],
    )
    def test_exit_contract_is_a_query_error(
        self, service, request_payload
    ):
        with pytest.raises(QueryError):
            service.execute(request_payload)

    def test_sensitivity_multi_point_slice_names_the_fix(
        self, service
    ):
        # Without pinning the weights axis, each volume slice covers
        # two grid points — ambiguous, and the error says how to fix.
        with pytest.raises(QueryError) as excinfo:
            service.execute({"kind": "sensitivity", "axis": "volume"})
        assert "pin the remaining" in str(excinfo.value)

    def test_missing_warehouse_is_a_specification_error(
        self, tmp_path
    ):
        with pytest.raises(SpecificationError):
            QueryService(tmp_path / "nowhere").execute(
                {"kind": "manifest"}
            )


class TestHttpSurface:
    @pytest.fixture(scope="class")
    def server(self, warehouse_dir):
        server = serve_warehouse(warehouse_dir)
        thread = threading.Thread(
            target=server.serve_forever, daemon=True
        )
        thread.start()
        yield server
        server.shutdown()
        server.server_close()

    def _post(self, server, payload):
        host, port = server.server_address[:2]
        request = urllib.request.Request(
            f"http://{host}:{port}/query",
            data=json.dumps(payload).encode(),
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(request) as response:
            return response.read()

    def test_query_bytes_match_in_process_execution(
        self, server, service
    ):
        for request_payload in (
            {"kind": "manifest"},
            {"kind": "winners"},
            {"kind": "rerank", "fom_weights": "2:1:0.5"},
        ):
            assert self._post(server, request_payload) == (
                response_bytes(service.execute(request_payload))
            )

    def test_get_manifest_and_health(self, server, service):
        host, port = server.server_address[:2]
        with urllib.request.urlopen(
            f"http://{host}:{port}/manifest"
        ) as response:
            assert response.read() == response_bytes(
                service.execute({"kind": "manifest"})
            )
        with urllib.request.urlopen(
            f"http://{host}:{port}/health"
        ) as response:
            payload = json.loads(response.read())
        assert payload["status"] == "ok"

    def test_health_exposes_rerank_cache_counters(self, server):
        host, port = server.server_address[:2]

        def health():
            with urllib.request.urlopen(
                f"http://{host}:{port}/health"
            ) as response:
                return json.loads(response.read())["rerank_cache"]

        before = health()
        assert set(before) == {"hits", "misses", "entries", "capacity"}
        self._post(
            server, {"kind": "rerank", "fom_weights": "3:1:0.25"}
        )
        self._post(
            server, {"kind": "winners", "fom_weights": "3:1:0.25"}
        )
        after = health()
        assert after["misses"] >= before["misses"] + 1
        assert after["hits"] >= before["hits"] + 1

    def test_bad_asks_are_http_400(self, server):
        host, port = server.server_address[:2]
        for body in (b"{torn", json.dumps({"kind": "rerank"}).encode()):
            request = urllib.request.Request(
                f"http://{host}:{port}/query", data=body
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request)
            assert excinfo.value.code == 400
            assert "error" in json.loads(excinfo.value.read())

    def test_unknown_path_is_http_404(self, server):
        host, port = server.server_address[:2]
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(f"http://{host}:{port}/pareto")
        assert excinfo.value.code == 404

    @staticmethod
    def _connection(server) -> http.client.HTTPConnection:
        host, port = server.server_address[:2]
        return http.client.HTTPConnection(host, port, timeout=30)

    @staticmethod
    def _ask(connection, request) -> http.client.HTTPResponse:
        connection.request(
            "POST",
            "/query",
            body=json.dumps(request).encode(),
            headers={"Content-Type": "application/json"},
        )
        return connection.getresponse()

    @staticmethod
    def _raw_exchange(server, request: bytes) -> bytes:
        """Send raw bytes; everything the server writes until it closes."""
        host, port = server.server_address[:2]
        with socket.create_connection((host, port), timeout=10) as sock:
            sock.sendall(request)
            chunks = []
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    return b"".join(chunks)
                chunks.append(chunk)

    def test_keep_alive_queries_beat_the_delayed_ack_floor(
        self, server, service
    ):
        # urllib closes the connection after every request, so only a
        # reused socket can show a head/body split stalled by Nagle's
        # algorithm until the client's ~40 ms delayed ACK.
        mix = (
            {"kind": "manifest"},
            {"kind": "pareto", "where": {"volume": 1e4}},
            {"kind": "rerank", "fom_weights": "2:1:0.5"},
            {"kind": "winners"},
            {"kind": "best", "fom_weights": "1:2:1"},
            {
                "kind": "sensitivity",
                "axis": "volume",
                "where": {"weights": "paper"},
            },
        )
        connection = self._connection(server)
        latencies = []
        try:
            sock = None
            for request in mix * 5:
                began = time.perf_counter()
                response = self._ask(connection, request)
                body = response.read()
                latencies.append(time.perf_counter() - began)
                assert response.status == 200
                assert body == response_bytes(service.execute(request))
                sock = sock or connection.sock
                assert connection.sock is sock, "connection not reused"
        finally:
            connection.close()
        assert len(latencies) == 30
        assert statistics.median(latencies) < 0.020, latencies

    def test_response_head_keeps_the_stdlib_layout(self, server, service):
        data = self._raw_exchange(
            server,
            b"GET /manifest HTTP/1.1\r\nHost: x\r\n"
            b"Connection: close\r\n\r\n",
        )
        head, _, body = data.partition(b"\r\n\r\n")
        lines = head.split(b"\r\n")
        assert lines[0] == b"HTTP/1.1 200 OK"
        names = [line.split(b":", 1)[0] for line in lines[1:]]
        assert names == [
            b"Server",
            b"Date",
            b"Content-Type",
            b"Content-Length",
        ]
        assert body == response_bytes(service.execute({"kind": "manifest"}))

    def test_http_0_9_gets_the_body_alone(self, server, service):
        body = self._raw_exchange(server, b"GET /manifest\r\n\r\n")
        assert body == response_bytes(service.execute({"kind": "manifest"}))

    def test_unexpected_errors_are_http_500_and_keep_the_connection(
        self, server, service, capsys, monkeypatch
    ):
        # On a GPS warehouse, weights such as 1e308:1e308:1e308
        # overflow the scalar pow kernel: not a QueryError, but the
        # client must still get an answer.
        def overflowing(dframe, weights):
            raise OverflowError("(34, 'Numerical result out of range')")

        monkeypatch.setattr(queryservice, "rerank_frame", overflowing)
        connection = self._connection(server)
        try:
            response = self._ask(
                connection, {"kind": "best", "fom_weights": "7:1:1"}
            )
            body = response.read()
            assert response.status == 500
            payload = json.loads(body)
            assert body == response_bytes(payload)
            assert payload["error"].startswith(
                "internal error: OverflowError"
            )
            sock = connection.sock
            response = self._ask(connection, {"kind": "winners"})
            assert response.status == 200
            assert response.read() == response_bytes(
                service.execute({"kind": "winners"})
            )
            assert connection.sock is sock
        finally:
            connection.close()
        stderr = capsys.readouterr().err
        assert "Traceback" in stderr and "OverflowError" in stderr

    @pytest.mark.parametrize("declared", [b"-1", b"abc", b"1.5", b"+3"])
    def test_malformed_content_length_is_http_400_and_closes(
        self, server, declared
    ):
        # The body is never read: the server answers and hangs up
        # rather than block on it or parse it as the next request.
        data = self._raw_exchange(
            server,
            b"POST /query HTTP/1.1\r\nHost: x\r\nContent-Length: "
            + declared
            + b"\r\n\r\n"
            + b'{"kind": "winners"}',
        )
        head, _, body = data.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 ")
        assert b"\r\nConnection: close" in head
        assert "Content-Length" in json.loads(body)["error"]

    def test_post_to_an_unknown_path_closes_with_the_body_unread(
        self, server
    ):
        # Kept open, the unread body would be parsed as the next
        # request line and draw a second, stray response.
        data = self._raw_exchange(
            server,
            b"POST /pareto HTTP/1.1\r\nHost: x\r\nContent-Length: 5"
            b"\r\n\r\nhello",
        )
        assert data.count(b"HTTP/1.1 ") == 1
        head, _, body = data.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 404 ")
        assert json.loads(body) == {"error": "unknown path '/pareto'"}


class TestConcurrentAppendAndQuery:
    """The torn-state satellite: readers during a writer append."""

    N_THREADS = 6
    N_QUERIES = 25

    def test_queries_only_see_complete_canonical_states(
        self, tmp_path
    ):
        grid = SweepGrid(volumes=(1e3, 2e3, 5e3, 1e4))
        artifacts = [
            run_shard(grid, fixed_candidates, shards=4, shard_index=i)
            for i in range(4)
        ]
        init_warehouse(tmp_path, grid)
        for artifact in artifacts[:3]:
            append_shard_artifact(tmp_path, artifact)

        # The only two states any reader may ever observe.
        def canonical(service):
            return {
                "winners": response_bytes(
                    service.execute({"kind": "winners"})
                ),
                "rerank": response_bytes(
                    service.execute(
                        {"kind": "rerank", "fom_weights": "2:1:0.5"}
                    )
                ),
            }

        before = canonical(QueryService(tmp_path))
        probe = tmp_path / ".probe"
        probe.mkdir()
        init_warehouse(probe, grid)
        for artifact in artifacts:
            append_shard_artifact(probe, artifact)
        # The probe's revision (init + 4 appends = 5) equals what the
        # shared warehouse reports after its own 4th append, so its
        # response bytes are exactly the expected "after" state.
        after = canonical(QueryService(probe))

        service = QueryService(tmp_path)
        failures: list = []
        seen_after = threading.Event()
        start = threading.Barrier(self.N_THREADS + 1)

        def hammer():
            start.wait()
            for index in range(self.N_QUERIES):
                kind = ("winners", "rerank")[index % 2]
                request_payload = (
                    {"kind": kind}
                    if kind == "winners"
                    else {"kind": kind, "fom_weights": "2:1:0.5"}
                )
                try:
                    body = response_bytes(
                        service.execute(request_payload)
                    )
                except Exception as exc:  # noqa: BLE001
                    failures.append(repr(exc))
                    continue
                if body == after[kind]:
                    seen_after.set()
                elif body != before[kind]:
                    failures.append(
                        f"non-canonical {kind} response: {body[:120]!r}"
                    )

        threads = [
            threading.Thread(target=hammer)
            for _ in range(self.N_THREADS)
        ]
        for thread in threads:
            thread.start()
        start.wait()
        append_shard_artifact(tmp_path, artifacts[3])
        for thread in threads:
            thread.join()
        assert not failures, failures[:5]
        # After the append every new query reports the full grid.
        final = response_bytes(service.execute({"kind": "winners"}))
        assert final == after["winners"]


def partly_published(directory, frames: int, published: int) -> list:
    """A warehouse of one-point frames with ``published`` appended.

    Returns the artifacts not yet appended.
    """
    grid = SweepGrid(volumes=tuple(1e3 * (k + 1) for k in range(frames)))
    artifacts = [
        run_shard(grid, fixed_candidates, shards=frames, shard_index=i)
        for i in range(frames)
    ]
    init_warehouse(directory, grid)
    for artifact in artifacts[:published]:
        append_shard_artifact(directory, artifact)
    return artifacts[published:]


class TestManifestMemo:
    """The manifest file is read per query but parsed once per change."""

    @pytest.fixture
    def parses(self, monkeypatch):
        calls: list = []
        original = queryservice.parse_warehouse_manifest

        def counting(raw, source):
            calls.append(source)
            return original(raw, source)

        monkeypatch.setattr(
            queryservice, "parse_warehouse_manifest", counting
        )
        return calls

    @pytest.fixture
    def growing(self, tmp_path):
        """A warehouse holding 3 of 4 frames, plus the 4th artifact."""
        (last,) = partly_published(tmp_path, frames=4, published=3)
        return tmp_path, last

    def test_unchanged_bytes_do_not_reparse(self, warehouse_dir, parses):
        fresh = QueryService(warehouse_dir)
        first = response_bytes(fresh.execute({"kind": "winners"}))
        for _ in range(4):
            assert response_bytes(
                fresh.execute({"kind": "winners"})
            ) == first
        fresh.execute({"kind": "manifest"})
        assert len(parses) == 1

    def test_changed_bytes_are_visible_at_the_next_query(
        self, growing, parses
    ):
        directory, last = growing
        fresh = QueryService(directory)
        before = fresh.execute({"kind": "manifest"})
        append_shard_artifact(directory, last)
        after = fresh.execute({"kind": "manifest"})
        assert after["revision"] == before["revision"] + 1
        assert after["complete"] and not before["complete"]
        assert len(parses) == 2
        assert response_bytes(after) == response_bytes(
            QueryService(directory).execute({"kind": "manifest"})
        )

    def test_memo_never_pairs_a_manifest_with_other_bytes_under_stress(
        self, tmp_path
    ):
        # More reader threads than cores and a tiny switch interval:
        # a memo that served a manifest parsed from older bytes would
        # show up as a revision going backwards within one thread.
        pending = partly_published(tmp_path, frames=6, published=1)
        service = QueryService(tmp_path)
        done = threading.Event()
        failures: list = []

        def read():
            last = 0
            while not done.is_set():
                manifest = service.manifest()
                if manifest.revision < last:
                    failures.append((last, manifest.revision))
                if manifest.revision != len(manifest.frames) + 1:
                    failures.append(("torn", manifest.revision))
                last = manifest.revision

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        threads = [threading.Thread(target=read) for _ in range(6)]
        try:
            for thread in threads:
                thread.start()
            for artifact in pending:
                append_shard_artifact(tmp_path, artifact)
        finally:
            done.set()
            for thread in threads:
                thread.join(timeout=30)
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not failures, failures[:5]
        assert service.manifest().revision == 7

    def test_corrupt_manifest_is_the_same_http_500(self, growing):
        directory, _ = growing
        server = serve_warehouse(directory)
        thread = threading.Thread(
            target=server.serve_forever, daemon=True
        )
        thread.start()
        host, port = server.server_address[:2]
        try:
            # A good manifest is memoised first; the torn bytes must
            # still be parsed (and refused), never served from the memo.
            server.service.execute({"kind": "winners"})
            manifest_path(directory).write_bytes(b"not json")
            request = urllib.request.Request(
                f"http://{host}:{port}/query",
                data=json.dumps({"kind": "winners"}).encode(),
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request)
        finally:
            server.shutdown()
            server.server_close()
        assert excinfo.value.code == 500
        assert json.loads(excinfo.value.read()) == {
            "error": f"warehouse manifest {manifest_path(directory)} "
            f"is not valid JSON: Expecting value: line 1 column 1 "
            f"(char 0)"
        }


class TestFrameCacheSizing:
    """An LRU smaller than the frame count must not thrash the reload."""

    def test_reload_after_append_hits_every_old_frame(self, tmp_path):
        (last,) = partly_published(tmp_path, frames=13, published=12)
        service = QueryService(tmp_path)
        assert service.cache.capacity < 12
        service.execute({"kind": "winners"})
        assert (service.cache.hits, service.cache.misses) == (0, 12)
        append_shard_artifact(tmp_path, last)
        service.execute({"kind": "winners"})
        assert (service.cache.hits, service.cache.misses) == (12, 13)
        assert service.cache.capacity == 13


class TestRerankCache:
    """The re-rank LRU satellite: repeated weights skip the pow kernel."""

    def test_repeat_weights_hit_and_responses_stay_identical(
        self, warehouse_dir
    ):
        fresh = QueryService(warehouse_dir)
        request = {"kind": "rerank", "fom_weights": "2:1:0.5"}
        first = response_bytes(fresh.execute(request))
        stats = fresh.rerank_cache_stats()
        assert stats["misses"] == 1 and stats["hits"] == 0
        second = response_bytes(fresh.execute(request))
        stats = fresh.rerank_cache_stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert second == first

    def test_cache_is_shared_across_query_kinds(self, warehouse_dir):
        fresh = QueryService(warehouse_dir)
        fresh.execute({"kind": "rerank", "fom_weights": "2:1:1"})
        fresh.execute({"kind": "winners", "fom_weights": "2:1:1"})
        fresh.execute({"kind": "best", "fom_weights": "2:1:1"})
        stats = fresh.rerank_cache_stats()
        assert stats["misses"] == 1 and stats["hits"] == 2

    def test_distinct_weights_miss_and_lru_evicts(self, warehouse_dir):
        fresh = QueryService(warehouse_dir, rerank_cache_capacity=2)
        for cost in ("0.5", "1.5", "2.5"):
            fresh.execute(
                {"kind": "rerank", "fom_weights": f"1:1:{cost}"}
            )
        stats = fresh.rerank_cache_stats()
        assert stats["misses"] == 3 and stats["entries"] == 2
        # The oldest entry (cost 0.5) was evicted: asking again misses.
        fresh.execute({"kind": "rerank", "fom_weights": "1:1:0.5"})
        assert fresh.rerank_cache_stats()["misses"] == 4

    def test_unweighted_queries_bypass_the_cache(self, warehouse_dir):
        fresh = QueryService(warehouse_dir)
        fresh.execute({"kind": "winners"})
        fresh.execute({"kind": "pareto"})
        stats = fresh.rerank_cache_stats()
        assert stats["hits"] == 0 and stats["misses"] == 0

    def test_bad_capacity_rejected(self, warehouse_dir):
        with pytest.raises(SpecificationError):
            QueryService(warehouse_dir, rerank_cache_capacity=0)
