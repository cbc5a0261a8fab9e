import json
import socket
import threading

import service_mix
import stats


class FakeDaemon(threading.Thread):
    """Drops the first connection after reading one request (as the real
    daemon does with a line over its limit), then answers normally."""

    def __init__(self) -> None:
        super().__init__(daemon=True)
        self.server = socket.create_server(("127.0.0.1", 0))
        self.port = self.server.getsockname()[1]

    def run(self) -> None:
        with self.server:
            conn, _ = self.server.accept()
            with conn:
                conn.makefile("rb").readline()
            conn, _ = self.server.accept()
            with conn, conn.makefile("rwb") as f:
                while f.readline():
                    for line in (
                        {"id": None, "ok": True, "kind": "header", "runs": 1, "rows": 2,
                         "cols": 1, "info": {}},
                        {"id": None, "kind": "chunk", "run": 0, "t": [0.5, 1.5],
                         "values": [[1.0, 2.0]]},
                        {"id": None, "kind": "done", "ok": True, "latency_ms": 1.0},
                    ):
                        f.write(json.dumps(line).encode() + b"\n")
                    f.flush()


def item(kind, size=0):
    request = {"op": "simulate", "netlist": f"* {kind}\n" + "*" * size, "scale": 1.0}
    return {"kind": kind, "request": request, "line": (json.dumps(request) + "\n").encode()}


def test_dropped_connection_counts_as_a_failure_and_the_client_reconnects():
    daemon = FakeDaemon()
    daemon.start()
    keep: dict = {}
    client = service_mix.Client(daemon.port, [item("big"), item("hot"), item("hot")],
                                count=3, keep=keep)
    client.start()
    client.join(timeout=30)
    assert not client.is_alive()
    assert client.exc is None
    assert client.dropped == 1 and client.errors == 0 and client.refused == 0
    assert client.latencies[0] is None
    assert all(v is not None and v > 0 for v in client.latencies[1:])
    (request, runs), = keep.values()
    t, values = runs[0]
    assert list(t) == [0.5, 1.5] and values.tolist() == [[1.0, 2.0]]
    daemon.join(timeout=30)
    assert not daemon.is_alive()


def test_dropped_line_over_the_daemon_limit_is_refused_not_failed():
    daemon = FakeDaemon()
    daemon.start()
    oversize = item("oversize", size=service_mix.LINE_LIMIT)
    client = service_mix.Client(daemon.port, [oversize, item("hot")], count=2)
    client.start()
    client.join(timeout=30)
    assert not client.is_alive() and client.exc is None
    assert client.dropped == 1 and client.refused == 1
    assert client.latencies[0] == stats.REFUSED
    summary = stats.summarise_jobs(client.latencies, elapsed=1.0)
    assert summary["failed"] == 0 and summary["refused"] == 1
    assert summary["ok_ratio"] == 0.5
    daemon.join(timeout=30)
