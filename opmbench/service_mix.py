"""``service_mix``: two closed-loop connections against ``repro serve``.

Why: the same parse/bind/sweep layers as ``lib_grid``, used differently
-- many small requests against a warm, churning session cache -- plus
the queue, coalesce and stream layers nothing else exercises.  The
daemon runs in its own process with default flags (2 ms coalescing
window, 8-session LRU).  Per client, a 60-request cycle holds:

* 34 requests for one hot 144-state deck at varied ``scale`` (session
  hits, and cross-connection coalescing when both clients hit it);
* 8 ``scales`` sweep requests (4 runs each) on the hot deck;
* 11 requests rotating over 12 small decks (RC meshes and CPE ladders)
  -- with the hot and real-size decks that is more than the 8-session
  LRU, so sessions miss, are built and get evicted;
* 6 real-size hierarchical decks of about 50 KB (900 states), under
  asyncio's 64 KiB request-line limit;
* 1 real-size deck of about 125 KB, over the limit: the daemon drops
  the connection (its own ``errors`` counter stays 0), so the client
  records the job as refused (not served, so it counts against
  ``ok_ratio``) and reconnects.  It stays in the mix on purpose.  A
  drop of a request under the limit is a failed job.

29 requests ask for the full grid and the rest for 200 samples, to load
the streaming path.  The seed draws the decks and the scales; the order
of kinds is fixed, so the median falls inside the full-grid hot group
and the 11th-slowest job inside the real-size group on every seed.
"""

from __future__ import annotations

import json
import socket
import threading
import time

import numpy as np

import common
import gen
import stats
import tracing

NAME = "service_mix"
CLIENTS = 2
#: (kind, requests per cycle); "-full" kinds ask for the full grid, the
#: others for 200 samples.
MIX = (("hot-full", 23), ("hot", 11), ("sweep", 8), ("rotating-full", 6), ("rotating", 5),
       ("big", 6), ("oversize", 1))
CYCLE = sum(n for _, n in MIX)
TIMEOUT_S = 60.0
#: The daemon's request-line limit: asyncio's default stream limit.
LINE_LIMIT = 2 ** 16


class Dropped(Exception):
    """The daemon closed the connection mid-request."""


class Mix:
    """Seeded decks and each client's request cycle."""

    def __init__(self, seed: int) -> None:
        rng = np.random.default_rng(seed)
        self.hot = gen.mesh_deck(rng, 12, 12, m=500, title="hot")
        self.rotating = []
        for k in range(12):
            if k % 3 == 2:
                self.rotating.append(gen.cpe_ladder_deck(rng, 4 + k // 3, 0.6, m=300))
            else:
                self.rotating.append(gen.mesh_deck(rng, 6 + k // 2, 6, m=300, title=f"rot{k}"))
        self.big = [gen.mesh_deck(rng, 30, 30, m=300, title=f"big{k}") for k in range(2)]
        self.oversize = gen.mesh_deck(rng, 48, 48, m=300, title="oversize")
        self.cycles = [self._cycle(rng, c) for c in range(CLIENTS)]

    def _cycle(self, rng, client: int) -> list[dict]:
        # every kind spread evenly over the cycle, so any prefix of it has
        # the same mix whatever the seed; the second client runs half a
        # cycle out of phase, so the two rarely hit the big decks together
        slots = sorted(((i + 0.5) / n, kind) for kind, n in MIX for i in range(n))
        order = [kind for _, kind in slots]
        order = order[client * CYCLE // 2:] + order[:client * CYCLE // 2]
        requests = []
        seen: dict = {}
        for kind in order:
            k = seen[kind] = seen.get(kind, -1) + 1
            req: dict = {"op": "simulate"}
            if kind in ("hot", "hot-full", "sweep"):
                req["netlist"] = self.hot
            elif kind.startswith("rotating"):
                req["netlist"] = self.rotating[(2 * k + (kind == "rotating-full") + 5 * client)
                                               % len(self.rotating)]
            elif kind == "big":
                req["netlist"] = self.big[k % len(self.big)]
            else:
                req["netlist"] = self.oversize
            if kind == "sweep":
                req["scales"] = [round(float(s), 6) for s in rng.uniform(0.25, 4.0, 4)]
            else:
                req["scale"] = round(float(rng.uniform(0.25, 4.0)), 6)
            if not kind.endswith("-full"):
                req["samples"] = 200
            requests.append({"kind": kind, "line": (json.dumps(req) + "\n").encode(),
                             "request": req})
        return requests


class Connection:
    """Raw JSON-lines client that times the header and the done line."""

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=TIMEOUT_S)
        self.file = self.sock.makefile("rb")

    def close(self) -> None:
        self.file.close()
        self.sock.close()

    def _line(self) -> bytes:
        line = self.file.readline()
        if not line:
            raise Dropped("connection closed")
        return line

    def call(self, line: bytes, keep: bool = False):
        """Send one request; returns ``(header s, done s, runs or None)``.

        Raises :class:`Dropped` when the daemon closes the connection and
        ``RuntimeError`` on an error reply.  Chunk lines are parsed only
        when ``keep`` asks for the sampled values.
        """
        start = time.perf_counter()
        try:
            self.sock.sendall(line)
            header = json.loads(self._line())
        except (ConnectionError, BrokenPipeError) as exc:
            raise Dropped(str(exc)) from exc
        header_s = time.perf_counter() - start
        if header.get("kind") != "header":
            raise RuntimeError(header.get("error", f"unexpected reply {header!r}"))
        runs = [{"t": [], "values": []} for _ in range(header["runs"])] if keep else None
        while True:
            try:
                raw = self._line()
            except ConnectionError as exc:
                raise Dropped(str(exc)) from exc
            if b'"kind": "done"' in raw[:48]:
                break
            if keep:
                chunk = json.loads(raw)
                run = runs[chunk["run"]]
                run["t"].extend(chunk["t"])
                run["values"].append(np.asarray(chunk["values"]))
        done_s = time.perf_counter() - start
        if keep:
            runs = [(np.asarray(r["t"]), np.concatenate(r["values"], axis=1)) for r in runs]
        return header_s, done_s, runs

    def op(self, name: str) -> dict:
        self.sock.sendall((json.dumps({"op": name}) + "\n").encode())
        return json.loads(self._line())


class Daemon:
    """One ``repro serve`` process on a free port (optionally traced)."""

    def __init__(self, span_file=None) -> None:
        if span_file is None:
            cmd = common.python_cmd("-m", "repro", "serve", "--port", "0")
        else:
            cmd = common.python_cmd(str(common.HERE / "launch.py"), "--spans", str(span_file),
                                    "serve", "--", "--port", "0")
        start = time.perf_counter()
        self.proc = common.spawn(cmd, stdout=True)
        try:
            banner = self.proc.stdout.readline()
            if "listening on" not in banner:
                raise RuntimeError(f"daemon did not start: {banner!r}")
            self.port = int(banner.rsplit(":", 1)[1])
            conn = Connection(self.port)
            try:
                if conn.op("ping").get("kind") != "pong":
                    raise RuntimeError("daemon did not answer ping")
            finally:
                conn.close()
        except BaseException:
            self.proc.kill()
            common.reap(self.proc)
            raise
        self.setup_s = time.perf_counter() - start

    def stats(self) -> dict:
        conn = Connection(self.port)
        try:
            return conn.op("stats")["stats"]
        finally:
            conn.close()

    def stop(self) -> float:
        """Shut the daemon down; returns its peak RSS in MiB."""
        try:
            conn = Connection(self.port)
            conn.op("shutdown")
            conn.close()
        finally:
            rss = common.reap(self.proc)
        return rss


class Client(threading.Thread):
    """One closed-loop connection working through its request cycle."""

    def __init__(self, port: int, cycle: list, *, deadline=None, count=None,
                 keep: dict | None = None) -> None:
        super().__init__(daemon=True)
        self.port, self.cycle = port, cycle
        self.deadline, self.count = deadline, count
        self.keep = keep
        self.latencies: list = []
        self.headers: list = []
        self.streams: list = []
        self.dropped = 0
        self.refused = 0
        self.errors = 0
        self.last = time.perf_counter()
        self.exc: BaseException | None = None

    def run(self) -> None:
        conn = None
        try:
            n = 0
            while True:
                if self.count is not None and n >= self.count:
                    break
                if self.deadline is not None and time.perf_counter() >= self.deadline:
                    break
                item = self.cycle[n % len(self.cycle)]
                key = (item["kind"], item["request"]["netlist"])
                keep = self.keep is not None and key not in self.keep
                n += 1
                if conn is None:
                    conn = Connection(self.port)
                try:
                    header_s, done_s, runs = conn.call(item["line"], keep=keep)
                except Dropped:
                    self.dropped += 1
                    if len(item["line"]) > LINE_LIMIT:  # the known line-limit defect
                        self.refused += 1
                        self.latencies.append(stats.REFUSED)
                    else:
                        self.latencies.append(None)
                    conn.close()
                    conn = None
                    continue
                except RuntimeError:
                    self.errors += 1
                    self.latencies.append(None)
                    continue
                finally:
                    self.last = time.perf_counter()
                self.latencies.append(done_s)
                self.headers.append(header_s)
                self.streams.append(done_s - header_s)
                if keep:
                    self.keep[key] = (item["request"], runs)
        except BaseException as exc:  # reported by drive(); the thread must not die silently
            self.exc = exc
        finally:
            if conn is not None:
                conn.close()


def drive(port: int, mix: Mix, *, seconds=None, count=None, keep=None) -> tuple[list, float]:
    start = time.perf_counter()
    deadline = start + seconds if seconds is not None else None
    clients = [Client(port, mix.cycles[c], deadline=deadline, count=count, keep=keep)
               for c in range(CLIENTS)]
    for c in clients:
        c.start()
    for c in clients:
        c.join(timeout=(seconds or 0) + 2 * TIMEOUT_S)
        if c.is_alive():
            raise RuntimeError("client thread did not finish")
        if c.exc is not None:
            raise RuntimeError(f"client failed: {c.exc!r}") from c.exc
    elapsed = max(c.last for c in clients) - start
    return clients, elapsed


def check(keep: dict) -> list[float]:
    """Daemon responses against in-process ``simulate_netlist``."""
    from repro.engine.netlist_session import simulate_netlist

    refs: dict = {}
    out = []
    for request, runs in keep.values():
        deck = request["netlist"]
        if deck not in refs:
            refs[deck] = simulate_netlist(deck).tran
        scales = request.get("scales", [request.get("scale", 1.0)])
        for (t, values), s in zip(runs, scales):
            out.append(stats.digits(values, s * refs[deck].outputs(t)))
    return out


def run_timed(seed: int, seconds: float, work: common.WorkDir) -> dict:
    mix = Mix(seed)
    setup = []
    for _ in range(common.SETUP_REPEATS - 1):
        daemon = Daemon()
        setup.append(daemon.setup_s)
        daemon.stop()
    daemon = Daemon()
    setup.append(daemon.setup_s)
    try:
        keep: dict = {}
        clients, elapsed = drive(daemon.port, mix, seconds=seconds, keep=keep)
        daemon_stats = daemon.stats()
    finally:
        rss = daemon.stop()
    latencies = [v for c in clients for v in c.latencies]
    return {
        "latencies": latencies,
        "elapsed": elapsed,
        "setup": setup,
        "digits": check(keep),
        "peak_rss_mb": rss,
        "detail": {"coalesce_ratio": daemon_stats["coalesce_ratio"],
                   "daemon_errors": daemon_stats["errors"],
                   "dropped": sum(c.dropped for c in clients)},
    }


def run_traced(seed: int, work: common.WorkDir) -> tuple[dict, list, dict, list]:
    """One request cycle per client on a plain daemon, then on a traced
    one; returns the pass latencies, no benchmark-side spans, the
    ``svc.*`` figures and the traced responses' digits."""
    mix = Mix(seed)
    passes = {}
    keep: dict = {}
    for label in ("plain", "traced"):
        span_file = work / "daemon-spans.json" if label == "traced" else None
        daemon = Daemon(span_file)
        try:
            clients, _ = drive(daemon.port, mix, count=CYCLE,
                               keep=keep if label == "traced" else None)
            daemon_stats = daemon.stats()
        finally:
            daemon.stop()
        passes[label] = [v for c in clients for v in c.latencies]
    spans = tracing.load_spans(work / "daemon-spans.json")
    headers = [v for c in clients for v in c.headers]
    streams = [v for c in clients for v in c.streams]
    sessions = daemon_stats["sessions"]
    lookups = sessions["hits"] + sessions["misses"]
    bank = daemon_stats["bank"]
    bank_lookups = bank["hits"] + bank["misses"]
    metrics = {
        "svc.header_p50_s": stats.median(headers),
        "svc.stream_p50_s": stats.median(streams),
        "svc.build_s": sum(s.end - s.start for s in tracing.outermost(spans, "bind")),
        "svc.solve_s": sum(s.end - s.start for s in tracing.outermost(spans, "svc.solve")),
        "svc.session_hit_ratio": sessions["hits"] / lookups if lookups else 0.0,
        "svc.coalesce_ratio": daemon_stats["coalesce_ratio"],
        "svc.evictions": sessions["evictions"],
        "svc.dropped": sum(c.dropped for c in clients),
        "bank.hit_ratio": bank["hits"] / bank_lookups if bank_lookups else 0.0,
    }
    return passes, [], metrics, check(keep)
