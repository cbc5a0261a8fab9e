"""``lib_fractional``: dense CPE meshes on the O(n m^2) fractional tail.

Why: at alpha < 1 the history tail dominates, so history-policy work
shows here and not on ``lib_grid`` (and sparse-sweep work the other way
round).  Each seed draws one 10x10 CPE mesh (100 states, below the
sparse threshold, so dense) per alpha in {0.5, 0.8}.  A job is a
single-window ``run`` at m in {2000, 4000, 8000} or a 20-window march of
400-term windows (the m = 8000 grid again) with exact or SOE memory.
The m = 2000 jobs catch a policy that slows short runs.
"""

from __future__ import annotations

import itertools
import resource

import numpy as np

import common
import gen
import stats

NAME = "lib_fractional"

ALPHAS = (0.5, 0.8)
#: Job cycle: ("run", m) or ("march", memory).
#: Half the jobs are m = 4000 runs, so the median sits deep inside that
#: group whichever job a timed run ends on.
CYCLE = (("run", 4000), ("run", 2000), ("run", 4000), ("run", 8000), ("run", 4000),
         ("march", "exact"), ("run", 4000), ("run", 2000), ("run", 4000), ("march", "soe"))
WINDOWS = 20
WINDOW_M = 400
#: Oracle: CPE-cell term count, and the start-up share of the horizon
#: left out of the Mittag-Leffler comparison (block-pulse averages
#: cannot match point values of a t^alpha start).
CELL_M = 2000
CELL_SKIP = 0.1
#: Jobs per traced pass: two cycles, so every kind runs at both alphas.
TRACED_JOBS = len(ALPHAS) * len(CYCLE)


class Fractional:
    """The seeded decks plus the outputs the oracle checks."""

    def __init__(self, seed: int) -> None:
        rng = np.random.default_rng(seed)
        self.decks = {a: gen.cpe_mesh_deck(rng, 10, 10, a) for a in ALPHAS}
        self.cells = {a: gen.cpe_cell_deck(rng, a, CELL_M) for a in ALPHAS}
        self.t_end = {a: _horizon(d) for a, d in self.decks.items()}
        self.outputs: dict = {}  # (alpha, kind, arg) -> first output samples
        self.banks: list = []  # each job's bank counters (its session is dropped)

    def schedule(self):
        # alpha alternates job by job and swaps between consecutive cycles,
        # so every kind runs at both orders and a run covers several cycles
        for n in itertools.count():
            kind, arg = CYCLE[n % len(CYCLE)]
            a = ALPHAS[(n + n // len(CYCLE)) % len(ALPHAS)]
            yield lambda a=a, kind=kind, arg=arg: self.job(a, kind, arg)

    def job(self, alpha: float, kind: str, arg) -> bool:
        from repro import Simulator

        t_end = self.t_end[alpha]
        if kind == "run":
            sim = Simulator.from_netlist(self.decks[alpha], (t_end, arg))
            result = sim.run()
        else:
            sim = Simulator.from_netlist(
                self.decks[alpha], (t_end / WINDOWS, WINDOW_M), memory=arg)
            result = sim.march(None, t_end)
        y = result.outputs(result.sample_times())
        self.banks.append(sim.bank.stats())
        if kind == "march" or arg == WINDOWS * WINDOW_M:
            self.outputs.setdefault((alpha, kind, arg), y)
        return bool(np.isfinite(y[:, -1]).all())


def _horizon(deck: str) -> float:
    from repro.circuits import Netlist

    return Netlist.from_spice(deck).analysis.tran.tstop


def check(frac: Fractional) -> list[float]:
    """March against the single-window run; a CPE cell against
    Mittag-Leffler."""
    from repro import Simulator
    from repro.fractional import fde_step_response

    out = []
    for a in ALPHAS:
        full = frac.outputs.get((a, "run", WINDOWS * WINDOW_M))
        if full is None:
            full = Simulator.from_netlist(
                frac.decks[a], (frac.t_end[a], WINDOWS * WINDOW_M)).run()
            full = full.outputs(full.sample_times())
        for memory in ("exact", "soe"):
            marched = frac.outputs.get((a, "march", memory))
            if marched is not None:
                out.append(stats.digits(marched, full))
        deck, p = frac.cells[a]
        result = Simulator.from_netlist(deck).run()
        t = result.sample_times()
        keep = t >= CELL_SKIP * p["t_end"]
        ref = fde_step_response(p["alpha"], p["lam"], t[keep], p["b"])
        out.append(stats.digits(result.outputs(t)[0, keep], ref))
    return out


def bind_code(frac: Fractional, work: common.WorkDir) -> str:
    path = work / "setup.cir"
    a = ALPHAS[0]
    path.write_text(frac.decks[a])
    return f"repro.Simulator.from_netlist({str(path)!r}, ({frac.t_end[a]!r}, 2000))"


def run_timed(seed: int, seconds: float, work: common.WorkDir) -> dict:
    frac = Fractional(seed)
    setup = common.library_setup_s(bind_code(frac, work))
    for job in itertools.islice(Fractional(seed + 1).schedule(), 2 * len(ALPHAS)):
        job()
    latencies, elapsed = common.closed_loop(frac.schedule(), seconds)
    return {
        "latencies": latencies,
        "elapsed": elapsed,
        "setup": setup,
        "digits": check(frac),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def run_traced(seed: int, work: common.WorkDir) -> tuple[dict, list, dict, list]:
    """Two cycles warm, plain and traced."""
    passes, tracer, frac = common.traced_passes(lambda: Fractional(seed), TRACED_JOBS)
    spans = list(tracer.spans)  # the oracle below is not part of the trace
    return passes, spans, {"bank.hit_ratio": common.bank_hit_ratio(frac.banks)}, check(frac)
