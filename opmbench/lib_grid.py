"""``lib_grid``: in-process parse -> bind -> run/sweep -> sample -> CSV.

Why: the ROADMAP's "library bind + run" wait at alpha = 1, where the
fractional tail is bypassed and the time sits in SuperLU column solves,
sparse mat-vec dispatch, sampling and the executor.  Decks are seeded
hierarchical meshes of 144-576 states (all above the 128-state sparse
threshold, so the sparse backend is chosen) at m = 1000, seven RC sizes
for the factorisation exponent fit plus one RLC mesh.  Each deck runs
twice in a row, bound cold and then reused warm, so 8 of 17 jobs
factorise.  One job in 17 is a 16-member Monte-Carlo ``run_ensemble``
with two process workers (``nproc`` here).
"""

from __future__ import annotations

import itertools
import resource

import numpy as np

import common
import gen
import stats

NAME = "lib_grid"

#: (rows, cols, rlc) of the mesh decks, smallest first.
MESHES = ((12, 12, False), (14, 14, False), (16, 16, False), (18, 18, False),
          (20, 20, False), (22, 22, False), (24, 24, False), (10, 10, True))
M = 1000
SWEEP_K = 4
CSV_POINTS = 200
ENSEMBLE_MEMBERS = 16
WORKERS = 2
#: Job cycle of (kind, deck index).  A deck bound by the previous job is
#: reused warm, so each pair's first job factorises and the second does
#: not.  Job sizes step evenly from 144 to 576 states, so the latencies
#: form a continuum and no order statistic sits in a gap between two
#: groups of like jobs.  A shared 2-vCPU cloud host was seen to flip
#: between a fast and a ~1.5x slower mode for tens of seconds at a
#: time; with one deck size around the median, ``job_p50_s`` jumped
#: between the two modes from run to run, while over a continuum it
#: moves in step with the share of the run spent slow.  Sizes alternate
#: small and large, so a run that ends mid-cycle keeps about the same
#: mix.
CYCLE = tuple(job for k in (0, 6, 2, 4, 7, 1, 5, 3) for job in [("deck", k)] * 2) \
    + (("ensemble", 0),)
#: Untimed jobs on other decks before timing (imports, lazy set-up).
WARMUP_JOBS = 3
#: Jobs per traced pass: one full cycle.
TRACED_JOBS = len(CYCLE)


class Grid:
    """The seeded decks plus the state the jobs carry between them."""

    def __init__(self, seed: int, work: common.WorkDir) -> None:
        rng = np.random.default_rng(seed)
        self.decks = [gen.mesh_deck(rng, r, c, rlc=rlc, m=M, title=f"grid{k}")
                      for k, (r, c, rlc) in enumerate(MESHES)]
        self.scales = [list(rng.uniform(0.25, 4.0, SWEEP_K)) for _ in self.decks]
        self.ensemble_seeds = rng.integers(0, 2**31, 64)
        self.work = work
        self.session = None  # (deck index, Simulator) of the previous job
        self.ensemble_sim = None
        # bank counters of the sessions already dropped; keeping the
        # sessions instead would grow peak RSS with the jobs a run completes
        self.dropped_banks: list = []
        self.outputs: dict = {}  # deck index -> first sweep samples, for the oracle
        self.last_ensemble = None

    def schedule(self):
        """Jobs in the fixed :data:`CYCLE`."""
        for n, (kind, k) in enumerate(itertools.cycle(CYCLE)):
            fn = self.deck_job if kind == "deck" else self.ensemble_job
            yield lambda fn=fn, k=k, n=n: fn(k, n)

    def deck_job(self, k: int, n: int) -> bool:
        from repro import Simulator
        from repro.circuits import Netlist
        from repro.io import write_csv

        netlist = Netlist.from_spice(self.decks[k], title=f"grid{k}")
        if self.session is not None and self.session[0] == k:
            sim = self.session[1]
        else:
            if self.session is not None:
                self.dropped_banks.append(self.session[1].bank.stats())
            sim = Simulator.from_netlist(netlist)
            self.session = (k, sim)
        u = sim.bound_input
        result = sim.run()
        batch = sim.sweep([_scaled(u, s) for s in self.scales[k]])
        result.outputs(result.sample_times())
        t = result.sample_times(CSV_POINTS)
        swept = batch.outputs(t)
        y = result.outputs(t)
        write_csv(self.work / f"grid{k}.csv", ["t", *netlist.nodes],
                  np.column_stack([t, y.T]).tolist())
        self.outputs.setdefault(k, (t, swept))
        return True

    def ensemble_job(self, k: int, n: int) -> bool:
        from repro import Simulator
        from repro.circuits import Netlist

        base = Netlist.from_spice(self.decks[k], title=f"grid{k}")
        if self.ensemble_sim is None:
            self.ensemble_sim = Simulator.from_netlist(base)
        ensemble = self.last_ensemble = self.ensemble(base, n)
        result = self.ensemble_sim.run_ensemble(ensemble, jobs=WORKERS)
        return result.n_members == ENSEMBLE_MEMBERS

    def bank_stats(self) -> list:
        """Bank counters of every session bound so far."""
        live = [s.bank.stats() for s in (self.session and self.session[1], self.ensemble_sim)
                if s is not None]
        return self.dropped_banks + live

    def ensemble(self, base, n: int):
        from repro.engine.executor import Ensemble

        names = [name for name in base.element_values() if name.endswith(".C1")][:8]
        return Ensemble.variations(
            base, {name: 0.2 for name in names}, mode="monte-carlo",
            n=ENSEMBLE_MEMBERS, seed=int(self.ensemble_seeds[n % len(self.ensemble_seeds)]))


def _scaled(u, s: float):
    def scaled(times, _u=u, _s=float(s)):
        return _s * np.asarray(_u(times))

    return scaled


def check(grid: Grid) -> list[float]:
    """Batched sweep against per-input runs; sparse against dense."""
    from repro import Simulator

    out = []
    for k, (t, swept) in sorted(grid.outputs.items()):
        sim = Simulator.from_netlist(grid.decks[k])
        u = sim.bound_input
        for j, s in enumerate(grid.scales[k]):
            ref = sim.run(_scaled(u, s)).outputs(t)
            out.append(stats.digits(swept[j], ref))
    sparse = Simulator.from_netlist(grid.decks[0], backend="sparse")
    dense = Simulator.from_netlist(grid.decks[0], backend="dense")
    t = sparse.grid.midpoints
    out.append(stats.digits(sparse.run().outputs(t), dense.run().outputs(t)))
    return out


def bind_code(grid: Grid) -> str:
    path = grid.work / "setup.cir"
    path.write_text(grid.decks[0])
    return f"repro.Simulator.from_netlist({str(path)!r})"


def run_timed(seed: int, seconds: float, work: common.WorkDir) -> dict:
    grid = Grid(seed, work)
    setup = common.library_setup_s(bind_code(grid))
    for job in itertools.islice(Grid(seed + 1, work).schedule(), WARMUP_JOBS):
        job()
    latencies, elapsed = common.closed_loop(grid.schedule(), seconds)
    return {
        "latencies": latencies,
        "elapsed": elapsed,
        "setup": setup,
        "digits": check(grid),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def run_traced(seed: int, work: common.WorkDir) -> tuple[dict, list, dict, list]:
    """One cycle warm, plain and traced, then the traced pass's ensemble
    again on the serial executor (for ``executor.efficiency``)."""
    passes, tracer, grid = common.traced_passes(lambda: Grid(seed, work), TRACED_JOBS)
    grid.ensemble_sim.run_ensemble(grid.last_ensemble, parallel="serial")
    spans = list(tracer.spans)  # the oracle below is not part of the trace
    return passes, spans, {"bank.hit_ratio": common.bank_hit_ratio(grid.bank_stats())}, check(grid)
