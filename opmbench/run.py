"""The repo benchmark: four workloads, end-to-end metrics or a traced run.

Usage (from the repository root)::

    python3 opmbench/run.py --workload lib_grid --seed 1 --seconds 15 --trace 0

``--trace 0`` times the workload for ``--seconds`` with tracing off and
prints the end-to-end metrics; ``--trace 1`` runs a fixed set of jobs
plain and then under the layer tracing and prints the per-layer metrics.
Either way the last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it carries
the details (tail percentile and job count, per-check digits, ...).
The exit status is 1 when an output check fails, 2 when the program's
sources are missing.  See ``opmbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import signal
import subprocess
import sys

import common
import stats
import tracing

#: name -> (unit, better, bound): the end-to-end metrics, tracing off.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "job_p50_s": ("s", "lower", 0.25),
    "job_tail_s": ("s", "lower", 0.25),
    "jobs_per_s": ("1/s", "higher", 0.25),
    "ok_ratio": ("ratio", "higher", 0.02),
    "digits_min": ("digits", "higher", 0.1),
    "peak_rss_mb": ("MiB", "lower", 0.15),
}

#: name -> (unit, better): the per-layer metrics of a traced run.
PER_LAYER = {
    "import.wall_s": ("s", "lower"),
    "import.modules": ("count", "lower"),
    "parse.calls": ("count", "lower"),
    "parse.self_s": ("s", "lower"),
    "parse.kib_per_s": ("KiB/s", "higher"),
    "lint.calls": ("count", "lower"),
    "lint.self_s": ("s", "lower"),
    "assemble.calls": ("count", "lower"),
    "assemble.self_s": ("s", "lower"),
    "bind.calls": ("count", "lower"),
    "bind.self_s": ("s", "lower"),
    "operator.calls": ("count", "lower"),
    "operator.self_s": ("s", "lower"),
    "factorize.calls": ("count", "lower"),
    "factorize.self_s": ("s", "lower"),
    "bank.hit_ratio": ("ratio", "higher"),
    "factorize.n_exponent": ("1", "lower"),
    "sweep.calls": ("count", "lower"),
    "sweep.self_s": ("s", "lower"),
    "sweep.columns_per_s": ("1/s", "higher"),
    "sweep.m_exponent": ("1", "lower"),
    "march.calls": ("count", "lower"),
    "march.windows": ("count", "lower"),
    "march.self_s": ("s", "lower"),
    "soe.fits": ("count", "lower"),
    "soe.fit_s": ("s", "lower"),
    "soe.certified_ratio": ("ratio", "higher"),
    "sample.calls": ("count", "lower"),
    "sample.self_s": ("s", "lower"),
    "csv.calls": ("count", "lower"),
    "csv.self_s": ("s", "lower"),
    "csv.mib_per_s": ("MiB/s", "higher"),
    "executor.tasks": ("count", "lower"),
    "executor.wall_s": ("s", "lower"),
    "executor.efficiency": ("ratio", "higher"),
    "svc.header_p50_s": ("s", "lower"),
    "svc.stream_p50_s": ("s", "lower"),
    "svc.build_s": ("s", "lower"),
    "svc.solve_s": ("s", "lower"),
    "svc.session_hit_ratio": ("ratio", "higher"),
    "svc.coalesce_ratio": ("ratio", "higher"),
    "svc.evictions": ("count", "lower"),
    "svc.dropped": ("count", "lower"),
    "job.self_s": ("s", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}

WORKLOADS = ("cli_cold", "lib_grid", "lib_fractional", "service_mix")
#: Workloads BENCHMARK.json leaves out; they still run by name and in
#: ``--workload all``.  Four workloads fit the benchmark's time budget
#: only at 25 s runs, too short to hold run-to-run spreads well inside
#: their bounds on a shared 2-vCPU host; three fit at 35 s.  cli_cold is
#: the one left out: every layer it enters is also measured elsewhere
#: (import in every ``setup_s`` and ``import.wall_s``, CSV on lib_grid).
NOT_IN_BENCHMARK_JSON = ("cli_cold",)

#: Fewest correct digits each workload's checks must reach.  The CLI
#: and the daemon must reproduce the in-process solve; lib_grid's
#: sparse/dense and batched/per-input pairs agree to rounding;
#: lib_fractional is bounded by the Mittag-Leffler discretisation error
#: of a 2000-term block-pulse run (about 5.6 digits at alpha = 0.5).
DIGITS_FLOOR = {"cli_cold": 12.0, "lib_grid": 10.0, "lib_fractional": 5.0,
                "service_mix": 12.0}


def emit(correct: bool, attempted: int, failed: int, values: dict, table: dict,
         detail: dict) -> None:
    print(json.dumps(detail, sort_keys=True))
    metrics = {name: {"value": float(values.get(name, 0.0)), "unit": table[name][0]}
               for name in table}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def timed(workload: str, seed: int, seconds: float, work) -> bool:
    module = __import__(workload)
    res = module.run_timed(seed, seconds, work)
    summary = stats.summarise_jobs(res["latencies"], res["elapsed"])
    digits = res["digits"]
    values = {
        "setup_s": stats.median(res["setup"]),
        "job_p50_s": summary["job_p50_s"],
        "job_tail_s": summary["job_tail_s"],
        "jobs_per_s": summary["jobs_per_s"],
        "ok_ratio": summary["ok_ratio"],
        "digits_min": min(digits) if digits else 0.0,
        "peak_rss_mb": res["peak_rss_mb"],
    }
    correct = bool(digits) and values["digits_min"] >= DIGITS_FLOOR[workload]
    detail = {
        "workload": workload, "seed": seed, "jobs": summary["attempted"],
        "tail_percentile": summary["tail_percentile"],
        "tail_is_median_fallback": summary["tail_is_median_fallback"],
        "refused": summary["refused"],
        "setup_runs_s": res["setup"], "digits": digits, **res.get("detail", {}),
    }
    emit(correct, summary["attempted"], summary["failed"], values, END_TO_END, detail)
    return correct


def import_metrics() -> dict:
    """Fresh-process ``import repro``: median wall time and module count."""
    code = ("import sys, time\nn = len(sys.modules)\nt = time.perf_counter()\n"
            "import repro\nprint('import', time.perf_counter() - t, len(sys.modules) - n)\n")
    walls, modules = [], set()
    for _ in range(common.SETUP_REPEATS):
        proc = common.spawn(common.python_cmd("-c", code), stdout=True)
        out = proc.stdout.read()
        common.reap(proc)
        _, wall, count = out.split()
        walls.append(float(wall))
        modules.add(int(count))
    if len(modules) != 1:
        raise RuntimeError(f"import repro loaded varying module counts {modules}")
    return {"import.wall_s": stats.median(walls), "import.modules": modules.pop()}


def traced(workload: str, seed: int, work) -> bool:
    values = import_metrics()
    passes, spans, extra, digits = __import__(workload).run_traced(seed, work)
    values.update(tracing.layer_metrics(spans))
    values.update(extra)
    plain = [v for v in passes["plain"] if stats.served(v)]
    traced_ok = [v for v in passes["traced"] if stats.served(v)]
    failed = sum(v is None for p in ("plain", "traced") for v in passes[p])
    attempted = len(passes["plain"]) + len(passes["traced"])
    if plain and traced_ok:
        values["trace.overhead_ratio"] = stats.median(traced_ok) / stats.median(plain)
    counts = {k: v for k, v in values.items()
              if k.endswith((".calls", ".windows", ".tasks", ".fits"))}
    detail = {"workload": workload, "seed": seed, "counts": counts, "digits": digits,
              "plain_jobs": len(plain), "traced_jobs": len(traced_ok),
              "refused": attempted - failed - len(plain) - len(traced_ok)}
    correct = bool(digits) and min(digits) >= DIGITS_FLOOR[workload]
    emit(correct, attempted, failed, values, PER_LAYER, detail)
    return correct


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="repro benchmark")
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"),
                        help="one workload, or all four in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still stops its children and removes its work dir
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not common.checkout_ok():
        print(f"error: no program sources at {common.SRC}; run from the repository root "
              "of a full checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        # each workload in a fresh process, as a single-workload run gets
        codes = [subprocess.run([sys.executable, __file__, "--workload", w, "--seed",
                                 str(args.seed), "--seconds", str(args.seconds),
                                 "--trace", str(args.trace)]).returncode
                 for w in WORKLOADS]
        return max(codes)
    common.use_program_sources()
    work = common.WorkDir(f"{args.workload}-{args.seed}")
    try:
        if args.trace:
            ok = traced(args.workload, args.seed, work)
        else:
            ok = timed(args.workload, args.seed, args.seconds, work)
    finally:
        work.close()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
