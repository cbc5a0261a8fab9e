"""Process plumbing shared by the workloads: paths, child processes,
set-up timing and the closed-loop job runner."""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Fresh-process launches per run whose median is ``setup_s``.
SETUP_REPEATS = 3

#: BLAS pools pinned to one thread in the benchmark and every child:
#: the load is at most ``nproc`` processes or threads, so multi-threaded
#: BLAS would oversubscribe the cores and make timings noisy.
SINGLE_THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def checkout_ok() -> bool:
    """True when the program's sources are present next to the benchmark."""
    return (SRC / "repro" / "__init__.py").is_file()


def child_env() -> dict:
    env = dict(os.environ)
    env.update(SINGLE_THREAD_ENV)
    env["PYTHONPATH"] = str(SRC)
    return env


def use_program_sources() -> None:
    """Make ``import repro`` in this process load the checkout's sources."""
    os.environ.update(SINGLE_THREAD_ENV)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


class WorkDir:
    """Scratch directory inside the checkout, removed on exit."""

    def __init__(self, name: str) -> None:
        self.path = ROOT / ".opmbench_work" / f"{name}-{os.getpid()}"
        self.path.mkdir(parents=True, exist_ok=True)

    def __truediv__(self, other: str) -> Path:
        return self.path / other

    def close(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            self.path.parent.rmdir()
        except OSError:
            pass  # another run's directory is still there


def python_cmd(*args: str) -> list[str]:
    return [sys.executable, *args]


#: Seconds a child may run before it is killed (a hung program must not
#: hang the benchmark past its own time limit).
CHILD_TIMEOUT_S = 120.0


def spawn(cmd, *, stdout: bool = False) -> subprocess.Popen:
    """Start ``cmd`` against the checkout's sources (stdout piped as text
    when asked; stderr discarded)."""
    return subprocess.Popen(cmd, env=child_env(), cwd=ROOT,
                            stdout=subprocess.PIPE if stdout else subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL, text=True)


def reap(proc: subprocess.Popen, timeout: float = CHILD_TIMEOUT_S) -> float:
    """Wait for ``proc`` to exit (killing it after ``timeout`` s) and return
    its peak RSS in MiB.

    ``os.wait4`` reaps the child, so the resource usage is its own and not
    the maximum over every child this process ever waited for.
    """
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.stdout is not None:
        proc.stdout.close()
    return usage.ru_maxrss / 1024.0


def run_child(cmd) -> tuple[int, float, float]:
    """Run ``cmd`` to exit; returns ``(exit code, wall s, peak RSS MiB)``."""
    start = time.perf_counter()
    proc = spawn(cmd)
    rss = reap(proc)
    return proc.returncode, time.perf_counter() - start, rss


def time_until_line(cmd, marker: str) -> float:
    """Seconds from spawning ``cmd`` until it prints a line starting with
    ``marker``; the child is then left to exit and reaped."""
    start = time.perf_counter()
    proc = spawn(cmd, stdout=True)
    elapsed = None
    try:
        for line in proc.stdout:
            if line.startswith(marker):
                elapsed = time.perf_counter() - start
                break
        proc.stdout.read()
    finally:
        reap(proc)
    if elapsed is None or proc.returncode != 0:
        raise RuntimeError(f"{cmd[:3]} exited with {proc.returncode} "
                           f"{'after' if elapsed else 'without'} printing {marker!r}")
    return elapsed


def library_setup_s(bind_code: str, repeats: int = SETUP_REPEATS) -> list[float]:
    """Fresh-process ``import repro`` plus a first bind, ``repeats`` times.

    ``bind_code`` runs after the import and must bind one session; the
    clock stops when the child reports it is ready.
    """
    code = f"import repro\n{bind_code}\nprint('ready', flush=True)\n"
    return [time_until_line(python_cmd("-c", code), "ready") for _ in range(repeats)]


def closed_loop(jobs, seconds: float) -> tuple[list, float]:
    """Run ``jobs`` (an iterator of zero-argument callables returning True
    on success) one after another until ``seconds`` have passed.

    Returns one latency per attempted job (``None`` for a failure) and
    the elapsed time up to the last completion.
    """
    latencies: list = []
    start = time.perf_counter()
    end = start
    for job in jobs:
        if end - start >= seconds:
            break
        t0 = time.perf_counter()
        ok = job()
        end = time.perf_counter()
        latencies.append(end - t0 if ok else None)
    return latencies, end - start


def traced_passes(make_state, n_jobs: int):
    """A library workload's traced run: ``n_jobs`` jobs of a fresh state
    three times -- warm-up, plain, then under the layer tracing.

    Returns the plain and traced latencies, the tracer (still installed)
    and the traced pass's state.
    """
    import itertools

    import tracing

    passes = {}
    tracer = tracing.Tracer()
    for label in ("warm", "plain", "traced"):
        state = make_state()
        if label == "traced":
            tracing.install(tracer)
        latencies = []
        for n, job in enumerate(itertools.islice(state.schedule(), n_jobs)):
            tracer.job = n
            t0 = time.perf_counter()
            if label == "traced":
                with tracer.span("job"):
                    ok = job()
            else:
                ok = job()
            latencies.append(time.perf_counter() - t0 if ok else None)
        passes[label] = latencies
    return passes, tracer, state


def bank_hit_ratio(banks) -> float:
    """Pencil-cache hits over lookups, summed over ``PencilBank.stats()``
    snapshots of the sessions' banks."""
    hits, misses = sum(b["hits"] for b in banks), sum(b["misses"] for b in banks)
    return hits / (hits + misses) if hits + misses else 0.0
