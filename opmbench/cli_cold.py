"""``cli_cold``: one ``python -m repro <deck> --csv <file>`` at a time.

Why: this is the first wait a user meets.  ``import repro`` is most of
a ~2 s run on the stock decks, so start-up work shows here and almost
nowhere else; the solve layers do little.  Decks: every stock
``examples/*.cir`` interleaved with seeded generated decks -- a
hierarchical ``.subckt``/``X`` RC mesh (256 states), an RLC mesh
(300 states) and a small CPE ladder (``P`` cards) -- sized so each job
stays a cold start, not a long solve.
"""

from __future__ import annotations

import csv
import itertools

import numpy as np

import common
import gen
import stats
import tracing

NAME = "cli_cold"

#: Decks per traced pass (each pass runs them once untraced, once traced).
TRACED_DECKS = 5


def decks(seed: int, work: common.WorkDir) -> list:
    """Job deck paths: stock examples interleaved with generated decks."""
    rng = np.random.default_rng(seed)
    generated = []
    for k, text in enumerate([
        gen.mesh_deck(rng, 16, 16, m=400, title="cli-rc-mesh"),
        gen.cpe_ladder_deck(rng, 8, float(rng.choice([0.5, 0.7])), m=400),
        gen.mesh_deck(rng, 10, 10, rlc=True, m=400, title="cli-rlc-mesh"),
    ]):
        path = work / f"gen{k}.cir"
        path.write_text(text)
        generated.append(path)
    stock = sorted((common.ROOT / "examples").glob("*.cir"))
    stock = [stock[(seed + k) % len(stock)] for k in range(len(stock))]
    out = []
    for k, path in enumerate(stock):
        out.append(path)
        if k < len(generated):
            out.append(generated[k])
    return out


def cli_args(deck, csv_path) -> list[str]:
    return [str(deck), "--csv", str(csv_path)]


def read_csv(path):
    """The CLI's CSV as sample times and a (columns, samples) array."""
    with open(path, newline="") as fh:
        body = np.array(list(csv.reader(fh))[1:], dtype=float)
    return body[:, 0], body[:, 1:].T


def check(deck, csv_path) -> float:
    """Digits of the CLI's CSV against in-process ``simulate_netlist``."""
    from repro.engine.netlist_session import simulate_netlist

    t, values = read_csv(csv_path)
    run = simulate_netlist(deck)
    ref = run.tran.outputs(t)
    return stats.digits(values, ref)


def setup_times() -> list[float]:
    cmd = common.python_cmd("-m", "repro", "--version")
    return [common.time_until_line(cmd, "repro ") for _ in range(common.SETUP_REPEATS)]


def run_timed(seed: int, seconds: float, work: common.WorkDir) -> dict:
    deck_list = decks(seed, work)
    setup = setup_times()
    peak = [0.0]
    produced = {}

    def jobs():
        for k in itertools.count():
            deck = deck_list[k % len(deck_list)]
            out = work / f"job{k % len(deck_list)}.csv"

            def job(deck=deck, out=out):
                code, _, rss = common.run_child(
                    common.python_cmd("-m", "repro", *cli_args(deck, out)))
                peak[0] = max(peak[0], rss)
                if code == 0:
                    produced.setdefault(deck, out)
                return code == 0

            yield job

    latencies, elapsed = common.closed_loop(jobs(), seconds)
    checked = [check(deck, out) for deck, out in produced.items()]
    return {
        "latencies": latencies,
        "elapsed": elapsed,
        "setup": setup,
        "digits": checked,
        "peak_rss_mb": peak[0],
    }


def run_traced(seed: int, work: common.WorkDir) -> tuple[dict, list, dict, list]:
    """Each deck once plain and once under the tracing launcher; returns
    the pass latencies, the merged spans, no extra figures (the CLI's
    pencil banks are not visible from outside) and the traced outputs'
    digits."""
    deck_list = decks(seed, work)[:TRACED_DECKS]
    plain, traced, spans, digits = [], [], [], []
    for k, deck in enumerate(deck_list):
        out = work / f"trace{k}.csv"
        code, wall, _ = common.run_child(
            common.python_cmd("-m", "repro", *cli_args(deck, out)))
        plain.append(wall if code == 0 else None)
        span_file = work / f"spans{k}.json"
        code, wall, _ = common.run_child(common.python_cmd(
            str(common.HERE / "launch.py"), "--spans", str(span_file), "--job", str(k),
            "cli", "--", *cli_args(deck, out)))
        traced.append(wall if code == 0 else None)
        if code == 0:
            offset = 1 + max((s.id for s in spans), default=-1)
            spans.extend(tracing.load_spans(span_file, id_offset=offset))
            digits.append(check(deck, out))
    return {"plain": plain, "traced": traced}, spans, {}, digits
