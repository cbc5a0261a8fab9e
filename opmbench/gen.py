"""Seeded SPICE deck generator for the benchmark workloads.

Every deck is a pure function of its arguments and a
``numpy.random.Generator``; the program under test only ever sees the
deck text and drive values produced here.

Two families:

* :func:`mesh_deck` -- a hierarchical first-order RC (or RLC) mesh: one
  ``.subckt`` cell per grid point, joined through ``X`` cards with
  per-instance ``r=``/``c=`` overrides (so the parser's flattening and
  ``{param}`` substitution do real work).  States = rows*cols nodes,
  plus one internal node and one inductor current per cell for RLC.
* :func:`cpe_mesh_deck` -- a flat constant-phase-element mesh (``P``
  cards of one order alpha, resistive coupling, leakage to ground): a
  pure fractional descriptor model, solved on the O(n*m^2) tail.

:func:`cpe_cell_deck` is the one-cell CPE circuit whose step response
is the closed-form Mittag-Leffler function (the fractional oracle).
"""

from __future__ import annotations

import numpy as np

#: asyncio's default ``StreamReader`` line limit: a daemon request line
#: longer than this cannot be read by ``readline()``.
LINE_LIMIT = 64 * 1024


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def mesh_deck(
    rng: np.random.Generator,
    rows: int,
    cols: int,
    *,
    rlc: bool = False,
    m: int = 500,
    title: str = "mesh",
) -> str:
    """Hierarchical RC/RLC mesh deck with a ``.tran`` card of ``m`` steps.

    Each cell ties its centre node to the east and south neighbours
    (boundary ports go to ground), holds a grounding capacitor and a
    large leakage resistor so every node has a DC path.  Two current
    sources drive opposite corners: a pulse and a sine.
    """
    r0 = rng.uniform(0.5e3, 2e3)
    c0 = rng.uniform(0.5e-12, 2e-12)
    tau = r0 * c0
    t_end = tau * (rows + cols) ** 2 / 4.0
    lines = [f"* {title}: {rows}x{cols} {'RLC' if rlc else 'RC'} mesh"]
    lines.append(".subckt cell c e s r=1k c=1p l=1n")
    if rlc:
        lines.append("R1 c mid {r}")
        lines.append("L1 mid e {l}")
    else:
        lines.append("R1 c e {r}")
    lines.append("R2 c s {r}")
    lines.append("C1 c 0 {c}")
    lines.append("RG c 0 1meg")
    lines.append(".ends")

    def node(i: int, j: int) -> str:
        if i >= rows or j >= cols:
            return "0"
        return f"n{i}_{j}"

    for i in range(rows):
        for j in range(cols):
            r = r0 * rng.uniform(0.8, 1.2)
            c = c0 * rng.uniform(0.8, 1.2)
            extra = f" l={_fmt(r * tau * rng.uniform(0.05, 0.2))}" if rlc else ""
            lines.append(
                f"X{i}_{j} {node(i, j)} {node(i, j + 1)} {node(i + 1, j)} cell "
                f"r={_fmt(r)} c={_fmt(c)}{extra}"
            )
    amp = rng.uniform(0.5e-3, 2e-3)
    lines.append(
        f"I1 0 n0_0 PULSE(0 {_fmt(amp)} {_fmt(0.05 * t_end)} "
        f"{_fmt(0.02 * t_end)} {_fmt(0.02 * t_end)} {_fmt(0.4 * t_end)})"
    )
    lines.append(
        f"I2 0 {node(rows - 1, cols - 1)} SIN(0 {_fmt(0.5 * amp)} "
        f"{_fmt(rng.uniform(2.0, 5.0) / t_end)})"
    )
    lines.append(f".tran {_fmt(t_end / m)} {_fmt(t_end)}")
    lines.append(".end")
    return "\n".join(lines) + "\n"


def cpe_mesh_deck(
    rng: np.random.Generator,
    rows: int,
    cols: int,
    alpha: float,
    *,
    m: int = 500,
    title: str = "cpe-mesh",
) -> str:
    """Flat CPE mesh: ``P`` card of order ``alpha`` at every node.

    Resistive coupling to the east/south neighbours and a leakage
    resistor per node; a pulse current source at one corner.  The
    ``.tran`` horizon is a few mesh time constants; callers override
    the grid for their own ``m``.
    """
    r0 = rng.uniform(50.0, 200.0)
    q0 = rng.uniform(0.5e-6, 2e-6)
    tau = (r0 * q0) ** (1.0 / alpha)
    t_end = 20.0 * tau
    lines = [f"* {title}: {rows}x{cols} CPE mesh, alpha={alpha}"]
    for i in range(rows):
        for j in range(cols):
            n = f"n{i}_{j}"
            lines.append(f"P{i}_{j} {n} 0 {_fmt(q0 * rng.uniform(0.8, 1.2))} {alpha}")
            lines.append(f"RG{i}_{j} {n} 0 {_fmt(20 * r0 * rng.uniform(0.8, 1.2))}")
            if j + 1 < cols:
                lines.append(f"RE{i}_{j} {n} n{i}_{j + 1} {_fmt(r0 * rng.uniform(0.8, 1.2))}")
            if i + 1 < rows:
                lines.append(f"RS{i}_{j} {n} n{i + 1}_{j} {_fmt(r0 * rng.uniform(0.8, 1.2))}")
    amp = rng.uniform(0.5e-3, 2e-3)
    lines.append(
        f"I1 0 n0_0 PULSE(0 {_fmt(amp)} {_fmt(0.05 * t_end)} "
        f"{_fmt(0.01 * t_end)} {_fmt(0.01 * t_end)} {_fmt(0.5 * t_end)})"
    )
    lines.append(f".tran {_fmt(t_end / m)} {_fmt(t_end)}")
    lines.append(".end")
    return "\n".join(lines) + "\n"


def cpe_cell_deck(rng: np.random.Generator, alpha: float, m: int) -> tuple[str, dict]:
    """One CPE in parallel with a resistor, driven by a DC current step.

    ``q d^alpha v = -v / R + I`` is ``d^alpha v = -lam v + b`` with
    ``lam = 1/(R q)`` and ``b = I/q``: its step response is
    :func:`repro.fractional.fde_step_response`.  The horizon is a fixed
    multiple of the time constant, so the discretisation error (and the
    oracle's digits) does not depend on the seeded element values.
    """
    r = rng.uniform(50.0, 200.0)
    q = rng.uniform(0.5e-6, 2e-6)
    amp = rng.uniform(0.5e-3, 2e-3)
    lam = 1.0 / (r * q)
    t_end = 10.0 * lam ** (-1.0 / alpha)
    deck = (
        f"* CPE cell alpha={alpha}\n"
        f"I1 0 a DC {_fmt(amp)}\n"
        f"R1 a 0 {_fmt(r)}\n"
        f"P1 a 0 {_fmt(q)} {alpha}\n"
        f".tran {_fmt(t_end / m)} {_fmt(t_end)}\n"
        ".end\n"
    )
    # the deck rounds values to 6 digits: the oracle uses the same ones
    r, q, amp = (float(_fmt(v)) for v in (r, q, amp))
    return deck, {"alpha": alpha, "lam": 1.0 / (r * q), "b": amp / q, "t_end": t_end}


def cpe_ladder_deck(rng: np.random.Generator, stages: int, alpha: float, m: int = 400) -> str:
    """Small CPE ladder (``stages`` R-P sections) for CLI and daemon decks."""
    r0 = rng.uniform(50.0, 200.0)
    q0 = rng.uniform(0.5e-6, 2e-6)
    tau = (r0 * q0) ** (1.0 / alpha)
    t_end = 10.0 * stages * tau
    lines = [f"* CPE ladder: {stages} stages, alpha={alpha}"]
    prev = "in"
    for k in range(stages):
        n = f"s{k}"
        lines.append(f"R{k} {prev} {n} {_fmt(r0 * rng.uniform(0.8, 1.2))}")
        lines.append(f"P{k} {n} 0 {_fmt(q0 * rng.uniform(0.8, 1.2))} {alpha}")
        lines.append(f"RL{k} {n} 0 {_fmt(10 * r0 * rng.uniform(0.8, 1.2))}")
        prev = n
    lines.append(f"RIN in 0 {_fmt(10 * r0)}")
    lines.append(
        f"I1 0 in EXP(0 {_fmt(rng.uniform(0.5e-3, 2e-3))} 0 {_fmt(0.5 * t_end / stages)} "
        f"{_fmt(0.5 * t_end)} {_fmt(0.2 * t_end)})"
    )
    lines.append(f".tran {_fmt(t_end / m)} {_fmt(t_end)}")
    lines.append(".end")
    return "\n".join(lines) + "\n"
