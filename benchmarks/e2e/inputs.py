"""Seeded workload inputs.

Everything a workload feeds the program is made here from ``--seed``:
node positions, payload bytes and the seeds the program's own
constructors take for their loss and mobility draws.  The program never
sees the seed's other uses, and the same seed always gives the same
inputs.
"""

from __future__ import annotations

import math
import random

GRID_SPACING = 60.0
RADIO_RANGE = 150.0
#: Positions are moved off the lattice by at most this much, so distances
#: (and with them loss draws) depend on the seed while the neighbor sets
#: do not: lattice neighbors lie at 60, 84.9, 120 and 134.2 units, the
#: next ring at 169.7, and 134.2 + 2·2.9 < 150 < 169.7 − 2·2.9.
JITTER = 2.0

SEQ_BYTES = 8


def grid_positions(
    seed: int, cols: int, rows: int
) -> list[tuple[float, float]]:
    """``cols × rows`` lattice, row-major, each point jittered."""
    rng = random.Random(f"positions-{seed}")
    return [
        (
            c * GRID_SPACING + rng.uniform(-JITTER, JITTER),
            r * GRID_SPACING + rng.uniform(-JITTER, JITTER),
        )
        for r in range(rows)
        for c in range(cols)
    ]


def neighbor_sets(
    positions: list[tuple[float, float]], radius: float = RADIO_RANGE
) -> list[frozenset[int]]:
    """Who hears whom, computed here and not by the program: the
    reference the static workloads' records are checked against."""
    out = []
    for i, (xi, yi) in enumerate(positions):
        out.append(
            frozenset(
                j
                for j, (xj, yj) in enumerate(positions)
                if j != i and math.hypot(xi - xj, yi - yj) <= radius
            )
        )
    return out


def filler(seed: int, tag: str, size: int) -> bytes:
    """``size`` seeded bytes following the sequence number."""
    return random.Random(f"filler-{seed}-{tag}").randbytes(size)


def payload(seq: int, tail: bytes) -> bytes:
    """8-byte big-endian sequence number + seeded filler."""
    return seq.to_bytes(SEQ_BYTES, "big") + tail


def payload_seq(data: bytes) -> int:
    return int.from_bytes(data[:SEQ_BYTES], "big")


def jiggle(seed: int, steps: int) -> list[tuple[float, float]]:
    """Per-step offsets within ±1 unit of a node's home position (the
    scene writes of ``sharded_mesh``)."""
    rng = random.Random(f"jiggle-{seed}")
    return [(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)) for _ in range(steps)]
