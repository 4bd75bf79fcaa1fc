"""What every workload returns, and the helpers they share."""

from __future__ import annotations

import gc
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional

from summary import median, percentile

HERE = Path(__file__).resolve().parent

#: Time-based warm-up between set-up and the timed phase (the issue's
#: 2 s, halved with the timed phase to fit the run-count cap).
WARM_SECONDS = 1.0

#: Which end of the per-window distribution the two speed metrics read.
FAST_QUANTILE = 0.75
#: Below this many windows a quantile means little: report the total.
MIN_WINDOWS = 8

#: How often set-up is repeated in an end-to-end run; the median is
#: reported so one slow process spawn does not set ``setup_s``.
SETUP_REPEATS = 5


def windows_from(
    samples: list[tuple[float, float, int]], group: int = 1
) -> tuple[list[float], list[float]]:
    """Cut cumulative ``(time, cpu seconds, deliveries)`` samples, taken
    after each unit of work, into equal-work windows of ``group`` units.
    Returns (deliveries per second, CPU seconds per delivery) per window.
    """
    rates: list[float] = []
    costs: list[float] = []
    for a, b in zip(samples[::group], samples[group::group]):
        wall, cpu, done = b[0] - a[0], b[1] - a[1], b[2] - a[2]
        if wall > 0 and done > 0:
            rates.append(done / wall)
            costs.append(cpu / done)
    return rates, costs


@dataclass
class PhaseResult:
    """One timed phase of one workload."""

    wall_s: float
    deliveries: int
    attempted: int
    failed: int
    cpu_s: float
    rss_mb: float
    setup_s: float
    #: Correctness failures (the program produced a wrong output).
    problems: list[str] = field(default_factory=list)
    #: Validity guard trips (the run did not measure what it claims).
    invalid: list[str] = field(default_factory=list)
    #: Per-layer metric values by name (traced phases) and the
    #: fidelity numbers only some workloads define.
    layer: dict[str, float] = field(default_factory=dict)
    #: Diagnostics printed beside the metrics, never compared.
    info: dict[str, Any] = field(default_factory=dict)
    #: Per-layer self time in seconds (traced phases).
    self_times: dict[str, float] = field(default_factory=dict)
    #: Deliveries per second and CPU seconds per delivery of each
    #: equal-work window of the phase (see :meth:`delivered_pps`).
    rate_windows: list[float] = field(default_factory=list)
    cost_windows: list[float] = field(default_factory=list)

    # Other tenants of the host only ever slow a window down, and on the
    # 2-core sandbox they did so in a third to a half of the windows of a
    # run (per-second rate 11k-41k inside one run of a single-threaded
    # workload).  The two speed metrics are therefore read off the
    # undisturbed end of the window distribution - an upper quantile of
    # the rate, the matching lower quantile of the cost - which repeated
    # within a few percent where whole-phase totals spread by 11-16 %.  A
    # stall the program causes in most windows still moves them.

    @property
    def delivered_pps(self) -> float:
        if len(self.rate_windows) < MIN_WINDOWS:
            return self.whole_phase_pps
        return percentile(self.rate_windows, FAST_QUANTILE)

    @property
    def cpu_us_per_delivery(self) -> float:
        if len(self.cost_windows) < MIN_WINDOWS:
            return self.cpu_s / self.deliveries * 1e6 if self.deliveries else 0.0
        return percentile(self.cost_windows, 1.0 - FAST_QUANTILE) * 1e6

    @property
    def whole_phase_pps(self) -> float:
        return self.deliveries / self.wall_s if self.wall_s else 0.0


def repeated_setup(
    build: Callable[[], Any],
    teardown: Callable[[Any], None],
    repeats: int,
) -> tuple[Any, float, list[float]]:
    """Run ``build`` ``repeats`` times, tearing down all but the last.

    Returns the live deployment, the median set-up time and every
    sample.  Set-up is everything a user pays before the first steady
    packet: spawning processes, connecting and clock sync, building the
    scene, and a fixed-work cold pass that fills lazy caches.
    """
    times: list[float] = []
    deployment = None
    for i in range(repeats):
        if deployment is not None:
            teardown(deployment)
            deployment = None
            gc.collect()
        t0 = time.perf_counter()
        deployment = build()
        times.append(time.perf_counter() - t0)
    return deployment, median(times), times


def load_expected() -> dict:
    with open(HERE / "expected.json") as fh:
        return json.load(fh)


def check_pinned(
    workload: str, seed: int, observed: dict[str, Any]
) -> Optional[str]:
    """Compare the cold pass's exact counts and record digest with the
    values pinned for the default seed; other seeds have no pin."""
    pinned = load_expected().get(workload)
    if not pinned or pinned["seed"] != seed:
        return None
    for key, want in pinned["cold"].items():
        if observed.get(key) != want:
            return (
                f"{workload}: cold-pass {key} = {observed.get(key)!r}, "
                f"pinned {want!r}"
            )
    return None
