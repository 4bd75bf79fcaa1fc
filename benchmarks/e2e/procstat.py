"""Process-level numbers read from ``/proc`` (Linux only).

The benchmark attributes CPU time and memory to *the program's*
processes — the server subprocess, the emulator process, or the cluster
parent plus its workers — so every reader takes a pid.  ``/proc`` is used
for all of them so one code path applies to every deployment.
"""

from __future__ import annotations

import os


def cpu_seconds(pid: int) -> float:
    """CPU time of every live thread of ``pid``, in seconds.

    Summed from ``/proc/<pid>/task/*/schedstat`` (nanoseconds on the
    run queue's clock) and not from the 10 ms ticks of ``stat``: the
    windows the speed metrics are cut into hold only a few ticks.  A
    thread that has exited is no longer counted; the program's threads
    live as long as the deployments measured here.
    """
    total = 0
    for tid in os.listdir(f"/proc/{pid}/task"):
        try:
            with open(f"/proc/{pid}/task/{tid}/schedstat") as fh:
                total += int(fh.read().split()[0])
        except OSError:
            continue  # thread exited between listdir and open
    return total / 1e9


def _status_fields(path: str) -> dict[str, str]:
    out: dict[str, str] = {}
    with open(path, "r") as fh:
        for line in fh:
            key, _, value = line.partition(":")
            out[key] = value.strip()
    return out


def peak_rss_mb(pid: int) -> float:
    """High-water resident set (``VmHWM``) of ``pid`` in MB."""
    return int(_status_fields(f"/proc/{pid}/status")["VmHWM"].split()[0]) / 1024.0


def threads(pid: int) -> int:
    return int(_status_fields(f"/proc/{pid}/status")["Threads"])


def ctx_switches(pid: int) -> int:
    """Voluntary + involuntary context switches summed over every
    thread of ``pid`` (``/proc/<pid>/status`` alone covers only the
    thread-group leader)."""
    total = 0
    for tid in os.listdir(f"/proc/{pid}/task"):
        try:
            fields = _status_fields(f"/proc/{pid}/task/{tid}/status")
        except OSError:
            continue  # thread exited between listdir and open
        total += int(fields["voluntary_ctxt_switches"])
        total += int(fields["nonvoluntary_ctxt_switches"])
    return total


def alive(pid: int) -> bool:
    """True while ``pid`` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as fh:
            state = fh.read().rsplit(b")", 1)[1].split()[0]
    except OSError:
        return False
    return state != b"Z"
