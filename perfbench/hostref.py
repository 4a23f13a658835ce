"""Host speed reference for the timed metrics.

On a shared 2-vCPU VM the cores run up to about 1.6x faster or slower for
seconds to minutes at a time, both cores together. The process's CPU time
moves with its wall time, so this is not time stolen by the hypervisor, and no
run length or percentile within a run evens it out. So the benchmark times a
fixed kernel right next to the work it measures and reports each timing at a
nominal host speed:

    reported seconds = measured seconds * NOMINAL_S / kernel seconds

The kernel is ``oracle.val_curve`` on a fixed small problem. That is the same
kind of work as a federated round: small matmuls, a softmax and averaging in
a Python loop. It shares no code with fedhead, so no change to fedhead moves
it. NOMINAL_S only sets the scale. It is about the kernel's time on a fast
core of the VM the benchmark was built on.

sim-fig runs the kernel in the same thread as the sweep, just before each
repetition, and scales each repetition by the kernel next to it. There the
reported times spread about a tenth as much as the measured ones. A live
round spans two processes and three threads, and one kernel run timed
between sessions does not follow the session's rounds. So the live
workloads time the kernel many times between sessions and scale the whole
run by the kernel's mean over the run (see `run_kernel_seconds`).
"""
from __future__ import annotations

import time

import oracle

NOMINAL_S = 0.02
_PROBLEM = dict(dim=16, classes=2, samples=4000, margin=4.0, val_fraction=0.2,
                batch=20, episodes=5, lr=0.01, epochs=40)


def kernel_seconds() -> float:
    """Wall time of one run of the reference kernel."""
    start = time.perf_counter()
    oracle.val_curve(7, 2, **_PROBLEM)
    return time.perf_counter() - start


def run_kernel_seconds(kernels) -> float:
    """The kernel time that stands for a whole run: the mean of the middle
    80% of its kernel runs. Single runs fall near one of two times, a fast
    and a slow one, and the share of slow runs follows the host's swings. A
    median jumps from one to the other; the mean follows the share."""
    ordered = sorted(kernels)
    cut = len(ordered) // 10
    kept = ordered[cut:len(ordered) - cut]
    return sum(kept) / len(kept)


def at_nominal(seconds: float, kernel_s: float) -> float:
    """`seconds` measured next to a kernel run of `kernel_s`, at nominal speed."""
    return seconds * NOMINAL_S / kernel_s


def rate_at_nominal(per_second: float, kernel_s: float) -> float:
    """A rate measured next to a kernel run of `kernel_s`, at nominal speed."""
    return per_second * kernel_s / NOMINAL_S
