"""sim-fig: the acceptance-6 sweep (fig2 preset, devices {1, 2, 4}) in process."""
from __future__ import annotations

import dataclasses
import json
import os
import resource
import time
from typing import NamedTuple

import hostref
import layers
import oracle
from tracing import Tracer, median

GATE_TOL = 1e-3
PINNED = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pinned_sim_fig.json")


def sweep_config(seed: int):
    from fedhead.simulator import default_presets

    return dataclasses.replace(default_presets()["fig2"], sweep_values=[1, 2, 4], base_seed=seed)


def _modelled_bytes_per_round(cfg) -> float:
    """Link bytes a simulated round stands for: one framed download and one
    framed upload per device, each behind a message header. The simulator
    moves no bytes, so this is computed with fedhead's own size functions."""
    from fedhead import wire
    from fedhead.runtime import HEADER_SIZE

    spec = cfg.dataset
    message = HEADER_SIZE + wire.framed_size(wire.encoded_size(spec.embedding_dim, spec.num_classes))
    rounds = len(cfg.sweep_values) * cfg.epochs * cfg.repetitions
    return sum(2 * int(n) * message * cfg.epochs * cfg.repetitions for n in cfg.sweep_values) / rounds


def curves_of(result) -> dict:
    """{sweep value: val_acc_mean after each epoch} of one sweep result."""
    return {p.sweep_value: [e.val_acc_mean for e in p.epochs] for p in result.points}


class Repetition(NamedTuple):
    """One timed repetition of a sweep point. `kernel_s` is the host speed
    reference timed just before it (None in a traced sweep)."""

    value: int
    setup_s: float
    duration_s: float
    kernel_s: float | None


def _timed_sweeps(cfg, seconds: float, workdir: str, tracer=None):
    """Run whole sweeps until `seconds` have passed (at least one).

    Returns the elapsed time, each sweep's curves and every repetition. A
    repetition's set-up is the time from the previous repetition's last round
    (or the sweep's start) to its own first round. That is where the sweep
    builds the dataset, partitions it, lists the validation samples and inits
    the head. Its duration runs from the same point to its own last round's
    end. Untraced, the host speed reference runs before each repetition's
    first round and its time is left out of both.
    """
    import fedhead.simulator as sim
    import fedhead.federation as fed

    bounds: list[tuple[float, float]] = []  # (start, end) of every round
    kernels: list[float] = []  # reference time before each repetition
    original = fed.federated_round

    def timed_round(*args, **kwargs):
        if tracer is None and len(bounds) % cfg.epochs == 0:
            kernels.append(hostref.kernel_seconds())
        start = time.perf_counter()
        result = original(*args, **kwargs)
        bounds.append((start, time.perf_counter()))
        return result

    fed.federated_round = timed_round
    if tracer is not None:
        tracer.round_of = lambda: len(bounds)
        layers.install(tracer, layers.sim_plan())
    curves, reps = [], []
    start = time.perf_counter()
    try:
        while not curves or time.perf_counter() - start < seconds:
            first = len(bounds)
            sweep_start = time.perf_counter()
            result = sim.run_sweep(cfg)
            sim.emit_csv(result, os.path.join(workdir, "sweep.csv"))
            curves.append(curves_of(result))
            for k, i in enumerate(range(first, len(bounds), cfg.epochs)):
                before = bounds[i - 1][1] if i > first else sweep_start
                kernel = kernels[i // cfg.epochs] if tracer is None else None
                reps.append(Repetition(
                    cfg.sweep_values[k // cfg.repetitions],
                    bounds[i][0] - before - (kernel or 0.0),
                    bounds[i + cfg.epochs - 1][1] - before - (kernel or 0.0),
                    kernel,
                ))
    finally:
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.restore()
        fed.federated_round = original
    return elapsed, curves, reps


def _rate(cfg, reps, at_nominal: bool) -> float:
    """Samples per second of one sweep, from the median repetition time of
    each sweep point: a slow second on a shared host moves a few
    repetitions, not the figure. With `at_nominal`, each repetition is first
    brought to nominal host speed by the reference timed next to it."""
    def duration(r):
        return hostref.at_nominal(r.duration_s, r.kernel_s) if at_nominal else r.duration_s

    samples = sum(int(n) * cfg.batch_size * cfg.epochs for n in cfg.sweep_values)
    return samples / sum(median([duration(r) for r in reps if r.value == n]) for n in cfg.sweep_values)


def _gate(cfg, curves) -> tuple[int, int, list[str]]:
    """Compare every sweep point's val_acc_mean after each epoch with the
    references; (attempted, failed, notes)."""
    references = [oracle.sweep_curves(cfg)]
    with open(PINNED) as fh:
        pinned = json.load(fh).get(str(cfg.base_seed))
    if pinned is not None:
        references.append({int(value): curve for value, curve in pinned.items()})
    attempted = failed = 0
    notes = []
    for sweep in curves:
        for value, got in sweep.items():
            attempted += 1
            gaps = [abs(g - w) for ref in references for g, w in zip(got, ref[value], strict=True)]
            worst = max(gaps)
            if not worst <= GATE_TOL:
                failed += 1
                epoch = gaps.index(worst) % cfg.epochs + 1
                notes.append(f"devices={value}: val_acc_mean off by {worst:.6f} at epoch {epoch} "
                             f"(tol {GATE_TOL})")
    notes.append(
        f"gate: {attempted} sweep points, val_acc_mean after every epoch vs numpy reference"
        + (" and pinned values" if pinned is not None else "")
        + f", tol {GATE_TOL}"
    )
    return attempted, failed, notes


def run(seed: int, seconds: float, trace: bool, workdir: str) -> dict:
    cfg = sweep_config(seed)
    if not trace:
        elapsed, curves, reps = _timed_sweeps(cfg, seconds, workdir)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        attempted, failed, notes = _gate(cfg, curves)
        metrics = {
            "setup_s": median([hostref.at_nominal(r.setup_s, r.kernel_s) for r in reps]),
            "train_samples_per_s": _rate(cfg, reps, at_nominal=True),
            "wire_bytes_per_round": _modelled_bytes_per_round(cfg),
            "peak_rss_mb": rss_mb,
        }
        reported = {
            "measured_setup_s": (median([r.setup_s for r in reps]), "s"),
            "measured_train_samples_per_s": (_rate(cfg, reps, at_nominal=False), "1/s"),
            "reference_kernel_ms": (1e3 * median([r.kernel_s for r in reps]), "ms"),
        }
        notes.append(f"{len(curves)} sweep(s) in {elapsed:.2f} s; setup_s and "
                     f"train_samples_per_s are medians over {len(reps)} repetitions, "
                     f"at nominal host speed; wire bytes are modelled, not moved")
        return {"attempted": attempted, "failed": failed, "metrics": metrics,
                "reported": reported, "notes": notes}

    # Traced run: an untraced pass for the overhead baseline, then a traced
    # one, each for half the time so that the run stays near `seconds`.
    plain_elapsed, plain_curves, plain_reps = _timed_sweeps(cfg, seconds / 2, workdir)
    tracer = Tracer()
    elapsed, curves, reps = _timed_sweeps(cfg, seconds / 2, workdir, tracer)
    attempted, failed, notes = _gate(cfg, plain_curves + curves)
    plain_rate = _rate(cfg, plain_reps, at_nominal=False)
    traced_rate = _rate(cfg, reps, at_nominal=False)
    totals = layers.Totals()
    totals.add(tracer.spans)
    metrics = layers.layer_metrics(totals, overhead_pct=100.0 * (plain_rate / traced_rate - 1.0))
    notes.append(f"traced {len(curves)} sweep(s) in {elapsed:.2f} s, "
                 f"untraced {len(plain_curves)} in {plain_elapsed:.2f} s")
    return {"attempted": attempted, "failed": failed, "metrics": metrics, "notes": notes}
