"""Tests of the benchmark's own helpers: python3 -m pytest perfbench -q"""
from __future__ import annotations

import dataclasses
import json
import os
import sys
import threading

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import hostref  # noqa: E402
import live  # noqa: E402
import oracle  # noqa: E402
import simfig  # noqa: E402
from tracing import Tracer, beyond, highest_percentile, nearest_rank, self_times  # noqa: E402


@pytest.mark.parametrize(
    "n, expected",
    [(10, None), (19, None), (20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0),
     (1000, 99.0), (9999, 99.0), (10000, 99.9)],
)
def test_highest_percentile_keeps_ten_samples_beyond(n, expected):
    assert highest_percentile(n) == expected
    if expected is not None:
        assert beyond(n, expected) >= 10


def test_nearest_rank_picks_an_observed_value():
    values = list(range(1, 101))
    assert nearest_rank(values, 50) == 50
    assert nearest_rank(values, 90) == 90
    assert sum(v > nearest_rank(values, 90) for v in values) == 10
    assert nearest_rank([7.0], 99.9) == 7.0


def _span(name, start, end, parent=-1):
    return (name, start, end, parent, 0, 0, None)


def test_self_time_subtracts_the_union_of_children_clipped_to_the_parent():
    spans = [
        _span("parent", 0.0, 10.0),
        _span("a", 1.0, 3.0, 0),
        _span("b", 2.0, 5.0, 0),  # overlaps a: only [1, 5] is covered
        _span("c", 9.0, 12.0, 0),  # sticks out: only [9, 10] counts
        _span("grandchild", 1.5, 2.5, 1),
    ]
    assert self_times(spans) == pytest.approx([5.0, 1.0, 3.0, 3.0, 1.0])


def test_tracer_links_nested_calls_and_restores_names():
    class Owner:
        @staticmethod
        def inner(x):
            return x + 1

        @staticmethod
        def outer(x):
            return Owner.inner(x) * 2

    tracer = Tracer(round_of=lambda: 7)
    tracer.patch(Owner, "inner", "inner", tag_of=lambda args, result: result)
    tracer.patch(Owner, "outer", "outer")
    worker = threading.Thread(target=Owner.outer, args=(1,))
    worker.start()
    worker.join(5.0)
    assert not worker.is_alive()
    assert Owner.outer(2) == 6
    tracer.restore()
    assert Owner.outer(2) == 6 and not hasattr(Owner.outer, "__wrapped__")
    spans = tracer.spans
    assert [s[0] for s in spans] == ["inner", "outer", "inner", "outer"]
    for child in (0, 2):  # each inner call points at the outer call of its thread
        parent = spans[child][3]
        assert spans[parent][0] == "outer" and spans[parent][5] == spans[child][5]
        assert spans[parent][1] <= spans[child][1] <= spans[child][2] <= spans[parent][2]
    assert {s[4] for s in spans} == {7}
    assert [s[6] for s in spans if s[0] == "inner"] == [2, 3]


def test_live_gate_rejects_a_perturbed_blob_and_a_missing_device():
    expected = np.linspace(-1.0, 1.0, 3 * 34).reshape(3, 34)
    both = [[0, 1]] * 3
    assert live.check_rounds(both, expected.copy(), expected)[:2] == (3, 0)
    perturbed = expected.copy()
    perturbed[1, 5] += 2e-5
    assert live.check_rounds(both, perturbed, expected)[:2] == (3, 1)
    assert live.check_rounds([[0, 1], [0], [0, 1]], expected.copy(), expected)[:2] == (3, 1)
    nan = expected.copy()
    nan[2, 0] = np.nan
    assert live.check_rounds(both, nan, expected)[:2] == (3, 1)


def test_oracle_reproduces_the_pinned_seed_commit_curves():
    with open(simfig.PINNED) as fh:
        pinned = json.load(fh)
    for seed in ("0", "9"):
        got = oracle.sweep_curves(simfig.sweep_config(int(seed)))
        for value, want in pinned[seed].items():
            assert np.max(np.abs(np.subtract(got[int(value)], want))) <= 1e-9


def _small_sweep():
    # 10 epochs and 2 repetitions keep the test short; seed 1000 has no
    # pinned curves, so the numpy oracle is the only reference.
    return dataclasses.replace(simfig.sweep_config(1000), epochs=10, repetitions=2)


def test_sim_gate_rejects_a_perturbed_early_epoch():
    cfg = _small_sweep()
    good = oracle.sweep_curves(cfg)
    assert simfig._gate(cfg, [good])[:2] == (3, 0)
    bad = {value: list(curve) for value, curve in good.items()}
    bad[2][1] += 2e-3
    assert simfig._gate(cfg, [good, bad])[:2] == (6, 1)


def test_sim_gate_rejects_a_federation_that_keeps_one_device(monkeypatch):
    import fedhead.federation as fed
    from fedhead.simulator import run_sweep

    cfg = _small_sweep()
    assert simfig._gate(cfg, [simfig.curves_of(run_sweep(cfg))])[:2] == (3, 0)
    monkeypatch.setattr(fed, "average_blobs", lambda blobs: blobs[0])
    attempted, failed, _ = simfig._gate(cfg, [simfig.curves_of(run_sweep(cfg))])
    assert (attempted, failed) == (3, 2)  # one device has nothing to average


def test_sim_rate_uses_each_points_median_repetition(tmp_path):
    cfg = _small_sweep()
    _, curves, reps = simfig._timed_sweeps(cfg, 0.0, str(tmp_path))
    assert len(curves) == 1 and len(reps) == 3 * cfg.repetitions
    assert [r.value for r in reps] == [1, 1, 2, 2, 4, 4]
    assert all(r.duration_s > r.setup_s > 0 and r.kernel_s > 0 for r in reps)
    # A stalled repetition moves no median: 7 devices x 20 samples x 10 epochs
    # over one second per point.
    steady = [simfig.Repetition(v, 0.01, d, 2 * hostref.NOMINAL_S)
              for v in (1, 2, 4) for d in (1.0, 1.0, 9.0)]
    assert simfig._rate(cfg, steady, at_nominal=False) == pytest.approx(1400 / 3)
    # A host running at half the nominal speed doubles the rate at nominal speed.
    assert simfig._rate(cfg, steady, at_nominal=True) == pytest.approx(2 * 1400 / 3)


def test_run_kernel_follows_the_share_of_slow_kernel_runs():
    fast, slow = 0.013, 0.021
    mostly_fast = [fast] * 14 + [slow] * 6
    mostly_slow = [fast] * 6 + [slow] * 14
    assert hostref.run_kernel_seconds(mostly_fast) < hostref.run_kernel_seconds(mostly_slow)
    # The fastest and slowest tenth are left out, so one stalled run moves nothing.
    assert hostref.run_kernel_seconds(mostly_fast[:-1] + [5.0]) == \
        hostref.run_kernel_seconds(mostly_fast[:-1] + [slow])
    assert hostref.rate_at_nominal(100.0, 2 * hostref.NOMINAL_S) == pytest.approx(200.0)
