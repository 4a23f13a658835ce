"""Sweep harness: seeding contract, aggregate stats, CSV shape, config parsing."""
import collections
import csv
import dataclasses
import hashlib
import importlib
import io
import os
import tracemalloc

import numpy as np
import pytest

from fedhead.data import partition, save_dataset
from fedhead.errors import DataExhaustedError
from fedhead.federation import RoundConfig, run_training
from fedhead.simulator import (
    CSV_COLUMNS,
    ExperimentConfig,
    SyntheticSpec,
    default_presets,
    emit_csv,
    make_pretrained_blob,
    parse_config_file,
    parse_config_text,
    run_sweep,
)

SMALL_SPEC = SyntheticSpec(kind="separable", embedding_dim=8, num_classes=2,
                           samples=400, margin=4.0, val_fraction=0.2)


def small_config(**overrides):
    base = dict(
        devices=2,
        batch_size=5,
        local_episodes=2,
        learning_rate=0.05,
        epochs=5,
        repetitions=2,
        base_seed=0,
        init_mode="random",
        dataset=SMALL_SPEC,
        sweep_param="devices",
        sweep_values=[1, 2],
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_single_repetition_has_zero_std():
    result = run_sweep(small_config(repetitions=1, sweep_values=[2]))
    for s in result.points[0].epochs:
        assert s.val_acc_std == 0.0
        assert s.train_acc_std == 0.0


def test_stats_are_valid_accuracies():
    result = run_sweep(small_config())
    for point in result.points:
        for s in point.epochs:
            assert 0.0 <= s.val_acc_mean <= 1.0
            assert 0.0 <= s.train_acc_mean <= 1.0
            assert s.val_acc_std >= 0.0
            assert s.train_acc_std >= 0.0


def test_sweep_point_matches_hand_built_run():
    """One repetition of one point reproduces a manual run that derives its
    seeds the same way the module docstring promises."""
    cfg = small_config(repetitions=1, sweep_values=[2])
    result = run_sweep(cfg)

    root = np.random.SeedSequence([cfg.base_seed])
    data_ss, part_ss, init_ss = root.spawn(3)
    dataset = SMALL_SPEC.build(data_ss)
    parts = partition(dataset, 2, part_ss)
    round_cfg = RoundConfig(num_devices=2, batch_size=5, local_episodes=2,
                            learning_rate=0.05, epochs=5)
    manual = run_training(round_cfg, parts, dataset.validation_samples(),
                          "random", init_seed=init_ss)

    got = [s.val_acc_mean for s in result.points[0].epochs]
    want = [rec.val_accuracy for rec in manual.history]
    assert got == want


PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def test_names_the_benchmark_patches_exist(monkeypatch):
    # Every (owner, attr) in perfbench's tracer plans, and the round the
    # sim-fig timer wraps, must resolve on the real modules: a name dropped
    # from fedhead fails here instead of in a traced benchmark run.
    import fedhead.federation as fed
    import fedhead.runtime  # noqa: F401 - the plans find the runtime modules in sys.modules

    monkeypatch.syspath_prepend(PERFBENCH)
    layers = importlib.import_module("layers")
    plans = layers.sim_plan() + layers.server_plan() + layers.agent_plan()
    assert len(plans) > 30
    for owner, attr, span, _ in plans + [(fed, "federated_round", "sim-fig timer", None)]:
        assert callable(getattr(owner, attr, None)), f"{owner.__name__}.{attr} ({span})"


def test_sweep_calls_the_patched_names_once_per_use(monkeypatch):
    # A round trains all its devices in one stacked train_batch call, whose
    # batch argument's len() is the round's sample count.
    import fedhead.federation as fed
    import fedhead.simulator as sim

    calls = {"federated_round": 0, "run_training": 0, "train_batch": 0, "evaluate": 0}
    trained = []

    def counting(owner, name):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            if name == "train_batch":
                trained.append(len(args[1]))
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    counting(fed, "federated_round")
    counting(fed, "train_batch")
    counting(fed, "evaluate")
    counting(sim, "run_training")
    cfg = small_config(sweep_values=[1, 2, 3], repetitions=2, epochs=4)
    run_sweep(cfg)
    rounds = 3 * 2 * 4
    assert calls["federated_round"] == rounds
    assert calls["run_training"] == 3 * 2
    assert calls["train_batch"] == rounds
    assert sum(trained) == (1 + 2 + 3) * 2 * 4 * cfg.batch_size
    assert calls["evaluate"] == rounds


@pytest.mark.parametrize("axis, lone, sweep", [
    pytest.param("devices", 2, [1, 2, 3], id="devices"),
    pytest.param("batch_size", 5, [3, 5], id="batch_size"),
    pytest.param("local_episodes", 2, [3, 1, 2], id="local_episodes"),
    pytest.param("init_mode", "random", ["pretrained", "random"], id="init_mode-random"),
    pytest.param("init_mode", "pretrained", ["pretrained", "random"], id="init_mode-pretrained"),
    pytest.param("dataset file", 2, [1, 2, 3], id="dataset-file"),
])
def test_repetitions_independent_of_sweep_value_list(tmp_path, axis, lone, sweep):
    """A swept point's stats equal the same point run alone, bit for bit."""
    overrides = {"sweep_param": axis, "repetitions": 3}
    if axis == "dataset file":
        path = tmp_path / "task.ds"
        save_dataset(SMALL_SPEC.build(7), path)
        overrides.update(sweep_param="devices", dataset=str(path))
    alone = run_sweep(small_config(sweep_values=[lone], **overrides)).points[0].epochs
    swept = run_sweep(small_config(sweep_values=sweep, **overrides)).points[sweep.index(lone)]
    assert swept.sweep_value == lone
    for a, b in zip(alone, swept.epochs, strict=True):
        assert (a.val_acc_mean, a.val_acc_std, a.train_acc_mean, a.train_acc_std) == (
            b.val_acc_mean, b.val_acc_std, b.train_acc_mean, b.train_acc_std)


def test_sweep_builds_each_repetitions_data_once(monkeypatch):
    import fedhead.data as data_mod

    builds, stacks = [], []
    build, stack = SyntheticSpec.build, data_mod.EmbeddingDataset.stacked_validation
    monkeypatch.setattr(SyntheticSpec, "build",
                        lambda self, seed: builds.append(seed) or build(self, seed))
    monkeypatch.setattr(data_mod.EmbeddingDataset, "stacked_validation",
                        lambda self: stacks.append(self) or stack(self))
    run_sweep(small_config(sweep_values=[1, 2, 3], repetitions=2, epochs=2))
    assert len(builds) == len(stacks) == 2


@pytest.mark.parametrize("axis, values", [
    pytest.param("devices", [2], id="one-point"),
    pytest.param("devices", [1, 2, 3], id="devices"),
    pytest.param("init_mode", ["pretrained", "random", "zeros", "random"], id="init_mode"),
])
def test_sweep_shuffles_once_and_builds_one_head_per_init_mode_per_repetition(
        monkeypatch, axis, values):
    import fedhead.data as data_mod
    import fedhead.simulator as sim

    shuffles, heads = [], []
    partition_, init_head = data_mod.partition, sim.init_head
    monkeypatch.setattr(data_mod, "partition",
                        lambda ds, n, seed=None: shuffles.append(n) or partition_(ds, n, seed))
    monkeypatch.setattr(sim, "init_head",
                        lambda e, c, mode, **kw: heads.append(mode) or init_head(e, c, mode, **kw))
    cfg = small_config(sweep_param=axis, sweep_values=values, repetitions=3, epochs=2)
    run_sweep(cfg)
    modes = set(values) if axis == "init_mode" else {cfg.init_mode}
    # The pretrained head is trained once per sweep, on its own partition of
    # the source task, and every repetition starts from it as it is.
    assert shuffles == [1] * (cfg.repetitions + ("pretrained" in modes))
    assert collections.Counter(heads) == {mode: cfg.repetitions for mode in modes - {"pretrained"}}


def test_sweep_holds_one_repetitions_data_at_a_time():
    # A sweep that kept every repetition's data, or the last one while the
    # next is built, would peak at twice this or more.
    cfg = dataclasses.replace(default_presets()["fig2"], sweep_values=[1, 2, 4],
                              repetitions=3, epochs=5)
    ds = cfg.dataset.build(0)
    val = ds.stacked_validation()
    one_repetition = (ds.features.nbytes + ds.labels.nbytes + ds.splits.nbytes
                      + val.features.nbytes + val.labels.nbytes)
    del ds, val
    tracemalloc.start()
    try:
        run_sweep(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * one_repetition


def test_examples_seen_uses_the_point_device_count():
    result = run_sweep(small_config())
    for point, n_devices in zip(result.points, (1, 2)):
        for t, s in enumerate(point.epochs):
            assert s.epoch == t + 1
            assert s.examples_seen == n_devices * 5 * (t + 1)


def test_init_mode_sweep_runs_both_modes():
    cfg = small_config(
        sweep_param="init_mode",
        sweep_values=["random", "pretrained"],
        repetitions=1,
        epochs=3,
    )
    result = run_sweep(cfg)
    assert [p.sweep_value for p in result.points] == ["random", "pretrained"]
    assert all(len(p.epochs) == 3 for p in result.points)


def test_file_dataset_is_read_once_per_sweep(tmp_path, monkeypatch):
    import fedhead.data as data_mod

    path = tmp_path / "task.ds"
    data_mod.save_dataset(SMALL_SPEC.build(0), path)
    reads = []
    load = data_mod.load_dataset
    monkeypatch.setattr(data_mod, "load_dataset", lambda *a, **kw: reads.append(a) or load(*a, **kw))
    cfg = small_config(
        dataset=str(path), sweep_param="init_mode", sweep_values=["random", "pretrained"],
        repetitions=3, epochs=2,
    )
    result = run_sweep(cfg)
    assert len(reads) == 1
    assert [len(p.epochs) for p in result.points] == [2, 2]


def test_file_dataset_too_small_for_a_point_fails_after_its_one_load(tmp_path, monkeypatch):
    import fedhead.data as data_mod
    import fedhead.simulator as sim

    path = tmp_path / "task.ds"
    data_mod.save_dataset(SMALL_SPEC.build(0), path)  # 320 train samples
    reads, runs = [], []
    load, run = data_mod.load_dataset, sim.run_training
    monkeypatch.setattr(data_mod, "load_dataset", lambda *a, **kw: reads.append(a) or load(*a, **kw))
    monkeypatch.setattr(sim, "run_training", lambda *a, **kw: runs.append(a) or run(*a, **kw))
    cfg = small_config(dataset=str(path), sweep_values=[1, 2, 40], epochs=2, repetitions=1)
    with pytest.raises(DataExhaustedError, match="devices=40: 2 epochs of 5 need 10 samples"):
        run_sweep(cfg)
    assert len(reads) == 1 and runs == []


def test_exhaustion_error_names_the_sweep_point():
    spec = dataclasses.replace(SMALL_SPEC, samples=30)  # 24 train samples
    cfg = small_config(dataset=spec, sweep_values=[1], epochs=10, repetitions=1)
    with pytest.raises(DataExhaustedError, match="devices=1"):
        run_sweep(cfg)


# -- CSV ----------------------------------------------------------------------


def test_csv_header_and_row_count(tmp_path):
    result = run_sweep(small_config())
    path = tmp_path / "out.csv"
    emit_csv(result, path)
    lines = path.read_text().splitlines()
    assert lines[0] == CSV_COLUMNS
    assert len(lines) == 1 + 2 * 5  # two sweep points, five epochs each


def test_csv_reemission_is_byte_identical(tmp_path):
    result = run_sweep(small_config())
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_csv(result, a)
    emit_csv(result, b)
    assert a.read_bytes() == b.read_bytes()


def test_csv_full_rerun_is_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_csv(run_sweep(small_config()), a)
    emit_csv(run_sweep(small_config()), b)
    assert a.read_bytes() == b.read_bytes()


def test_csv_parses_back_within_rounding(tmp_path):
    result = run_sweep(small_config(repetitions=3))
    path = tmp_path / "out.csv"
    emit_csv(result, path)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    flat = [(p.sweep_value, s) for p in result.points for s in p.epochs]
    assert len(rows) == len(flat)
    for row, (value, s) in zip(rows, flat):
        assert row["sweep_param"] == "devices"
        assert int(row["sweep_value"]) == value
        assert int(row["epoch"]) == s.epoch
        assert int(row["examples_seen"]) == s.examples_seen
        # 6 significant digits of headroom
        assert float(row["val_acc_mean"]) == pytest.approx(s.val_acc_mean, rel=1e-5, abs=1e-9)
        assert float(row["val_acc_std"]) == pytest.approx(s.val_acc_std, rel=1e-5, abs=1e-9)
        assert float(row["train_acc_mean"]) == pytest.approx(s.train_acc_mean, rel=1e-5, abs=1e-9)


# sha256 of emit_csv for each preset at repetitions=2, epochs=30, computed on
# the per-episode DenseHead/sgd_step kernel, before the episodes ran on raw
# arrays. A change that claims bit-identical sweeps must keep every digit.
PRESET_CSV_SHA256 = {
    "fig1": "9387b045cee7a2c26bc4aeea247a2ef923fa9daf90aa465219c72ec59a8a3267",
    "fig2": "28cea305fb6f7e779b83ac60e307d1689f7c0c3b2e1417ec30ab073ce277ec66",
    "fig3": "4c69b97b2877f7b38ae697a261dc59d13dcd0c2c4198c6440613ca074a5a4252",
    "fig4": "2457d02542b22fba772b9ab5f06930e9886e2815665230a25a38a7b804957e92",
}


# sha256 of a sweep over a dataset file, whose features are a strided float32
# view of the file's records; computed before rounds gathered device batches
# straight from that view.
FILE_SWEEP_CSV_SHA256 = "3b0d0b536e521b5758867965becec1f3915cf5f7d6c188fcf7879ec5a8e5b5e6"


def test_file_dataset_sweep_csv_bytes_are_pinned(tmp_path):
    import fedhead.data as data_mod

    path = tmp_path / "task.ds"
    data_mod.save_dataset(data_mod.synth_separable(24, 3, 3000, 4.0, 5), path)
    cfg = ExperimentConfig(batch_size=10, epochs=20, repetitions=2, dataset=str(path),
                           sweep_values=[1, 2, 3])
    out = tmp_path / "sweep.csv"
    emit_csv(run_sweep(cfg), out)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == FILE_SWEEP_CSV_SHA256


@pytest.mark.parametrize("name", sorted(PRESET_CSV_SHA256))
def test_preset_csv_bytes_are_pinned(tmp_path, name):
    cfg = dataclasses.replace(default_presets()[name], repetitions=2, epochs=30)
    path = tmp_path / f"{name}.csv"
    emit_csv(run_sweep(cfg), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == PRESET_CSV_SHA256[name]


def test_csv_uses_unix_newlines(tmp_path):
    path = tmp_path / "out.csv"
    emit_csv(run_sweep(small_config(repetitions=1, sweep_values=[1], epochs=2)), path)
    raw = path.read_bytes()
    assert b"\r" not in raw
    assert raw.endswith(b"\n")


# -- presets ------------------------------------------------------------------


def test_presets_cover_the_four_standard_sweeps():
    presets = default_presets()
    assert set(presets) == {"fig1", "fig2", "fig3", "fig4"}
    for cfg in presets.values():
        assert cfg.epochs == 100
        assert cfg.learning_rate == 0.01
        assert cfg.base_seed == 0
        assert isinstance(cfg.dataset, SyntheticSpec)
        assert cfg.dataset.samples == 20000

    fig1 = presets["fig1"]
    assert (fig1.sweep_param, fig1.sweep_values) == ("init_mode", ["random", "pretrained"])
    assert (fig1.devices, fig1.batch_size, fig1.local_episodes) == (2, 20, 5)
    assert fig1.repetitions == 10

    fig2 = presets["fig2"]
    assert (fig2.sweep_param, fig2.sweep_values) == ("devices", [1, 2, 4, 8])
    assert (fig2.batch_size, fig2.local_episodes, fig2.repetitions) == (20, 5, 10)

    fig3 = presets["fig3"]
    assert (fig3.sweep_param, fig3.sweep_values) == ("batch_size", [1, 5, 20, 50])
    assert (fig3.devices, fig3.local_episodes, fig3.repetitions) == (2, 5, 10)

    fig4 = presets["fig4"]
    assert (fig4.sweep_param, fig4.sweep_values) == ("local_episodes", [1, 3, 5, 6])
    assert (fig4.devices, fig4.batch_size, fig4.repetitions) == (2, 20, 20)


# -- pretrained source head -----------------------------------------------------


def test_pretrained_blob_is_deterministic():
    a = make_pretrained_blob(8, 2, 1)
    b = make_pretrained_blob(8, 2, 1)
    c = make_pretrained_blob(8, 2, 2)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)
    assert a.embedding_dim == 8 and a.num_classes == 2
    assert a.param_count == 8 * 2 + 2


# -- config validation + parsing -------------------------------------------------


def test_config_rejects_bad_axis_and_empty_values():
    with pytest.raises(ValueError):
        small_config(sweep_param="learning_rate")
    with pytest.raises(ValueError):
        small_config(sweep_values=[])
    with pytest.raises(ValueError):
        small_config(repetitions=0)


def test_synthetic_spec_rejects_unknown_kind():
    with pytest.raises(ValueError):
        SyntheticSpec(kind="mystery").build(0)


def test_parse_config_round_trips_all_keys():
    cfg = parse_config_text(
        """
        # experiment setup
        devices = 4
        batch_size = 10      # trailing comment
        local_episodes = 3
        learning_rate = 0.02
        epochs = 7
        repetitions = 2
        base_seed = 5
        init_mode = random
        dataset = synthetic-sparse
        synth_dim = 32
        synth_classes = 2
        synth_samples = 900
        synth_sparse_dims = 4
        synth_margin = 3.5
        synth_val_fraction = 0.25
        sweep_param = batch_size
        sweep_values = 1, 5, 10
        """
    )
    assert cfg.devices == 4
    assert cfg.batch_size == 10
    assert cfg.local_episodes == 3
    assert cfg.learning_rate == 0.02
    assert cfg.epochs == 7
    assert cfg.repetitions == 2
    assert cfg.base_seed == 5
    assert cfg.sweep_param == "batch_size"
    assert cfg.sweep_values == [1, 5, 10]
    spec = cfg.dataset
    assert isinstance(spec, SyntheticSpec)
    assert spec.kind == "sparse"
    assert (spec.embedding_dim, spec.num_classes, spec.samples) == (32, 2, 900)
    assert (spec.sparse_dims, spec.margin, spec.val_fraction) == (4, 3.5, 0.25)


def test_parse_config_keeps_init_mode_sweep_values_as_strings():
    cfg = parse_config_text("sweep_param = init_mode\nsweep_values = random, pretrained\n")
    assert cfg.sweep_values == ["random", "pretrained"]


def test_parse_config_dataset_path_passes_through():
    cfg = parse_config_text("dataset = /tmp/some.ds\nsweep_values = 1\n")
    assert cfg.dataset == "/tmp/some.ds"


def test_parse_config_rejects_unknown_key():
    with pytest.raises(ValueError, match="upsilon"):
        parse_config_text("upsilon = 3\n")


def test_parse_config_rejects_missing_equals():
    with pytest.raises(ValueError, match="line 2"):
        parse_config_text("devices = 2\nbatch_size 10\n")


def test_parse_config_rejects_synth_keys_for_file_datasets():
    with pytest.raises(ValueError):
        parse_config_text("dataset = /tmp/a.ds\nsynth_dim = 8\n")


def test_parse_config_file(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("devices = 3\nsweep_param = devices\nsweep_values = 3\n")
    cfg = parse_config_file(path)
    assert cfg.devices == 3
    assert cfg.sweep_values == [3]


def test_defaults_match_base_protocol():
    cfg = ExperimentConfig()
    assert cfg.devices == 2
    assert cfg.batch_size == 20
    assert cfg.local_episodes == 5
    assert cfg.learning_rate == 0.01
    assert cfg.epochs == 100
    assert cfg.repetitions == 10
    assert cfg.base_seed == 0
    assert cfg.init_mode == "random"
    spec = cfg.dataset
    assert (spec.kind, spec.embedding_dim, spec.num_classes) == ("separable", 16, 2)
    assert (spec.samples, spec.margin, spec.val_fraction) == (20000, 4.0, 0.2)
