"""Command-line behavior: exit codes, file outputs, and the serve/agent loop.

All commands run in-process through main(argv), so stdout/stderr and exit
codes are asserted without spawning interpreters.
"""
import argparse
import json
import logging
import socket
import threading
import time

import numpy as np
import pytest

from fedhead import cli, simulator
from fedhead.cli import main
from fedhead.data import load_dataset, synth_sparse
from fedhead.nn import StackedSamples
from fedhead.simulator import CSV_COLUMNS, CONFIG_KEYS, ExperimentConfig, parse_config_text
from fedhead.wire import decode_model


TINY = ["--dim", "8", "--samples", "300", "--margin", "6.0"]


def test_no_subcommand_is_a_usage_error(capsys):
    assert main([]) == 1
    assert "usage" in capsys.readouterr().err


def test_unknown_subcommand_is_a_usage_error():
    assert main(["frobnicate"]) == 1


def test_unknown_flag_is_a_usage_error():
    assert main(["gradcheck", "--frobnicate"]) == 1


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "gen-data" in capsys.readouterr().out


def test_invalid_log_level_is_a_usage_error(monkeypatch, capsys):
    monkeypatch.setenv("FTL_LOG_LEVEL", "verbose")
    assert main(["gradcheck", "--trials", "1"]) == 1
    assert "FTL_LOG_LEVEL" in capsys.readouterr().err


def test_gradcheck_passes_and_reports(capsys):
    assert main(["gradcheck", "--trials", "20"]) == 0
    assert "max relative error" in capsys.readouterr().out


def test_gradcheck_fails_on_unreachable_tolerance(capsys):
    assert main(["gradcheck", "--trials", "20", "--tol", "1e-20"]) == 2
    assert "FAILED" in capsys.readouterr().err


def test_gradcheck_fails_on_a_nan_gradient(monkeypatch, capsys):
    import fedhead.nn as nn

    kernel = nn.batch_gradients

    def with_nan(head, batch):
        g = kernel(head, batch)
        g.d_bias[..., 0] = np.nan
        return g

    monkeypatch.setattr(nn, "batch_gradients", with_nan)
    assert main(["gradcheck", "--trials", "3"]) == 2
    assert "FAILED" in capsys.readouterr().err


def test_gradcheck_passes_at_a_seed_with_a_tiny_true_coordinate():
    # A float64 finite-difference oracle read 1.04e-5 here, over the 1e-5 bound.
    assert main(["gradcheck", "--seed", "67"]) == 0


@pytest.mark.parametrize("flags", [
    ["--trials", "0"], ["--trials", "-3"], ["--seed", "-1"], ["--step", "0"],
    ["--step=-1e-5"], ["--step", "nan"], ["--step", "inf"], ["--max-dim", "0"],
    ["--max-classes", "1"], ["--tol", "nan"], ["--tol", "inf"], ["--tol=-1e-5"],
], ids=" ".join)
def test_gradcheck_arguments_that_check_nothing_are_usage_errors(flags, capsys, caplog):
    caplog.set_level(logging.INFO, logger="fedhead.cli")
    assert main(["gradcheck", *flags]) == 1
    assert not [r for r in caplog.records if "resolved config" in r.message]
    assert "fedhead: error:" in capsys.readouterr().err


def test_gen_data_writes_a_loadable_dataset(tmp_path, capsys):
    out = tmp_path / "toy.ds"
    rc = main(["gen-data", *TINY, "--seed", "4", "--out", str(out)])
    assert rc == 0
    assert "wrote" in capsys.readouterr().out
    ds = load_dataset(out)
    assert ds.embedding_dim == 8
    assert len(ds.labels) == 300
    assert len(ds.validation_indices()) == 60  # default 0.2 split


def test_simulate_from_dataset_file_writes_csv(tmp_path, capsys):
    data = tmp_path / "toy.ds"
    assert main(["gen-data", *TINY, "--out", str(data)]) == 0
    csv_path = tmp_path / "run.csv"
    rc = main([
        "simulate", "--data", str(data), "-N", "2", "-B", "5", "-L", "1",
        "-T", "3", "-R", "1", "--lr", "0.05", "--out", str(csv_path),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "devices=2:" in out
    lines = csv_path.read_text().splitlines()
    assert lines[0] == CSV_COLUMNS
    assert len(lines) == 1 + 3  # header + one epoch row per epoch


def test_simulate_synthetic_without_out_prints_summary_only(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    rc = main(["simulate", *TINY, "-N", "1", "-B", "5", "-L", "1", "-T", "2", "-R", "1"])
    assert rc == 0
    assert "devices=1:" in capsys.readouterr().out
    assert not list(tmp_path.iterdir())  # nothing written


def test_simulate_flags_override_config_file(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("devices = 4\nepochs = 2\nbatch_size = 5\nrepetitions = 1\n"
                   "synth_dim = 8\nsynth_samples = 300\n")
    rc = main(["simulate", "--config", str(cfg), "-N", "1", "-L", "1"])
    assert rc == 0
    assert "devices=1:" in capsys.readouterr().out


def test_sweep_preset_with_overrides(tmp_path, capsys):
    out = tmp_path / "ep.csv"
    rc = main([
        "sweep", "--preset", "fig4", *TINY, "-R", "1", "-T", "3", "-B", "5",
        "--out", str(out),
    ])
    assert rc == 0
    stdout = capsys.readouterr().out
    for episodes in (1, 3, 5, 6):
        assert f"local_episodes={episodes}:" in stdout
    lines = out.read_text().splitlines()
    assert lines[0] == CSV_COLUMNS
    assert len(lines) == 1 + 4 * 3  # four sweep points, three epochs each


def test_sweep_default_output_name_comes_from_preset(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rc = main([
        "sweep", "--preset", "fig2", *TINY, "-R", "1", "-T", "2", "-B", "5",
        "-L", "1", "--values", "1,2",
    ])
    assert rc == 0
    assert (tmp_path / "fig2.csv").exists()


def test_sweep_custom_axis_and_values(tmp_path, capsys):
    out = tmp_path / "b.csv"
    rc = main([
        "sweep", *TINY, "--sweep", "batch_size", "--values", "1,5",
        "-R", "1", "-T", "2", "-L", "1", "--out", str(out),
    ])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "batch_size=1:" in stdout and "batch_size=5:" in stdout


def test_sweep_rejects_preset_plus_config(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("devices = 1\n")
    assert main(["sweep", "--preset", "fig1", "--config", str(cfg)]) == 1


def test_missing_dataset_file_is_a_runtime_error(capsys):
    rc = main(["simulate", "--data", "/nonexistent/toy.ds", "-T", "1", "-R", "1"])
    assert rc == 2
    assert "fedhead:" in capsys.readouterr().err



def test_non_finite_validation_features_fail_before_the_first_round(tmp_path, monkeypatch, capsys):
    import fedhead.federation as fed
    from fedhead.data import EmbeddingDataset, save_dataset, synth_separable

    ds = synth_separable(16, 2, 400, 4.0, 3)
    features = ds.features.copy()
    features[ds.validation_indices()[:10], 3] = np.nan  # training rows stay clean
    data = tmp_path / "nan-val.ds"
    save_dataset(EmbeddingDataset(features, ds.labels, ds.splits, 2), data)
    rounds = []
    monkeypatch.setattr(fed, "federated_round", lambda *a, **kw: rounds.append(a))
    out = tmp_path / "run.csv"
    rc = main(["simulate", "--data", str(data), "-N", "2", "-B", "5", "-L", "1", "-T", "20",
               "-R", "1", "--out", str(out)])
    assert rc == 2
    assert "validation features must be finite; 10 of 80 samples" in capsys.readouterr().err
    assert rounds == [] and not out.exists()

def test_missing_config_file_is_a_runtime_error(capsys):
    assert main(["sweep", "--config", "/nonexistent/exp.cfg"]) == 2
    assert "FileNotFoundError" in capsys.readouterr().err


IMPOSSIBLE_CONFIGS = [
    ["sweep", "--sweep", "batch_size", "--values", "5,0", "-R", "3"],
    ["sweep", "--sweep", "init_mode", "--values", "random,bogus", "-R", "3"],
    ["simulate", "-B", "0"],
    ["sweep", "--lr", "-1"],
    ["simulate", "-R", "0"],
    ["simulate", "-N", "0"],
    ["sweep", "--seed", "-1"],
    ["sweep", "--preset", "fig2", "--sweep", "init_mode"],
    ["sweep", "--preset", "fig1", "--sweep", "devices"],
    ["simulate", "--config", "{bad_key_cfg}"],
    ["simulate", "--data", "{data}", "--dim", "16"],
    ["sweep", "--data", "{data}", "--kind", "sparse"],
    ["sweep", "--config", "{file_data_cfg}", "--margin", "2.0"],
    ["simulate", "--samples", "0"],
    ["simulate", "--kind", "sparse", "--dim", "8", "--sparse-dims", "40"],
    ["simulate", "--init", "pretrained", "--val-fraction", "1.0"],
    ["sweep", "--dim", "8", "--samples", "300", "--values", "1,2,40", "-R", "1"],
    ["simulate", "--val-fraction", "0"],
    ["simulate", "--samples", "1000", "--val-fraction", "0.0004"],
]


@pytest.mark.parametrize("argv", IMPOSSIBLE_CONFIGS, ids=" ".join)
def test_impossible_config_is_a_usage_error_before_any_repetition(
    argv, tmp_path, monkeypatch, capsys, caplog
):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.cfg").write_text("devices = 2\nupsilon = 3\n")
    (tmp_path / "file.cfg").write_text("dataset = toy.ds\n")
    assert main(["gen-data", *TINY, "--out", "toy.ds"]) == 0
    names = {"bad_key_cfg": "bad.cfg", "file_data_cfg": "file.cfg", "data": "toy.ds"}
    calls = []
    run_training = simulator.run_training
    monkeypatch.setattr(simulator, "run_training",
                        lambda *a, **kw: calls.append(a) or run_training(*a, **kw))
    caplog.clear()
    caplog.set_level(logging.INFO, logger="fedhead.cli")
    argv = [arg.format(**names) for arg in argv]
    assert main([*argv, "-T", "2", "--out", "run.csv"]) == 1
    assert calls == []
    assert not (tmp_path / "run.csv").exists()
    assert not [r for r in caplog.records if "resolved config" in r.message]
    assert "fedhead: error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv,message", [
    (["simulate", "-N", "0"], "devices must be >= 1, got 0"),
    (["simulate", "--samples", "0"], "sweep point devices=2: 2 epochs of 20 need 40 samples"),
    (["simulate", "--kind", "sparse", "--dim", "8", "--sparse-dims", "40"],
     "active_dims must be in [1, 8], got 40"),
    (["simulate", "--val-fraction", "1.0"], "val_fraction must be in [0, 1), got 1.0"),
])
def test_usage_error_names_the_setting(argv, message, capsys):
    assert main([*argv, "-T", "2"]) == 1
    assert f"fedhead: error: {message}" in capsys.readouterr().err


def _resolve(argv) -> ExperimentConfig:
    """The ExperimentConfig a simulate/sweep command line resolves to."""
    return cli._experiment(cli.build_parser().parse_args(argv), ExperimentConfig())


# A valid value for every setting flag, by config key.
SETTING_VALUES = {
    "devices": "3", "batch_size": "7", "local_episodes": "2", "learning_rate": "0.5",
    "epochs": "9", "repetitions": "4", "base_seed": "11", "init_mode": "zeros",
    "dataset": "task.ds", "sweep_param": "batch_size", "sweep_values": "1, 3",
    "synth_dim": "24", "synth_classes": "3", "synth_samples": "500", "synth_margin": "2.5",
    "synth_sparse_dims": "6", "synth_val_fraction": "0.3",
}


@pytest.mark.parametrize("command", ["simulate", "sweep"])
def test_run_flags_store_under_config_keys(command):
    """One vocabulary: a run flag either is a config key or sets no experiment value."""
    subparsers = next(a for a in cli.build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    settings = [a for a in subparsers.choices[command]._actions
                if a.dest not in ("config", "out", "preset", "kind", "help")]
    assert {a.dest for a in settings} <= set(CONFIG_KEYS)
    for action in settings:
        value = SETTING_VALUES[action.dest]
        flagged = _resolve([command, action.option_strings[0], value])
        assert flagged == parse_config_text(f"{action.dest} = {value}\n"), action.dest


def test_sparse_task_from_config_file_and_flags():
    from_file = parse_config_text(
        "dataset = synthetic-sparse\nsynth_dim = 24\nsynth_sparse_dims = 4\n"
        "synth_classes = 3\nsynth_samples = 400\nsynth_margin = 5.0\n"
        "synth_val_fraction = 0.25\n"
    )
    from_flags = _resolve([
        "simulate", "--kind", "sparse", "--dim", "24", "--sparse-dims", "4", "--classes", "3",
        "--samples", "400", "--margin", "5.0", "--val-fraction", "0.25",
    ])
    assert from_flags == from_file
    built = from_file.dataset.build(7)
    want = synth_sparse(24, 4, 3, 400, 7, margin=5.0, val_fraction=0.25)
    for name in ("features", "labels", "splits"):
        assert np.array_equal(getattr(built, name), getattr(want, name)), name
    dead = ~np.any(built.features != 0, axis=0)
    assert dead.sum() == 24 - 4
    assert np.all(built.features[:, dead] == 0.0)


def test_encode_decode_round_trip(tmp_path, capsys):
    blob_json = tmp_path / "blob.json"
    values = [0.5, -1.25, 2.0, 0.0, 3.5, -0.75]  # (E=2,C=2): 2*2+2 values
    blob_json.write_text(json.dumps(
        {"embedding_dim": 2, "num_classes": 2, "values": values}
    ))
    binary = tmp_path / "blob.ftl"
    assert main(["encode", "--in", str(blob_json), "--out", str(binary)]) == 0
    assert "2" in capsys.readouterr().out
    blob = decode_model(binary.read_bytes())
    assert np.array_equal(blob.values, np.asarray(values))  # float32-exact values

    back = tmp_path / "back.json"
    assert main(["decode", "--in", str(binary), "--out", str(back)]) == 0
    payload = json.loads(back.read_text())
    assert payload["embedding_dim"] == 2
    assert payload["values"] == values


def test_decode_to_stdout(tmp_path, capsys):
    blob_json = tmp_path / "blob.json"
    blob_json.write_text(json.dumps(
        {"embedding_dim": 1, "num_classes": 1, "values": [1.5, -2.5]}
    ))
    binary = tmp_path / "blob.ftl"
    assert main(["encode", "--in", str(blob_json), "--out", str(binary)]) == 0
    capsys.readouterr()
    assert main(["decode", "--in", str(binary)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["values"] == [1.5, -2.5]


def test_encode_rejects_incomplete_json(tmp_path, capsys):
    blob_json = tmp_path / "blob.json"
    blob_json.write_text(json.dumps({"values": [1.0, 2.0]}))
    rc = main(["encode", "--in", str(blob_json), "--out", str(tmp_path / "x.ftl")])
    assert rc == 2
    assert "missing key" in capsys.readouterr().err


def test_decode_rejects_corrupted_bytes(tmp_path, capsys):
    blob_json = tmp_path / "blob.json"
    blob_json.write_text(json.dumps(
        {"embedding_dim": 2, "num_classes": 2, "values": [0.0] * 6}
    ))
    binary = tmp_path / "blob.ftl"
    assert main(["encode", "--in", str(blob_json), "--out", str(binary)]) == 0
    raw = bytearray(binary.read_bytes())
    raw[-1] ^= 0x01
    binary.write_bytes(bytes(raw))
    assert main(["decode", "--in", str(binary)]) == 2
    assert "CorruptionError" in capsys.readouterr().err


def test_agent_device_id_must_select_a_shard(tmp_path, capsys):
    data = tmp_path / "toy.ds"
    assert main(["gen-data", *TINY, "--out", str(data)]) == 0
    rc = main([
        "agent", "--connect", "127.0.0.1:1", "--data", str(data),
        "--device-id", "5", "--num-devices", "2",
    ])
    assert rc == 1
    assert "--device-id" in capsys.readouterr().err


def test_agent_device_id_beyond_header_byte_is_a_usage_error(tmp_path, capsys):
    # Rejected before the dataset is read: the file does not exist.
    rc = main([
        "agent", "--connect", "127.0.0.1:1", "--data", str(tmp_path / "absent.ds"),
        "--device-id", "300", "--num-devices", "400",
    ])
    assert rc == 1
    assert "--device-id" in capsys.readouterr().err


def logged_commands(caplog):
    return [json.loads(r.getMessage().split("resolved config: ", 1)[1])["command"]
            for r in caplog.records if "resolved config" in r.getMessage()]


@pytest.mark.parametrize("flags", [
    ("--episodes", "0"), ("--lr", "-0.1"), ("--lr", "nan"), ("--sync-batch", "0"),
    ("--push-every", "0"), ("--sync-batch", "4", "--push-every", "10"),
])
def test_agent_training_settings_that_cannot_work_are_usage_errors(tmp_path, caplog, capsys, flags):
    # Rejected before the agent connects: nothing listens on port 1.
    data = tmp_path / "toy.ds"
    assert main(["gen-data", *TINY, "--out", str(data)]) == 0
    caplog.set_level(logging.INFO, logger="fedhead.cli")
    rc = main(["agent", "--connect", "127.0.0.1:1", "--data", str(data), "--device-id", "0", *flags])
    assert rc == 1
    assert "fedhead: error:" in capsys.readouterr().err
    assert "agent" not in logged_commands(caplog)


@pytest.mark.parametrize("argv", [
    ["serve", "--listen", "nonsense"],
    ["serve", "--listen", "127.0.0.1:70000"],
    ["agent", "--connect", "127.0.0.1:73236"],
])
def test_an_endpoint_that_is_not_host_and_port_is_a_usage_error(tmp_path, caplog, capsys, argv):
    # Rejected before the dataset is read: the agent's file does not exist.
    caplog.set_level(logging.INFO, logger="fedhead.cli")
    if argv[0] == "agent":
        argv = [*argv, "--device-id", "0", "--data", str(tmp_path / "absent.ds")]
    assert main(argv) == 1
    assert "port in 0-65535" in capsys.readouterr().err
    assert argv[0] not in logged_commands(caplog)


def serve_at_startup(*flags):
    """`fedhead serve` run with `flags` in a thread; its exit code, which
    must come at startup rather than after it began serving."""
    rc = {}
    thread = threading.Thread(
        target=lambda: rc.setdefault("rc", main(["serve", "--listen", "127.0.0.1:0", *flags])),
        daemon=True,
    )
    thread.start()
    thread.join(10.0)
    assert not thread.is_alive(), "serve started instead of failing at startup"
    return rc["rc"]


def test_serve_rejects_a_model_too_large_to_frame(capsys):
    assert serve_at_startup("--dim", "1280", "--classes", "64") == 1
    assert "frames" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [
    ("--rounds", "0"), ("--timeout", "0"), ("--timeout", "-1"), ("--timeout", "nan"),
    ("--timeout", "inf"), ("--policy", "count:0"), ("--policy", "timer"),
    ("--policy", "count:inf"), ("--policy", "timer:nan"),
])
def test_serve_round_settings_that_cannot_work_are_usage_errors(caplog, capsys, flags):
    caplog.set_level(logging.INFO, logger="fedhead.cli")
    assert serve_at_startup(*flags) == 1
    assert "fedhead: error:" in capsys.readouterr().err
    assert "serve" not in logged_commands(caplog)


def test_serve_hands_the_server_a_stacked_validation_set(tmp_path, monkeypatch):
    data = tmp_path / "toy.ds"
    assert main(["gen-data", *TINY, "--seed", "3", "--out", str(data)]) == 0
    seen = {}

    class FakeServer:
        history = []
        address = ("127.0.0.1", 0)

        def __init__(self, host, port, blob, policy, *, validation, **kw):
            seen["validation"] = validation

        def run(self):
            pass

    monkeypatch.setattr(cli, "Server", FakeServer)
    assert main(["serve", "--listen", "127.0.0.1:0", "--dim", "8", "--classes", "2",
                 "--data", str(data)]) == 0
    validation = seen["validation"]
    assert isinstance(validation, StackedSamples)
    want = load_dataset(data).validation_indices()
    assert len(validation) == len(want) > 0


def test_serve_rejects_validation_data_of_another_dim(tmp_path, capsys):
    data = tmp_path / "toy.ds"  # E=8
    assert main(["gen-data", *TINY, "--seed", "3", "--out", str(data)]) == 0
    assert serve_at_startup("--dim", "16", "--classes", "2", "--data", str(data)) == 1
    assert "embedding dim 8, --dim is 16" in capsys.readouterr().err


def test_serve_rejects_validation_data_with_more_classes_than_the_model(tmp_path, capsys):
    # A 2-class model can never predict class 2, so its validation accuracy
    # could not count those samples.
    data = tmp_path / "toy.ds"  # E=8, C=3
    assert main(["gen-data", *TINY, "--classes", "3", "--seed", "3", "--out", str(data)]) == 0
    assert serve_at_startup("--dim", "8", "--classes", "2", "--data", str(data)) == 1
    assert "3 classes, --classes is 2" in capsys.readouterr().err


def test_serve_rejects_validation_data_with_no_validation_samples(tmp_path, capsys):
    # The server would otherwise score no round at all.
    data = tmp_path / "toy.ds"
    assert main(["gen-data", *TINY, "--val-fraction", "0", "--out", str(data)]) == 0
    assert serve_at_startup("--dim", "8", "--classes", "2", "--data", str(data)) == 1
    assert "has no validation samples" in capsys.readouterr().err


def test_a_data_file_with_no_validation_samples_fails_after_its_one_read(tmp_path, monkeypatch,
                                                                         capsys):
    import fedhead.data as data_mod

    data = tmp_path / "toy.ds"
    assert main(["gen-data", *TINY, "--val-fraction", "0", "--out", str(data)]) == 0
    reads, calls = [], []
    load, run_training = data_mod.load_dataset, simulator.run_training
    monkeypatch.setattr(data_mod, "load_dataset", lambda *a: reads.append(a) or load(*a))
    monkeypatch.setattr(simulator, "run_training",
                        lambda *a, **kw: calls.append(a) or run_training(*a, **kw))
    out = tmp_path / "run.csv"
    assert main(["simulate", "--data", str(data), "-T", "2", "-R", "1", "--out", str(out)]) == 2
    assert "no validation samples" in capsys.readouterr().err
    assert len(reads) == 1 and calls == [] and not out.exists()


@pytest.mark.parametrize("command", ["serve", "agent", "gradcheck"])
def test_every_flag_of_a_runtime_command_is_logged(command, tmp_path, monkeypatch, caplog):
    class Idle:  # stands in for the Server or the Agent: built, then done at once
        history, address, samples_trained, installs = [], ("127.0.0.1", 0), 0, 0

        def __init__(self, *args, **kwargs):
            pass

        def run(self):
            pass

    monkeypatch.setattr(cli, "Server", Idle)
    monkeypatch.setattr(cli, "Agent", Idle)
    data = tmp_path / "toy.ds"
    assert main(["gen-data", *TINY, "--out", str(data)]) == 0
    argv = {"serve": ["serve", "--dim", "8", "--data", str(data)],
            "agent": ["agent", "--device-id", "0", "--data", str(data)],
            "gradcheck": ["gradcheck", "--trials", "1"]}[command]
    caplog.set_level(logging.INFO, logger="fedhead.cli")
    assert main(argv) == 0
    payloads = [json.loads(r.getMessage().split("resolved config: ", 1)[1])
                for r in caplog.records if "resolved config" in r.getMessage()]
    payload = next(p for p in payloads if p["command"] == command)
    sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    flags = [a.dest for a in sub.choices[command]._actions if a.dest != "help"]
    assert list(payload) == ["command", *flags]


def test_resolved_config_is_logged(tmp_path, caplog):
    caplog.set_level(logging.INFO, logger="fedhead.cli")
    data = tmp_path / "toy.ds"
    assert main(["gen-data", *TINY, "--seed", "9", "--out", str(data)]) == 0
    entries = [r.message for r in caplog.records if "resolved config" in r.message]
    assert entries, "every command must log its resolved configuration"
    payload = json.loads(entries[0].split("resolved config: ", 1)[1])
    assert payload["command"] == "gen-data"
    assert payload["seed"] == 9


def test_serve_and_agent_commands_run_rounds(tmp_path, capsys):
    data = tmp_path / "toy.ds"
    assert main(["gen-data", *TINY, "--seed", "2", "--out", str(data)]) == 0

    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()

    serve_rc = {}

    def run_server():
        serve_rc["rc"] = main([
            "serve", "--listen", f"127.0.0.1:{port}", "--policy", "count:1",
            "--dim", "8", "--classes", "2", "--rounds", "2",
            "--data", str(data),
        ])

    thread = threading.Thread(target=run_server, daemon=True)
    thread.start()
    time.sleep(0.1)
    # The agent outlives the server, runs out of reconnect attempts, and
    # reports a runtime error: that is the designed end for an orphan agent.
    agent_rc = main([
        "agent", "--connect", f"127.0.0.1:{port}", "--device-id", "0",
        "--data", str(data), "--num-devices", "1",
        "--sync-batch", "5", "--episodes", "2", "--lr", "0.05",
    ])
    thread.join(30.0)
    assert not thread.is_alive()
    assert serve_rc["rc"] == 0
    assert agent_rc == 2
    out, err = capsys.readouterr()
    assert "served 2 rounds" in out
    assert "fedhead: ConnectionError" in err
