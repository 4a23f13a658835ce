"""Command-line surface: dataset generation, simulation, sweeps, self-checks,
and the live server/agent runtime.

Exit codes: 0 success, 1 usage error, 2 runtime error. Run flags store under
their config keys (`--lr` is learning_rate); simulator.apply_settings layers
them key by key over the preset or defaults and the --config file (see
simulator.parse_config_file), and a setting that cannot work is a usage error
before anything runs. Every command logs its fully resolved configuration,
seeds included, so an output can be reproduced from the log alone.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import sys

import numpy as np

from . import data as data_mod
from . import simulator, wire
from .errors import DataExhaustedError, ProtocolError
from .nn import INIT_MODES, ModelBlob, check_gradient_check_args, gradient_check, init_head
from .runtime import Agent, RoundPolicy, Server, configure_logging, parse_endpoint
from .runtime.protocol import MAX_DEVICE_ID
from .runtime.server import check_round_limits

log = logging.getLogger("fedhead.cli")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage; this artifact reserves 2 for runtime
    # failures, so route usage problems through an exception instead.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise _UsageError(message)


def _log_config(command: str, resolved: dict) -> None:
    log.info("resolved config: %s", json.dumps({"command": command, **resolved}, default=str))


def _log_flags(args) -> None:
    """Log the subcommand's parsed flags, in definition order, as its resolved config."""
    _log_config(args.command, {k: v for k, v in vars(args).items() if k not in ("command", "func")})


# -- dataset helpers -----------------------------------------------------------


def _add_synth_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--kind", choices=["separable", "sparse"],
                   help="synthetic task family (default separable)")
    p.add_argument("--dim", type=int, dest="synth_dim", help="embedding dimension (default 16)")
    p.add_argument("--classes", type=int, dest="synth_classes",
                   help="number of classes (default 2)")
    p.add_argument("--samples", type=int, dest="synth_samples",
                   help="total samples (default 20000)")
    p.add_argument("--margin", type=float, dest="synth_margin",
                   help="centroid separation (default 4.0)")
    p.add_argument("--sparse-dims", type=int, dest="synth_sparse_dims",
                   help="signal-carrying dims for --kind sparse (default 16)")
    p.add_argument("--val-fraction", type=float, dest="synth_val_fraction",
                   help="validation share (default 0.2)")


def _flag_settings(args) -> dict:
    """The experiment settings given as flags, as {config key: value}."""
    settings = {k: v for k, v in vars(args).items() if k in simulator.CONFIG_KEYS and v is not None}
    if args.kind is not None:  # the flag form of dataset=synthetic-K
        if "dataset" in settings:
            raise _UsageError("--kind sets a synthetic dataset and cannot be combined with --data")
        settings["dataset"] = f"synthetic-{args.kind}"
    return settings


def _experiment(args, base: simulator.ExperimentConfig, one_point: bool = False):
    """Layer the --config file, then the flags, over `base`, key by key.

    A setting that cannot work is a usage error; a missing file stays an OSError.
    `one_point` sweeps only the resolved device count (simulate).
    """
    try:
        if args.config:  # only over the defaults: --preset and --config are exclusive
            base = simulator.parse_config_file(args.config)
        cfg = simulator.apply_settings(base, _flag_settings(args))
        if one_point:
            cfg = dataclasses.replace(cfg, sweep_param="devices", sweep_values=[cfg.devices])
        return cfg
    except ValueError as exc:
        raise _UsageError(str(exc)) from None


# -- subcommand implementations ---------------------------------------------


def _cmd_gen_data(args) -> int:
    spec = simulator.apply_settings(simulator.ExperimentConfig(), _flag_settings(args)).dataset
    _log_config("gen-data", {**dataclasses.asdict(spec), "seed": args.seed, "out": args.out})
    dataset = spec.build(args.seed)
    data_mod.save_dataset(dataset, args.out)
    print(
        f"wrote {args.out}: {len(dataset.labels)} samples, "
        f"E={dataset.embedding_dim}, C={dataset.num_classes}, "
        f"{len(dataset.validation_indices())} validation"
    )
    return 0


def _print_sweep_summary(result: simulator.SweepResult) -> None:
    for point in result.points:
        final = point.epochs[-1]
        print(
            f"{result.sweep_param}={point.sweep_value}: "
            f"final val_acc {final.val_acc_mean:.4f} ± {final.val_acc_std:.4f} "
            f"({final.examples_seen} examples seen)"
        )


def _run_sweep(command: str, cfg: simulator.ExperimentConfig) -> simulator.SweepResult:
    """Log the resolved config, run the sweep and print its summary.

    A synthetic task too small for a sweep point, or with no validation
    sample, is a usage error, found before the log line; a dataset file's
    sizes are checked once it is read.
    """
    if isinstance(cfg.dataset, simulator.SyntheticSpec):
        try:
            simulator.check_data_need(cfg, *cfg.dataset.split_counts)
        except DataExhaustedError as exc:
            raise _UsageError(str(exc)) from None
    _log_config(command, dataclasses.asdict(cfg))
    result = simulator.run_sweep(cfg)
    _print_sweep_summary(result)
    return result


def _cmd_simulate(args) -> int:
    result = _run_sweep("simulate", _experiment(args, simulator.ExperimentConfig(), one_point=True))
    if args.out:
        simulator.emit_csv(result, args.out)
        print(f"wrote {args.out}")
    return 0


def _cmd_sweep(args) -> int:
    if args.preset and args.config:
        raise _UsageError("--preset and --config are mutually exclusive")
    base = simulator.default_presets()[args.preset] if args.preset else simulator.ExperimentConfig()
    result = _run_sweep("sweep", _experiment(args, base))
    out = args.out or (f"{args.preset}.csv" if args.preset else "sweep.csv")
    simulator.emit_csv(result, out)
    print(f"wrote {out}")
    return 0


def _cmd_gradcheck(args) -> int:
    settings = {k: getattr(args, k) for k in ("trials", "seed", "step", "max_dim", "max_classes")}
    try:
        check_gradient_check_args(**settings)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    if not (np.isfinite(args.tol) and args.tol >= 0):
        raise _UsageError(f"--tol must be finite and >= 0, got {args.tol}")
    _log_flags(args)
    worst = gradient_check(**settings)
    print(f"max relative error over {args.trials} trials: {worst:.3e}")
    if not worst <= args.tol:  # a NaN error fails
        print(f"gradcheck FAILED: {worst:.3e}, tolerance {args.tol:g}", file=sys.stderr)
        return 2
    return 0


def _cmd_serve(args) -> int:
    try:
        wire.frame_count(wire.encoded_size(args.dim, args.classes))
    except ProtocolError as exc:
        raise _UsageError(f"--dim {args.dim} --classes {args.classes}: {exc}") from None
    try:
        endpoint = parse_endpoint(args.listen)
        policy = RoundPolicy.parse(args.policy)
        check_round_limits(args.timeout, args.rounds)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    validation = None
    if args.data:
        dataset = data_mod.load_dataset(args.data)
        if dataset.embedding_dim != args.dim or dataset.num_classes > args.classes:
            raise _UsageError(
                f"--data {args.data} has embedding dim {dataset.embedding_dim}, --dim is "
                f"{args.dim}; it has {dataset.num_classes} classes, --classes is {args.classes}"
            )
        validation = dataset.stacked_validation()
        if not validation:
            raise _UsageError(f"--data {args.data} has no validation samples to score rounds on")
    blob = init_head(args.dim, args.classes, args.init, seed=args.seed)
    _log_flags(args)
    server = Server(endpoint[0], endpoint[1], blob, policy, validation=validation,
                    round_timeout=args.timeout, max_rounds=args.rounds)
    try:
        server.run()
    except KeyboardInterrupt:
        log.info("interrupted; shutting down")
    print(f"served {len(server.history)} rounds on {server.address[0]}:{server.address[1]}")
    return 0


def _cmd_agent(args) -> int:
    try:
        endpoint = parse_endpoint(args.connect)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    limit = min(args.num_devices, MAX_DEVICE_ID + 1)
    if not 0 <= args.device_id < limit:
        raise _UsageError(f"--device-id must be in [0, {limit}) to pick one of --num-devices "
                          f"shards and fit the message header's device byte")
    dataset = data_mod.load_dataset(args.data)
    stream = data_mod.partition(dataset, args.num_devices, args.partition_seed)[args.device_id]
    try:  # the agent checks its settings when built, before it connects
        worker = Agent(
            endpoint[0], endpoint[1], args.device_id, stream,
            learning_rate=args.lr, local_episodes=args.episodes,
            sync_batch=args.sync_batch, push_every=args.push_every,
        )
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    _log_flags(args)
    try:
        worker.run()
    except KeyboardInterrupt:
        pass
    print(f"device {args.device_id}: trained on {worker.samples_trained} samples, "
          f"{worker.installs} models installed")
    return 0


def _cmd_encode(args) -> int:
    with open(args.infile, "r") as fh:
        payload = json.load(fh)
    try:
        blob = ModelBlob(
            np.asarray(payload["values"], dtype=np.float64),
            int(payload["embedding_dim"]),
            int(payload["num_classes"]),
        )
    except KeyError as exc:
        raise ValueError(f"blob JSON is missing key {exc}") from None
    encoded = wire.encode_model(blob)
    with open(args.out, "wb") as fh:
        fh.write(encoded)
    _log_config("encode", {"in": args.infile, "out": args.out, "bytes": len(encoded)})
    print(f"wrote {args.out}: {len(encoded)} bytes "
          f"(E={blob.embedding_dim}, C={blob.num_classes})")
    return 0


def _cmd_decode(args) -> int:
    with open(args.infile, "rb") as fh:
        encoded = fh.read()
    blob = wire.decode_model(encoded)
    payload = {
        "embedding_dim": blob.embedding_dim,
        "num_classes": blob.num_classes,
        "values": blob.values.tolist(),
    }
    text = json.dumps(payload)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
        print(f"wrote {args.out}")
    else:
        print(text)
    _log_config("decode", {"in": args.infile, "out": args.out})
    return 0


# -- parser ---------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="fedhead", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("gen-data", help="generate a synthetic embedding dataset file")
    _add_synth_flags(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output dataset path")
    p.set_defaults(func=_cmd_gen_data)

    def add_run_flags(p):
        # Each experiment flag stores under its config key.
        p.add_argument("--config", help="key=value config file; flags override it")
        p.add_argument("--devices", "-N", type=int)
        p.add_argument("--batch-size", "-B", type=int)
        p.add_argument("--episodes", "-L", type=int, dest="local_episodes")
        p.add_argument("--lr", type=float, dest="learning_rate")
        p.add_argument("--epochs", "-T", type=int)
        p.add_argument("--reps", "-R", type=int, dest="repetitions")
        p.add_argument("--seed", type=int, dest="base_seed")
        p.add_argument("--init", choices=INIT_MODES, dest="init_mode")
        p.add_argument("--data", dest="dataset", help="dataset file (default: synthetic)")
        _add_synth_flags(p)

    p = sub.add_parser("simulate", help="run one federated configuration")
    add_run_flags(p)
    p.add_argument("--out", default=None, help="optional per-epoch CSV path")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("sweep", help="run a parameter sweep and write its CSV")
    p.add_argument("--preset", choices=["fig1", "fig2", "fig3", "fig4"], default=None)
    add_run_flags(p)
    p.add_argument("--sweep", choices=simulator.SWEEP_AXES, dest="sweep_param",
                   help="axis to sweep")
    p.add_argument("--values", dest="sweep_values", help="comma-separated sweep values")
    p.add_argument("--out", default=None, help="CSV path (default <preset>.csv)")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("gradcheck", help="finite-difference check of train_batch's gradient")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--step", type=float, default=1e-5)
    p.add_argument("--max-dim", type=int, default=8)
    p.add_argument("--max-classes", type=int, default=4)
    p.add_argument("--tol", type=float, default=1e-5)
    p.set_defaults(func=_cmd_gradcheck)

    p = sub.add_parser("serve", help="run the global-model server")
    p.add_argument("--listen", default="127.0.0.1:7700", help="host:port to bind")
    p.add_argument("--policy", default="timer:5", help="count:K or timer:SECONDS")
    p.add_argument("--dim", type=int, default=16, help="embedding dimension")
    p.add_argument("--classes", type=int, default=2)
    p.add_argument("--init", choices=["random", "zeros"], default="random")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--rounds", type=int, default=None, help="stop after this many rounds")
    p.add_argument("--timeout", type=float, default=5.0, help="round collection deadline")
    p.add_argument("--data", default=None, help="dataset file for server-side validation")
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser("agent", help="run a device agent")
    p.add_argument("--connect", default="127.0.0.1:7700", help="server host:port")
    p.add_argument("--device-id", type=int, required=True)
    p.add_argument("--data", required=True, help="dataset file to stream from")
    p.add_argument("--num-devices", type=int, default=1,
                   help="partition count; this agent takes shard --device-id")
    p.add_argument("--partition-seed", type=int, default=0)
    p.add_argument("--lr", type=float, default=0.01)
    p.add_argument("--episodes", type=int, default=20)
    p.add_argument("--sync-batch", type=int, default=None,
                   help="lockstep mode: train this many samples per install, then push")
    p.add_argument("--push-every", type=int, default=None,
                   help="free-run mode: push an update every this many samples")
    p.set_defaults(func=_cmd_agent)

    p = sub.add_parser("encode", help="blob JSON -> encoded model bytes")
    p.add_argument("--in", dest="infile", required=True, help="blob JSON file")
    p.add_argument("--out", required=True, help="output binary path")
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("decode", help="encoded model bytes -> blob JSON")
    p.add_argument("--in", dest="infile", required=True, help="encoded model file")
    p.add_argument("--out", default=None, help="JSON path (default: stdout)")
    p.set_defaults(func=_cmd_decode)

    return parser


def main(argv=None) -> int:
    try:
        configure_logging()
    except ValueError as exc:
        print(f"fedhead: {exc}", file=sys.stderr)
        return 1
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError:
        return 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"fedhead: error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError, RuntimeError, KeyError) as exc:
        print(f"fedhead: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
