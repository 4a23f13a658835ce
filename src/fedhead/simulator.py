"""Experiment harness: seeded repeated runs, parameter sweeps, CSV output.

A sweep varies exactly one axis (devices, batch_size, local_episodes, or
init_mode), repeats each point R times with seeds base_seed..base_seed+R-1,
and reports mean and standard deviation of the accuracy curves. Everything
downstream of the config is deterministic, so re-running a sweep reproduces
its CSV byte for byte.

Seed derivation (stable, relied on for reproducibility): repetition r uses
rep_seed = base_seed + r, and its data generation, partitioning, and head
init consume the three children of np.random.SeedSequence([rep_seed]) in
that order. Repetitions are therefore independent of sweep-value order and
of which other values appear in the sweep, so a sweep runs repetition-major:
repetition r builds its dataset and stacks its validation set once, runs
every sweep point on them, and frees them before repetition r + 1 is built.

Each child is used once per repetition, not once per point: the data seed
builds the dataset, the partition seed shuffles its training split, whose
order every point shards into its own device streams, and the init seed
draws the random initial head. So the sweep points of one repetition share
its dataset, validation set, training order and one initial head per init
mode, and differ only in their round settings.
"""
from __future__ import annotations

import dataclasses
import typing
from dataclasses import dataclass, field

import numpy as np

from . import data as data_mod
from .errors import DataExhaustedError
from .federation import ModelBlob, RoundConfig, run_training
from .nn import INIT_MODES, init_head

SWEEP_AXES = ("devices", "batch_size", "local_episodes", "init_mode")

CSV_COLUMNS = (
    "sweep_param,sweep_value,epoch,examples_seen,"
    "val_acc_mean,val_acc_std,train_acc_mean,train_acc_std"
)


@dataclass
class SyntheticSpec:
    """Recipe for an on-the-fly dataset, regenerated per repetition seed."""

    kind: str = "separable"  # or "sparse"
    embedding_dim: int = 16
    num_classes: int = 2
    samples: int = 20000
    margin: float = 4.0
    sparse_dims: int = 16  # used by kind="sparse"
    val_fraction: float = 0.2

    def __post_init__(self) -> None:
        if self.kind not in ("separable", "sparse"):
            raise ValueError(f"unknown synthetic kind {self.kind!r}")
        data_mod.check_synth_task(self.embedding_dim, self.num_classes, self.samples,
                                  self.margin, self.val_fraction,
                                  self.sparse_dims if self.kind == "sparse" else None)

    @property
    def split_counts(self) -> tuple[int, int]:
        """The (train, validation) sample counts of every build."""
        val_count = data_mod.validation_count(self.samples, self.val_fraction)
        return self.samples - val_count, val_count

    def build(self, seed) -> data_mod.EmbeddingDataset:
        if self.kind == "separable":
            return data_mod.synth_separable(
                self.embedding_dim,
                self.num_classes,
                self.samples,
                self.margin,
                seed,
                val_fraction=self.val_fraction,
            )
        return data_mod.synth_sparse(
            self.embedding_dim,
            self.sparse_dims,
            self.num_classes,
            self.samples,
            seed,
            margin=self.margin,
            val_fraction=self.val_fraction,
        )


@dataclass
class ExperimentConfig:
    """One sweep: a base configuration plus a single swept axis.

    Every field is a config key. Construction types the sweep values by their
    axis and checks every sweep point, so a config that cannot run fails here.
    """

    devices: int = 2
    batch_size: int = 20
    local_episodes: int = 5
    learning_rate: float = 0.01
    epochs: int = 100
    repetitions: int = 10
    base_seed: int = 0
    init_mode: str = "random"
    dataset: SyntheticSpec | str = field(default_factory=SyntheticSpec)
    sweep_param: str = "devices"
    sweep_values: list = field(default_factory=lambda: [1, 2, 4, 8])

    def __post_init__(self) -> None:
        if self.sweep_param not in SWEEP_AXES:
            raise ValueError(f"sweep_param must be one of {SWEEP_AXES}, got {self.sweep_param!r}")
        if not self.sweep_values:
            raise ValueError("sweep_values must be non-empty")
        if self.repetitions < 1:
            raise ValueError(f"repetitions must be >= 1, got {self.repetitions}")
        if self.base_seed < 0:
            raise ValueError(f"base_seed must be >= 0, got {self.base_seed}")
        axis_type = _CONFIG_TYPES[self.sweep_param]
        self.sweep_values = [_typed(self.sweep_param, axis_type, v) for v in self.sweep_values]
        for value in self.sweep_values:
            _point_config(self, value)


@dataclass(eq=False)
class EpochStats:
    epoch: int
    examples_seen: int
    val_acc_mean: float
    val_acc_std: float
    train_acc_mean: float
    train_acc_std: float


@dataclass(eq=False)
class SweepPoint:
    sweep_value: object
    epochs: list[EpochStats]


@dataclass(eq=False)
class SweepResult:
    sweep_param: str
    points: list[SweepPoint]


_CONFIG_TYPES = typing.get_type_hints(ExperimentConfig)
_SPEC_TYPES = typing.get_type_hints(SyntheticSpec)
# Config key -> SyntheticSpec field; these keys need a synthetic dataset.
SYNTH_KEYS = {"synth_dim": "embedding_dim", "synth_classes": "num_classes",
              "synth_samples": "samples", "synth_margin": "margin",
              "synth_sparse_dims": "sparse_dims", "synth_val_fraction": "val_fraction"}
CONFIG_KEYS = (*_CONFIG_TYPES, *SYNTH_KEYS)


def _typed(key: str, kind: type, value):
    try:
        return kind(value)
    except (TypeError, ValueError):
        raise ValueError(f"{key} must be {kind.__name__}, got {value!r}") from None


def apply_settings(cfg: ExperimentConfig, settings: dict) -> ExperimentConfig:
    """Return `cfg` with each {config key: value} setting applied; ValueError if it cannot run.

    Values are converted by their field's type, so file text and typed flag
    values take one path. dataset=synthetic-K sets the synthetic kind and keeps
    the other synth_* settings; any other dataset is a file path.
    """
    changes, synth = {}, {}
    for key, value in settings.items():
        if key in SYNTH_KEYS:
            synth[SYNTH_KEYS[key]] = _typed(key, _SPEC_TYPES[SYNTH_KEYS[key]], value)
        elif key == "sweep_values" and isinstance(value, str):
            changes[key] = [v.strip() for v in value.split(",") if v.strip()]
        elif key in ("dataset", "sweep_values"):
            changes[key] = value
        elif key in _CONFIG_TYPES:
            changes[key] = _typed(key, _CONFIG_TYPES[key], value)
        else:
            raise ValueError(f"unknown config key {key!r}")
    dataset = changes.pop("dataset", cfg.dataset)
    if dataset in ("synthetic-separable", "synthetic-sparse"):
        synth["kind"] = dataset.removeprefix("synthetic-")
        dataset = cfg.dataset if isinstance(cfg.dataset, SyntheticSpec) else SyntheticSpec()
    if synth:
        if not isinstance(dataset, SyntheticSpec):
            keys = ", ".join(k for k in settings if k in SYNTH_KEYS)
            raise ValueError(f"{keys}: synth_* settings need dataset=synthetic-separable or "
                             f"synthetic-sparse, not {dataset!r}")
        dataset = dataclasses.replace(dataset, **synth)  # one replace: one spec check
    return dataclasses.replace(cfg, dataset=dataset, **changes)


def _point_config(cfg: ExperimentConfig, value) -> tuple[RoundConfig, str]:
    """Apply one sweep value by field name; ValueError if the point cannot run."""
    point = {name: getattr(cfg, name) for name in SWEEP_AXES}
    point[cfg.sweep_param] = value
    if point["init_mode"] not in INIT_MODES:
        raise ValueError(f"init_mode must be one of {INIT_MODES}, got {point['init_mode']!r}")
    return RoundConfig(point["devices"], point["batch_size"], point["local_episodes"],
                       cfg.learning_rate, cfg.epochs), point["init_mode"]


def check_data_need(cfg: ExperimentConfig, train_count: int, val_count: int) -> None:
    """Raise DataExhaustedError, naming the sweep point, unless every point's
    devices can each draw batch_size x epochs unseen samples from a training
    split of `train_count` samples, of which `partition` gives each device at
    least train_count // devices; then raise it unless the `val_count`
    validation samples that score every round are at least one."""
    for value in cfg.sweep_values:
        round_cfg, _ = _point_config(cfg, value)
        devices, needed = round_cfg.num_devices, round_cfg.batch_size * round_cfg.epochs
        if train_count // devices < needed:
            raise DataExhaustedError(
                f"sweep point {cfg.sweep_param}={value}: {round_cfg.epochs} epochs of "
                f"{round_cfg.batch_size} need {needed} samples per device, and "
                f"{train_count} training samples across {devices} devices leave "
                f"{train_count // devices}"
            )
    if val_count < 1:
        raise DataExhaustedError("the dataset has no validation samples to score each round on")


def make_pretrained_blob(embedding_dim: int, num_classes: int, seed) -> ModelBlob:
    """Train a head centrally on a source task and hand back its parameters.

    The source task is a separate synthetic problem (different centroids),
    so reusing the blob exercises genuine transfer rather than a re-run of
    the target task.
    """
    source_seed = np.random.SeedSequence([int(seed), 0x5eed])
    data_ss, part_ss, init_ss = source_seed.spawn(3)
    source = data_mod.synth_separable(
        embedding_dim, num_classes, 2600, 4.0, data_ss, val_fraction=0.2
    )
    parts = data_mod.partition(source, 1, part_ss)
    cfg = RoundConfig(
        num_devices=1, batch_size=20, local_episodes=1, learning_rate=0.01, epochs=100
    )
    result = run_training(cfg, parts, source.stacked_validation(), "random", init_seed=init_ss)
    return result.final_blob


def _run_repetition(cfg: ExperimentConfig, point_cfgs: list[tuple[RoundConfig, str]],
                    source: SyntheticSpec | data_mod.EmbeddingDataset, r: int,
                    pretrained: ModelBlob | None, curves: np.ndarray) -> None:
    """Run repetition r at every sweep point into curves[point, :, r], the (val,
    train) accuracy after each round. The points share the repetition's data,
    its one shuffle, sharded for each point, and one initial head per init mode
    (`pretrained` itself, or one `init_head` builds from the init seed), which
    `run_training` copies. The data is local, so it is freed before the next
    build."""
    data_ss, part_ss, init_ss = np.random.SeedSequence([cfg.base_seed + r]).spawn(3)
    dataset = source.build(data_ss) if isinstance(source, SyntheticSpec) else source
    val = dataset.stacked_validation()
    (order,) = data_mod.partition(dataset, 1, part_ss)
    heads = {mode: pretrained if mode == "pretrained" else
             init_head(dataset.embedding_dim, dataset.num_classes, mode, seed=init_ss)
             for mode in {mode for _, mode in point_cfgs}}
    for p, (round_cfg, init_mode) in enumerate(point_cfgs):
        result = run_training(round_cfg, order.shard(round_cfg.num_devices), val, "pretrained",
                              init_blob=heads[init_mode])
        curves[p, :, r] = [[rec.val_accuracy for rec in result.history],
                           [rec.train_accuracy for rec in result.history]]


def run_sweep(cfg: ExperimentConfig) -> SweepResult:
    """Run `repetitions` seeded repetitions, each at every sweep point on one build of its data."""
    needs_pretrained = cfg.init_mode == "pretrained" or (
        cfg.sweep_param == "init_mode" and "pretrained" in cfg.sweep_values
    )
    # A file dataset is the same for every repetition, so it is read once.
    source = cfg.dataset
    if isinstance(source, SyntheticSpec):
        check_data_need(cfg, *source.split_counts)
    else:
        source = data_mod.load_dataset(source)
        check_data_need(cfg, len(source.train_indices()), len(source.validation_indices()))
    pretrained = None
    if needs_pretrained:
        pretrained = make_pretrained_blob(source.embedding_dim, source.num_classes, cfg.base_seed)
    point_cfgs = [_point_config(cfg, value) for value in cfg.sweep_values]
    # (point, val/train, repetition, round): each point's (R, T) curves are
    # laid out as np.asarray of R lists would be, so the stats keep their bits.
    curves = np.empty((len(point_cfgs), 2, cfg.repetitions, cfg.epochs))
    for r in range(cfg.repetitions):
        _run_repetition(cfg, point_cfgs, source, r, pretrained, curves)
    points = []
    for value, (round_cfg, _), (val_arr, train_arr) in zip(cfg.sweep_values, point_cfgs, curves):
        epochs = [
            EpochStats(
                epoch=t + 1,
                examples_seen=round_cfg.num_devices * round_cfg.batch_size * (t + 1),
                val_acc_mean=float(val_arr[:, t].mean()),
                val_acc_std=float(val_arr[:, t].std()),
                train_acc_mean=float(train_arr[:, t].mean()),
                train_acc_std=float(train_arr[:, t].std()),
            )
            for t in range(round_cfg.epochs)
        ]
        points.append(SweepPoint(sweep_value=value, epochs=epochs))
    return SweepResult(sweep_param=cfg.sweep_param, points=points)


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def emit_csv(result: SweepResult, path) -> None:
    """Write one row per (sweep value, epoch). Deterministic byte-for-byte."""
    lines = [CSV_COLUMNS]
    for point in result.points:
        for s in point.epochs:
            lines.append(
                f"{result.sweep_param},{point.sweep_value},{s.epoch},{s.examples_seen},"
                f"{_fmt(s.val_acc_mean)},{_fmt(s.val_acc_std)},"
                f"{_fmt(s.train_acc_mean)},{_fmt(s.train_acc_std)}"
            )
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def default_presets() -> dict[str, ExperimentConfig]:
    """Named sweep presets: the default config with one axis swept.

    fig1: init mode (random vs pretrained), 2 devices, batch 20, 5 episodes.
    fig2: device count {1,2,4,8}, batch 20, 5 episodes.
    fig3: batch size {1,5,20,50}, 2 devices, 5 episodes.
    fig4: local episodes {1,3,5,6}, 2 devices, batch 20, 20 repetitions.
    """
    return {
        "fig1": ExperimentConfig(sweep_param="init_mode", sweep_values=["random", "pretrained"]),
        "fig2": ExperimentConfig(),
        "fig3": ExperimentConfig(sweep_param="batch_size", sweep_values=[1, 5, 20, 50]),
        "fig4": ExperimentConfig(
            sweep_param="local_episodes", sweep_values=[1, 3, 5, 6], repetitions=20
        ),
    }


def parse_config_text(text: str) -> ExperimentConfig:
    """Parse the flat key=value experiment format ('#' starts a comment) over the defaults."""
    pairs: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected key=value, got {raw!r}")
        key, value = line.split("=", 1)
        pairs[key.strip()] = value.strip()
    return apply_settings(ExperimentConfig(), pairs)


def parse_config_file(path) -> ExperimentConfig:
    with open(path, "r") as fh:
        return parse_config_text(fh.read())
