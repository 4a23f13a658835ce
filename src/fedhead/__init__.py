"""Federated transfer learning on frozen embeddings, from scratch.

A tiny dense classification head is trained with plain softmax/cross-entropy
SGD on fixed feature vectors; many devices train locally and a server
averages their parameters each round. The package provides the numerics
(nn), the averaging protocol (federation), byte-exact model serialization
(wire), dataset files and synthetic tasks (data), a reproducible experiment
harness (simulator), a live TCP client/server runtime (runtime), and a CLI.
"""
from .errors import (
    CorruptionError,
    DataExhaustedError,
    DatasetFormatError,
    FrameSequenceError,
    IncompleteStreamError,
    ProtocolError,
    ShapeError,
    TruncationError,
    WireError,
)
from .nn import (
    EmbeddingSample,
    Gradients,
    ModelBlob,
    StackedSamples,
    footprint_bytes,
    gradient_check,
    init_head,
    train_batch,
)
from .federation import (
    RoundConfig,
    average_blobs,
    blob_from_head,
    evaluate,
    federated_round,
    head_from_blob,
    run_training,
)
from .wire import decode_model, encode_model, encoded_size, frame_stream, unframe_stream
from .data import (
    EmbeddingDataset,
    load_dataset,
    partition,
    save_dataset,
    synth_separable,
    synth_sparse,
)
from .simulator import ExperimentConfig, default_presets, emit_csv, run_sweep

__version__ = "0.1.0"

__all__ = [
    "CorruptionError",
    "DataExhaustedError",
    "DatasetFormatError",
    "FrameSequenceError",
    "IncompleteStreamError",
    "ProtocolError",
    "ShapeError",
    "TruncationError",
    "WireError",
    "EmbeddingSample",
    "Gradients",
    "StackedSamples",
    "footprint_bytes",
    "gradient_check",
    "init_head",
    "train_batch",
    "ModelBlob",
    "RoundConfig",
    "average_blobs",
    "blob_from_head",
    "evaluate",
    "federated_round",
    "head_from_blob",
    "run_training",
    "decode_model",
    "encode_model",
    "encoded_size",
    "frame_stream",
    "unframe_stream",
    "EmbeddingDataset",
    "load_dataset",
    "partition",
    "save_dataset",
    "synth_separable",
    "synth_sparse",
    "ExperimentConfig",
    "default_presets",
    "emit_csv",
    "run_sweep",
    "__version__",
]
