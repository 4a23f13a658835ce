"""Which fedhead names the traced run wraps, and the per-layer metrics.

Each entry patches a name where its caller looks it up, so one span name can
be installed at several lookup sites (``evaluate`` is called by
``federation.federated_round`` and by the server). See README.md for the
end-to-end metric each layer metric should move.
"""
from __future__ import annotations

import sys
from collections import defaultdict

from tracing import END, NAME, PARENT, START, TAG, THREAD, self_times

MESSAGE_TYPES = ("HELLO", "PUSH_MODEL", "PULL_MODEL", "MODEL_DATA", "ACK", "ERROR")
WIRE_CALLS = (
    "encode_model", "frame_stream", "frames_to_bytes",
    "frames_from_bytes", "unframe_stream", "decode_model",
)
SETUP_SPANS = {"data.load_dataset", "data.EmbeddingDataset.validation_samples"}


def _batch_len(args, result):
    return len(args[1])


def _result_len(args, result):
    return len(result)


def _message_type(args, result):
    return args[0].type.name


def _data_and_wire():
    data = sys.modules["fedhead.data"]
    wire = sys.modules["fedhead.wire"]
    plan = [
        (data.DeviceStream, "take", "data.DeviceStream.take", _result_len),
        (data.EmbeddingDataset, "validation_samples",
         "data.EmbeddingDataset.validation_samples", None),
        (data, "load_dataset", "data.load_dataset", None),
        (data, "partition", "data.partition", None),
        (data, "synth_separable", "data.synth_separable", None),
    ]
    for call in WIRE_CALLS:
        tag = _result_len if call in ("frame_stream", "frames_from_bytes") else None
        plan.append((wire, call, f"wire.{call}", tag))
    return plan


def sim_plan():
    """Names wrapped inside the in-process sweep."""
    sim = sys.modules["fedhead.simulator"]
    fed = sys.modules["fedhead.federation"]
    return _data_and_wire() + [
        (sim, "run_sweep", "simulator.run_sweep", None),
        (sim, "run_training", "federation.run_training", None),
        (fed, "federated_round", "federation.federated_round", None),
        (fed, "evaluate", "federation.evaluate", None),
        (fed, "average_blobs", "federation.average_blobs", None),
        (fed, "train_batch", "nn.train_batch", _batch_len),
    ]


def server_plan():
    """Names wrapped in the server process."""
    srv = sys.modules["fedhead.runtime.server"]
    return _data_and_wire() + [
        (srv, "evaluate", "federation.evaluate", None),
        (srv, "average_blobs", "federation.average_blobs", None),
        (srv, "encode_model", "wire.encode_model", None),
        (srv, "encode_message", "runtime.protocol.encode_message", _message_type),
        (srv, "model_data_body", "runtime.protocol.model_data_body", None),
        (srv, "blob_from_model_data", "runtime.protocol.blob_from_model_data", None),
    ]


def agent_plan():
    """Names wrapped in the load generator, whose threads run the agents.

    ``fedhead.runtime.agent`` as an attribute is the ``agent()`` function, so
    the module comes from ``sys.modules``.
    """
    agt = sys.modules["fedhead.runtime.agent"]
    return _data_and_wire() + [
        (agt, "train_batch", "nn.train_batch", _batch_len),
        (agt, "head_from_blob", "federation.head_from_blob", None),
        (agt, "blob_from_head", "federation.blob_from_head", None),
        (agt, "encode_message", "runtime.protocol.encode_message", _message_type),
        (agt, "model_data_body", "runtime.protocol.model_data_body", None),
        (agt, "blob_from_model_data", "runtime.protocol.blob_from_model_data", None),
    ]


def install(tracer, plan) -> None:
    for owner, attr, name, tag in plan:
        tracer.patch(owner, attr, name, tag)


class Totals:
    """Per span name: calls, summed duration, summed self time, summed tag."""

    def __init__(self) -> None:
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_total = defaultdict(float)
        self.tag_sum = defaultdict(float)
        self.tag_count = defaultdict(int)  # (name, tag) -> calls

    def add(self, spans) -> None:
        """Fold in the spans of one process (parent indices are per process)."""
        for span, own in zip(spans, self_times(spans)):
            name = span[NAME]
            self.calls[name] += 1
            self.total[name] += span[END] - span[START]
            self.self_total[name] += own
            if isinstance(span[TAG], (int, float)):
                self.tag_sum[name] += span[TAG]
            elif span[TAG] is not None:
                self.tag_count[(name, span[TAG])] += 1

    def per_call(self, name: str, scale: float, own: bool = False) -> float:
        """Mean duration per call (own: mean self time), times `scale`."""
        summed = self.self_total[name] if own else self.total[name]
        return scale * summed / self.calls[name] if self.calls[name] else 0.0

    def per_tag(self, name: str, scale: float) -> float:
        return scale * self.total[name] / self.tag_sum[name] if self.tag_sum[name] else 0.0


def root_busy(spans, threads=None, start=None, end=None, exclude=SETUP_SPANS) -> float:
    """Summed duration of top-level spans, optionally limited to some threads
    and to spans that start inside [start, end]."""
    busy = 0.0
    for s in spans:
        if s[PARENT] >= 0 or s[NAME] in exclude:
            continue
        if threads is not None and s[THREAD] not in threads:
            continue
        if (start is not None and s[START] < start) or (end is not None and s[START] > end):
            continue
        busy += s[END] - s[START]
    return busy


def layer_metrics(totals: Totals, *, rounds: int = 0, agent_busy_ms: float = 0.0,
                  agent_wait_ms: float = 0.0, server_busy_ms: float = 0.0,
                  overhead_pct: float = 0.0) -> dict[str, float]:
    """Every per-layer metric; a layer the workload never calls reads 0."""
    t = totals
    m = {
        "nn.train_batch.us_per_sample": t.per_tag("nn.train_batch", 1e6),
        "nn.train_batch.busy_s": t.total["nn.train_batch"],
        "federation.evaluate.ms_per_call": t.per_call("federation.evaluate", 1e3),
        "federation.federated_round.self_ms": t.per_call("federation.federated_round", 1e3, own=True),
        "federation.average_blobs.us_per_call": t.per_call("federation.average_blobs", 1e6),
        "data.DeviceStream.take.us_per_sample": t.per_tag("data.DeviceStream.take", 1e6),
        "data.load_dataset.ms": t.per_call("data.load_dataset", 1e3),
        "data.partition.ms": t.per_call("data.partition", 1e3),
    }
    for call in WIRE_CALLS:
        m[f"wire.{call}.us_per_call"] = t.per_call(f"wire.{call}", 1e6)
    for call in ("frame_stream", "frames_from_bytes"):
        name = f"wire.{call}"
        m[f"{name}.frames_per_call"] = t.tag_sum[name] / t.calls[name] if t.calls[name] else 0.0
    for mtype in MESSAGE_TYPES:
        count = t.tag_count[("runtime.protocol.encode_message", mtype)]
        m[f"runtime.protocol.encode_message.{mtype}.calls_per_round"] = (
            count / rounds if rounds else 0.0
        )
    m["runtime.protocol.model_data_body.ms"] = t.per_call("runtime.protocol.model_data_body", 1e3)
    m["runtime.protocol.blob_from_model_data.ms"] = t.per_call(
        "runtime.protocol.blob_from_model_data", 1e3
    )
    m["runtime.agent.busy_ms_per_round"] = agent_busy_ms
    m["runtime.agent.wait_ms_per_round"] = agent_wait_ms
    m["runtime.server.busy_ms_per_round"] = server_busy_ms
    m["simulator.run_sweep.self_ms"] = t.per_call("simulator.run_sweep", 1e3, own=True)
    m["trace.overhead_pct"] = overhead_pct
    return m
