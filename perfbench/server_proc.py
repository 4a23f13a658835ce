"""The fedhead server of a live workload, run as its own process.

Usage: python3 perfbench/server_proc.py DATA.fted INIT.ftl OUT_PREFIX TRACE

Loads the dataset for server-side validation, serves a count:2 policy on an
ephemeral loopback port, prints ``READY <port>`` and serves until its stdin
closes. It then writes every round's global model to OUT_PREFIX.npy and the
rest of its record (participants, bytes per round, peak RSS, spans) to
OUT_PREFIX.json.
"""
from __future__ import annotations

import json
import os
import resource
import sys
import threading
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

import fedhead.data  # noqa: E402
import fedhead.runtime  # noqa: E402
from fedhead.wire import decode_model  # noqa: E402

import layers  # noqa: E402
from tracing import Tracer  # noqa: E402


def main(data_path: str, init_path: str, out_prefix: str, trace: bool) -> None:
    srv = sys.modules["fedhead.runtime.server"]
    holder: dict = {}
    sent = defaultdict(int)  # bytes, keyed by how many rounds had finished
    received = defaultdict(int)

    def rounds_done() -> int:
        return len(holder["server"].history) if "server" in holder else 0

    # Byte counters at both ends of the server's sockets. Everything agents
    # send arrives here, so sent + received covers both directions.
    encode_message = srv.encode_message

    def counted_encode(msg):
        data = encode_message(msg)
        sent[rounds_done()] += len(data)
        return data

    class CountedBuffer(srv.MessageBuffer):
        def feed(self, data) -> None:
            received[rounds_done()] += len(data)
            super().feed(data)

    srv.encode_message = counted_encode
    srv.MessageBuffer = CountedBuffer

    tracer = Tracer(round_of=rounds_done)
    if trace:
        layers.install(tracer, layers.server_plan())

    validation = fedhead.data.load_dataset(data_path).validation_samples()
    with open(init_path, "rb") as fh:
        initial = decode_model(fh.read())
    server = fedhead.runtime.Server(
        "127.0.0.1", 0, initial, fedhead.runtime.RoundPolicy("count", 2), validation=validation,
    )
    holder["server"] = server

    def stop_on_eof() -> None:
        sys.stdin.read()
        server.stop()

    threading.Thread(target=stop_on_eof, daemon=True).start()
    print(f"READY {server.address[1]}", flush=True)
    server.run()
    tracer.restore()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    history = server.history
    blobs = np.array([r.blob.values for r in history], dtype=np.float64).reshape(
        len(history), len(initial.values)
    )
    np.save(out_prefix + ".npy", blobs)
    record = {
        "participants": [list(r.participants) for r in history],
        "bytes_per_round": [sent[k] + received[k] for k in range(len(history) + 1)],
        "peak_rss_mb": peak_rss_mb,
        "spans": tracer.spans,
    }
    with open(out_prefix + ".json", "w") as fh:
        json.dump(record, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2], sys.argv[3], sys.argv[4] == "1")
