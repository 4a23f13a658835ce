"""live-e16 and live-e1280: real FedAvg rounds over TCP loopback.

Closed loop: this process runs two sync agents (B=20, L=5) as two threads,
one connection each, against a count:2 server in its own process
(server_proc.py). A round is timed at agent 0 as the interval between two
consecutive global installs, observed when the agent draws its next batch.
"""
from __future__ import annotations

import json
import logging
import os
import selectors
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

import numpy as np

import hostref
import layers
from layers import root_busy
from tracing import Tracer, highest_percentile, median, nearest_rank

HERE = os.path.dirname(os.path.abspath(__file__))

CLASSES = 2
DEVICES = 2
BATCH = 20
EPISODES = 5
LR = 0.01
MIN_INTERVALS = 100  # p90 then has 10 samples beyond it
SESSIONS = 16  # per run, each set up from scratch; see run()
GATE_TOL = 1e-5
READY_TIMEOUT = 60.0
STOP_TIMEOUT = 30.0
RUN_DEADLINE = 150.0  # seconds; past it a session counts as failed
KERNEL_RUNS = 10  # host speed reference runs before each session and after the last


@dataclass(frozen=True)
class LiveSpec:
    dim: int
    capacity_rounds: int  # rounds of data each device stream holds
    val_samples: int


SPECS = {
    "live-e16": LiveSpec(dim=16, capacity_rounds=2000, val_samples=1000),
    "live-e1280": LiveSpec(dim=1280, capacity_rounds=250, val_samples=1000),
}


class ProbeStream:
    """A device stream that records when the agent draws each batch."""

    def __init__(self, stream) -> None:
        self._stream = stream
        self.takes: list[float] = []
        self.first = threading.Event()

    def take(self, count):
        batch = self._stream.take(count)
        self.takes.append(time.perf_counter())
        self.first.set()
        return batch

    def __getattr__(self, name):
        return getattr(self._stream, name)


def make_inputs(spec: LiveSpec, seed: int, workdir: str) -> dict:
    """Write the FTED dataset and the float32-exact initial model."""
    from fedhead import blob_from_head, data, decode_model, encode_model, init_head

    data_seed, part_seed, init_seed = (int(s) for s in np.random.SeedSequence(seed).generate_state(3))
    n_train = DEVICES * BATCH * spec.capacity_rounds
    n = n_train + spec.val_samples
    dataset = data.synth_separable(
        spec.dim, CLASSES, n, 4.0, data_seed, val_fraction=spec.val_samples / n,
    )
    data_path = os.path.join(workdir, "task.fted")
    data.save_dataset(dataset, data_path)
    encoded = encode_model(blob_from_head(init_head(spec.dim, CLASSES, "random", seed=init_seed)))
    init_path = os.path.join(workdir, "init.ftl")
    with open(init_path, "wb") as fh:
        fh.write(encoded)
    return {"data": data_path, "init": init_path, "part_seed": part_seed,
            "blob0": decode_model(encoded)}


class ServerGone(Exception):
    """The server process exited or went silent before it was ready."""


def _read_ready(proc, deadline: float) -> int:
    sel = selectors.DefaultSelector()
    sel.register(proc.stdout, selectors.EVENT_READ)
    try:
        while time.monotonic() < deadline:
            if sel.select(timeout=0.1):
                line = proc.stdout.readline()
                if not line:
                    break
                if line.startswith(b"READY "):
                    return int(line.split()[1])
            elif proc.poll() is not None:
                break
    finally:
        sel.close()
    raise ServerGone("server process did not report READY")


class Session:
    """One server process plus two agent threads, from launch to teardown."""

    def __init__(self, spec: LiveSpec, inputs: dict, workdir: str, tag: str, tracer=None) -> None:
        self.spec = spec
        self.inputs = inputs
        self.out_prefix = os.path.join(workdir, f"server-{tag}")
        self.tracer = tracer
        self.proc = None
        self.agents = []
        self.threads = []
        self.probes = []
        self.agent_errors: list[BaseException] = []

    def start(self, deadline: float) -> float:
        """Bring the session up; returns the set-up time in seconds."""
        from fedhead import data
        from fedhead.runtime import Agent

        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "server_proc.py"), self.inputs["data"],
             self.inputs["init"], self.out_prefix, "1" if self.tracer else "0"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        )
        dataset = data.load_dataset(self.inputs["data"])
        streams = data.partition(dataset, DEVICES, self.inputs["part_seed"])
        for stream in streams:  # hang guard: a dry stream stalls a count:2 server
            need = self.spec.capacity_rounds * BATCH
            if stream.remaining() < need:
                raise RuntimeError(f"device {stream.device_id} holds {stream.remaining()} "
                                   f"samples, the run may need {need}")
        port = _read_ready(self.proc, min(deadline, time.monotonic() + READY_TIMEOUT))
        self.probes = [ProbeStream(s) for s in streams]
        self.agents = [
            Agent("127.0.0.1", port, d, self.probes[d], learning_rate=LR,
                  local_episodes=EPISODES, sync_batch=BATCH)
            for d in range(DEVICES)
        ]
        self.threads = [threading.Thread(target=self._run_agent, args=(a,), daemon=True)
                        for a in self.agents]
        if self.tracer is not None:
            by_thread = {}
            self.tracer.round_of = lambda: (
                by_thread[threading.get_ident()].installs
                if threading.get_ident() in by_thread else 0
            )
        for agent, thread in zip(self.agents, self.threads):
            thread.start()
            if self.tracer is not None:
                by_thread[thread.ident] = agent
        for probe in self.probes:
            if not probe.first.wait(max(0.0, deadline - time.monotonic())):
                raise TimeoutError("agents did not install the initial model in time")
        return time.perf_counter() - start

    def _run_agent(self, agent) -> None:
        try:
            agent.run()
        except BaseException as exc:  # recorded and reported as a failed run
            self.agent_errors.append(exc)

    def run_rounds(self, seconds: float, min_intervals: int, deadline: float) -> bool:
        """Let rounds run for `seconds` and at least `min_intervals` rounds at
        agent 0, or until the streams would run dry. False on the deadline."""
        takes = self.probes[0].takes
        begin = takes[0]
        while True:
            done = len(takes) - 1
            if done >= self.spec.capacity_rounds - 1:
                return True
            if done >= min_intervals and time.perf_counter() - begin >= seconds:
                return True
            if time.monotonic() >= deadline or self.agent_errors:
                return False
            time.sleep(0.02)

    def stop(self) -> dict | None:
        """Stop the server, then the agents, and reap the server; returns its
        record. The server goes first so that it stops between rounds and no
        agent leaves in the middle of one."""
        record = None
        # Agents log each failed reconnect once the server is gone; expected here.
        logging.getLogger("fedhead.runtime.agent").setLevel(logging.ERROR)
        try:
            if self.proc is not None:
                self.proc.stdin.close()
                if self.proc.wait(STOP_TIMEOUT) == 0:
                    with open(self.out_prefix + ".json") as fh:
                        record = json.load(fh)
                    record["blobs"] = np.load(self.out_prefix + ".npy")
        except subprocess.TimeoutExpired:
            pass  # killed below; no record means the session failed
        finally:
            for agent in self.agents:
                agent.stop()
            for thread in self.threads:
                thread.join(STOP_TIMEOUT)
            if self.proc is not None:
                if self.proc.poll() is None:
                    self.proc.kill()
                    self.proc.wait()
                self.proc.stdout.close()
        return record


def _gate(spec: LiveSpec, inputs: dict, record: dict) -> tuple[int, int, list[str]]:
    """Every round has both devices and matches an in-process run within 1e-5."""
    from fedhead import RoundConfig, data, run_training

    rounds = len(record["participants"])
    if rounds == 0:
        return 1, 1, ["gate: the server finished no round"]
    dataset = data.load_dataset(inputs["data"])
    sim = run_training(
        RoundConfig(num_devices=DEVICES, batch_size=BATCH, local_episodes=EPISODES,
                    learning_rate=LR, epochs=rounds),
        data.partition(dataset, DEVICES, inputs["part_seed"]), dataset.validation_samples(),
        "pretrained", init_blob=inputs["blob0"],
    )
    expected = np.array([b.values for b in sim.round_blobs])
    return check_rounds(record["participants"], record["blobs"], expected)


def check_rounds(participants, got, expected, tol: float = GATE_TOL):
    """(attempted, failed, notes) for per-round globals against a reference."""
    failed = 0
    notes = []
    worst = 0.0
    for i, who in enumerate(participants):
        gap = float(np.max(np.abs(got[i] - expected[i])))
        worst = max(worst, gap)
        if sorted(who) != list(range(DEVICES)) or not gap <= tol:
            failed += 1
            if len(notes) < 5:
                notes.append(f"round {i + 1}: participants {who}, max gap {gap:.3g}")
    notes.append(f"gate: {len(participants)} rounds vs in-process run_training, "
                 f"worst gap {worst:.3g}, tol {tol}")
    return len(participants), failed, notes


class SessionFailed(Exception):
    """A session that stalled or lost its server; already counted as failed."""


@dataclass
class Measured:
    """What one session yields: its set-up time, agent 0's batch draws during
    the timed rounds, the server's record and, when traced, the spans."""

    setup_s: float
    takes: list[float]
    record: dict
    agent_spans: list | None = None
    agent_threads: set | None = None

    @property
    def intervals(self) -> list[float]:
        return [1e3 * (b - a) for a, b in zip(self.takes, self.takes[1:])]

    @property
    def window_s(self) -> float:
        return self.takes[-1] - self.takes[0]

    @property
    def steady_bytes(self) -> list[int]:
        """Bytes of every complete round after the first (the first also
        carries registration)."""
        return self.record["bytes_per_round"][1:len(self.record["participants"])]


class Run:
    """The sessions of one run and their failure tally."""

    def __init__(self, spec: LiveSpec, inputs: dict, workdir: str) -> None:
        self.spec = spec
        self.inputs = inputs
        self.workdir = workdir
        self.deadline = time.monotonic() + RUN_DEADLINE
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def session(self, tag: str, seconds: float, min_intervals: int, traced: bool) -> Measured:
        """Set up, run timed rounds, tear down, then gate the session."""
        tracer = Tracer() if traced else None
        session = Session(self.spec, self.inputs, self.workdir, tag, tracer)
        if tracer is not None:
            layers.install(tracer, layers.agent_plan())
        ok = False
        takes: list[float] = []
        try:
            setup_s = session.start(self.deadline)
            ok = session.run_rounds(seconds, min_intervals, self.deadline)
            takes = list(session.probes[0].takes)  # agents may train on while stopping
        except (TimeoutError, ServerGone):
            pass  # counted as failed below
        finally:
            record = session.stop()
            if tracer is not None:
                tracer.restore()
        if record is None or not ok:
            self.attempted += 1
            self.failed += 1
            raise SessionFailed(f"{tag}: missed the run's deadline or lost its server")
        attempted, failed, notes = _gate(self.spec, self.inputs, record)
        # Rounds agent 0 saw but the server never recorded count as failed.
        missing = max(0, len(takes) - 1 - len(record["participants"]))
        self.attempted += attempted + missing
        self.failed += failed + missing
        self.notes.extend(f"{tag}: {n}" for n in notes)
        return Measured(
            setup_s, takes, record,
            tracer.spans if tracer else None,
            {t.ident for t in session.threads} if tracer else None,
        )


def _pooled(sessions: list[Measured]) -> dict:
    intervals = [x for m in sessions for x in m.intervals]
    window = sum(m.window_s for m in sessions)
    steady = [b for m in sessions for b in m.steady_bytes]
    return {
        "intervals": intervals,
        "samples_per_s": len(intervals) * DEVICES * BATCH / window,
        "bytes_per_round": sum(steady) / len(steady) if steady else 0.0,
        "bytes_exact": len(set(steady)) == 1,
    }


def run(name: str, seed: int, seconds: float, trace: bool, workdir: str) -> dict:
    """Several sessions per run, each set up from scratch, their rounds pooled.

    Round times shift from one session to the next while staying level within
    one, so a run samples several sessions rather than one long one. The
    traced run alternates untraced and traced sessions; the untraced ones are
    the overhead baseline.
    """
    spec = SPECS[name]
    run_ = Run(spec, make_inputs(spec, seed, workdir), workdir)
    traced_flags = [trace and i % 2 == 1 for i in range(SESSIONS)]
    timed = SESSIONS // 2 if trace else SESSIONS
    min_intervals = -(-MIN_INTERVALS // timed)
    sessions = []
    kernels: list[float] = []  # host speed reference, timed between sessions
    for i, flag in enumerate(traced_flags):
        if not trace:
            kernels += [hostref.kernel_seconds() for _ in range(KERNEL_RUNS)]
        try:
            sessions.append(run_.session(
                f"session{i}{'-traced' if flag else ''}", seconds / timed, min_intervals, flag))
        except SessionFailed as exc:  # later sessions would miss the deadline too
            run_.notes.append(str(exc))
            break
    result = {"attempted": run_.attempted, "failed": run_.failed, "notes": run_.notes}
    plain = [m for m, flag in zip(sessions, traced_flags) if not flag]
    traced = [m for m, flag in zip(sessions, traced_flags) if flag]
    if not plain or (trace and not traced):
        raise RuntimeError("no session finished: " + "; ".join(run_.notes))
    pooled = _pooled(plain)
    n = len(pooled["intervals"])
    p = highest_percentile(n)
    if p is None or p < 90:
        result["failed"] += 1
        result["notes"].append(f"only {n} round intervals; p90 needs {MIN_INTERVALS}")
    if not trace:
        kernels += [hostref.kernel_seconds() for _ in range(KERNEL_RUNS)]
        kernel_s = hostref.run_kernel_seconds(kernels)
        setups = [m.setup_s for m in sessions]
        result["metrics"] = {
            "setup_s": hostref.at_nominal(median(setups), kernel_s),
            "train_samples_per_s": hostref.rate_at_nominal(pooled["samples_per_s"], kernel_s),
            "wire_bytes_per_round": pooled["bytes_per_round"],
            "peak_rss_mb": max(m.record["peak_rss_mb"] for m in sessions),
        }
        result["reported"] = {
            "measured_setup_s": (median(setups), "s"),
            "measured_train_samples_per_s": (pooled["samples_per_s"], "1/s"),
            "reference_kernel_ms": (1e3 * kernel_s, "ms"),
        }
        result["reported"].update({
            f"round_ms_p{q:g}": (nearest_rank(pooled["intervals"], q), "ms") for q in (50, 90)
        })
        result["notes"].append(
            f"{n} rounds at agent 0 over {len(sessions)} sessions, "
            f"p{p:g} {nearest_rank(pooled['intervals'], p):.3f} ms; bytes per round "
            f"{'identical' if pooled['bytes_exact'] else 'NOT identical'} across rounds; "
            f"set-up times {', '.join(f'{x:.3f}' for x in setups)} s; setup_s and "
            f"train_samples_per_s are at nominal host speed, from {len(kernels)} reference runs"
        )
        return result

    totals = layers.Totals()
    agent_busy = server_busy = 0.0
    for m in traced:
        server_spans = [tuple(s) for s in m.record["spans"]]
        totals.add(m.agent_spans)
        totals.add(server_spans)
        agent_busy += root_busy(m.agent_spans, m.agent_threads, m.takes[0], m.takes[-1])
        server_busy += root_busy(server_spans)
    traced_pool = _pooled(traced)
    intervals = len(traced_pool["intervals"])
    rounds = sum(len(m.record["participants"]) for m in traced)
    agent_busy_ms = 1e3 * agent_busy / (intervals * DEVICES)
    result["metrics"] = layers.layer_metrics(
        totals,
        rounds=rounds,
        agent_busy_ms=agent_busy_ms,
        agent_wait_ms=sum(traced_pool["intervals"]) / intervals - agent_busy_ms,
        server_busy_ms=1e3 * server_busy / rounds,
        overhead_pct=100.0 * (pooled["samples_per_s"] / traced_pool["samples_per_s"] - 1.0),
    )
    result["notes"].append(f"traced {intervals} rounds, untraced {n}")
    return result
