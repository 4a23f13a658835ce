"""fedhead benchmark: one workload per run, metrics as the last stdout line.

    python3 perfbench/run.py --workload sim-fig --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; fedhead is imported from its src/.
With --trace 0 it reports the end-to-end metrics of BENCHMARK.json, with
--trace 1 the per-layer ones from a traced run. ``all`` runs every workload in
turn and prints each metric by workload, name and unit. See README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("sim-fig", "live-e16", "live-e1280")
# One BLAS thread per process: the server and the load generator share the
# machine's cores, and idle BLAS workers spinning in one process starve the
# other. Must be set before numpy loads; the server process inherits it.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _import_fedhead():
    if not os.path.isfile(os.path.join(SRC, "fedhead", "__init__.py")):
        sys.exit(f"perfbench: no fedhead sources under {SRC}; run from a full checkout")
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import fedhead

    if os.path.dirname(os.path.dirname(os.path.abspath(fedhead.__file__))) != SRC:
        sys.exit(f"perfbench: imported fedhead from {fedhead.__file__}, not from {SRC}")


def environment() -> dict:
    import numpy

    commit = None
    try:
        lines = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        ).stdout.split()
        if len(lines) == 2 and os.path.realpath(lines[0]) == os.path.realpath(ROOT):
            commit = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": commit or "unknown (not a git checkout)",
        "network": "loopback only (127.0.0.1); no traffic left the host",
        "cpu_pinning": "not available",
        "cpu_governor": "not available",
        "blas_threads_per_process": 1,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import live
    import simfig

    work_root = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(work_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-{seed}-", dir=work_root)
    try:
        if name == "sim-fig":
            return simfig.run(seed, seconds, trace, workdir)
        return live.run(name, seed, seconds, trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(work_root)
        except OSError:  # another run is using it
            pass


def declared_metrics(trace: bool) -> dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.environ.update(BLAS_ENV)
    _import_fedhead()
    units = declared_metrics(bool(args.trace))
    env = environment()
    print("env " + json.dumps(env, sort_keys=True), flush=True)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        if set(result["metrics"]) != set(units):
            raise RuntimeError(f"{name} reported {sorted(result['metrics'])}, "
                               f"BENCHMARK.json declares {sorted(units)}")
        for note in result["notes"]:
            print(f"{name}: {note}")
        share = result["failed"] / result["attempted"]
        print(f"{name}: failed_share = {share:.6g} ({result['failed']} of {result['attempted']})")
        for metric, unit in units.items():
            print(f"{name}: {metric} = {result['metrics'][metric]:.6g} {unit}")
        for metric, (value, unit) in result.get("reported", {}).items():
            print(f"{name}: {metric} = {value:.6g} {unit} (printed, not in BENCHMARK.json)")
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        prefix = f"{name}." if args.workload == "all" else ""
        for metric, value in result["metrics"].items():
            combined["metrics"][prefix + metric] = {"value": value, "unit": units[metric]}
    combined["correct"] = combined["failed"] == 0
    print(json.dumps(combined), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
