"""Run one benchmark workload and print its metrics as one JSON line.

Run from the repository root::

    python3 perfbench/run.py --workload bulk_publish --seed 1 --seconds 16 --trace 0

Workloads: ``bulk_publish`` and ``query_read`` (see
``perfbench/README.md``).  Every workload runs in a fresh child process
built from ``src/``.  ``--trace 0`` prints the end-to-end metrics of one
untraced child.  ``--trace 1`` runs an untraced child and then a traced
one, and prints the per-layer metrics of the traced child, the untraced
child's figures that have no per-layer span, and ``trace.overhead.*``
(traced ÷ untraced, per end-to-end metric, >1 means tracing slowed it).
The metric names and units are read from ``BENCHMARK.json``.

The last line of standard output is the result object; earlier lines
carry the provenance block.  A failed correctness check prints
``"correct": false`` and exits 1.  Scratch files, results and the traced
run's Chrome trace go under ``.perfbench/`` in the current directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import subprocess
import sys
import time

OUT_DIR = ".perfbench"
WORKLOAD_NAMES = ("bulk_publish", "query_read")
#: The whole command must finish within this many seconds.
DEADLINE_S = 175.0


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--records", type=int, default=100_000,
        help="records loaded by every workload (the smoke test uses 2000)",
    )
    parser.add_argument(
        "--fault-oracle", action="store_true",
        help="corrupt one oracle answer, to prove the correctness gate trips",
    )
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--traced", type=int, default=0, help=argparse.SUPPRESS)
    parser.add_argument("--result", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# -- child: one workload in this process ---------------------------------------


def child_main(args: argparse.Namespace) -> int:
    from workloads import Run, execute

    run = Run(
        workload=args.workload,
        seed=args.seed,
        records=args.records,
        seconds=args.seconds,
        traced=bool(args.traced),
        fault_oracle=args.fault_oracle,
    )
    document = execute(run, os.path.join(OUT_DIR, "work"))
    tracer = document.pop("tracer", None)
    if tracer is not None:
        path = os.path.join(OUT_DIR, f"trace-{args.workload}-{args.seed}.json")
        tracer.write_chrome(path)
        document["chrome_trace"] = path
        document["spans"] = len(tracer.spans)
    with open(args.result, "w") as handle:
        json.dump(document, handle)
    return 0


# -- parent: orchestration -------------------------------------------------------


def spawn(args: argparse.Namespace, traced: bool, timeout: float) -> dict:
    """Run one workload in a fresh interpreter; returns its result document."""
    result = os.path.join(OUT_DIR, f"result-{os.getpid()}-{int(traced)}.json")
    command = [
        sys.executable, os.path.abspath(__file__), "--child",
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--records", str(args.records),
        "--traced", str(int(traced)), "--result", result,
    ]
    if args.fault_oracle:
        command.append("--fault-oracle")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in ("src", env.get("PYTHONPATH")) if part
    )
    try:
        completed = subprocess.run(
            command, env=env, stdout=sys.stderr, timeout=max(1.0, timeout)
        )
        if completed.returncode != 0:
            raise RuntimeError(
                f"{args.workload} child exited with {completed.returncode}"
            )
        with open(result) as handle:
            return json.load(handle)
    finally:
        if os.path.exists(result):
            os.remove(result)


def provenance(args: argparse.Namespace, documents: list[dict]) -> dict:
    import numpy

    try:
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
            timeout=10,
        )
        rev = git.stdout.strip() if git.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        rev = None
    hasher = hashlib.sha256()
    for directory, subdirs, files in sorted(os.walk(os.path.join("src", "repro"))):
        subdirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                hasher.update(path.encode())
                with open(path, "rb") as handle:
                    hasher.update(handle.read())
    return {
        "git_rev": rev,
        "source_sha256": hasher.hexdigest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "records": args.records,
        "samples": [document["samples"] for document in documents],
        "release_digests": [document["digests"] for document in documents],
        "gates_passed": sum(len(document["gates"]) for document in documents),
        "probe_slowdown": [document["probe_slowdown"] for document in documents],
        "chrome_trace": [d["chrome_trace"] for d in documents if "chrome_trace" in d],
    }


def finite(value: float) -> float:
    if not math.isfinite(value):
        raise ValueError(f"metric value {value} is not finite")
    return float(value)


def end_to_end_metrics(spec: dict, untraced: dict) -> dict[str, float]:
    return {
        entry["name"]: untraced["metrics"][entry["name"]]
        for entry in spec["end_to_end"]
    }


def per_layer_metrics(spec: dict, untraced: dict, traced: dict) -> dict[str, float]:
    """The traced run's ledger, the untraced figures no span covers, and
    the tracing overhead per end-to-end metric (>1: tracing made it worse)."""
    overhead = {}
    for entry in spec["end_to_end"]:
        before = untraced["metrics"][entry["name"]]
        after = traced["metrics"][entry["name"]]
        overhead[entry["name"]] = (
            before / after if entry["better"] == "higher" else after / before
        )
    values = {}
    for entry in spec["per_layer"]:
        name = entry["name"]
        if name == "trace.overhead":
            logs = [math.log(ratio) for ratio in overhead.values()]
            values[name] = math.exp(sum(logs) / len(logs))
        elif name.startswith("trace.overhead."):
            values[name] = overhead[name[len("trace.overhead."):]]
        elif name in traced["ledger"]:
            values[name] = traced["ledger"][name]
        else:
            # Untraced figures no span covers; 0 where the workload has no
            # such path (recover_s outside query_read, for one).
            values[name] = untraced["metrics"].get(name, 0.0)
    return values


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if args.child:
        return child_main(args)
    started = time.perf_counter()
    if not os.path.isfile(os.path.join("src", "repro", "__init__.py")):
        print("error: run from a repository root holding src/repro", file=sys.stderr)
        return 2
    try:
        with open("BENCHMARK.json") as handle:
            spec = json.load(handle)
    except (OSError, ValueError) as error:
        print(f"error: cannot read BENCHMARK.json: {error}", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    try:
        documents = [
            spawn(args, traced, DEADLINE_S - (time.perf_counter() - started))
            for traced in ((False, True) if args.trace else (False,))
        ]
    except (RuntimeError, OSError, ValueError, subprocess.TimeoutExpired) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    correct = all(document["correct"] for document in documents)
    for document in documents:
        if document["error"]:
            print(f"correctness gate failed: {document['error']}", file=sys.stderr)
    values: dict[str, float] = {}
    if correct:  # a run that failed a check reports no figures
        values = (
            per_layer_metrics(spec, *documents) if args.trace
            else end_to_end_metrics(spec, documents[0])
        )
    units = {entry["name"]: entry["unit"]
             for entry in spec["end_to_end"] + spec["per_layer"]}
    print("provenance: " + json.dumps(provenance(args, documents)))
    print(json.dumps({
        "correct": correct,
        "attempted": sum(document["attempted"] for document in documents),
        "failed": sum(document["failed"] for document in documents),
        "metrics": {
            name: {"value": finite(value), "unit": units[name]}
            for name, value in values.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
