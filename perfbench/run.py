#!/usr/bin/env python3
"""Repository benchmark: builds perfbench from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. The first run configures and builds the
library and the perfbench binary under $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench); later runs only rebuild what changed. Each run
gets a fresh temporary directory there for its database files and removes
it on exit. With --trace 1 the span list of the run is kept in
.../perfbench/traces/<workload>-seed<N>.jsonl.

Prints the binary's report (environment, correctness checks, every metric
by name with its unit), then as its last line one JSON object holding the
metrics BENCHMARK.json lists for the mode: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. Exits non-zero, without
that line, when the build, the set-up or a correctness check fails.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build_root():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(out_dir):
    """Configures (once) and builds the binary; returns its path."""
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        cache = out_dir / "CMakeCache.txt"
        if cache.exists() and f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}\n" not in (
            cache.read_text()
        ):
            log("discarding a build configured for another source tree")
            for child in out_dir.iterdir():
                if child.name != "build.lock":
                    shutil.rmtree(child) if child.is_dir() else child.unlink()
        jobs = str(min(4, os.cpu_count() or 1))
        steps = []
        if not cache.exists():
            steps.append(["cmake", "-S", str(HERE), "-B", str(out_dir),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(out_dir), "--target", "perfbench",
                      "-j", jobs])
        for cmd in steps:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True,
                                  timeout=BUILD_TIMEOUT_S)
            if proc.returncode != 0:
                sys.stderr.write(proc.stdout)
                raise RuntimeError(f"build step failed: {' '.join(cmd)}")
    return out_dir / "perfbench"


def run_binary(cmd):
    """Runs the binary, always reaping it; returns (returncode, stdout)."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PBITREE_")}
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    return proc.returncode, out


def select_metrics(result, wanted, fill_missing):
    """The metrics BENCHMARK.json lists, in its order, with its units.

    A metric the binary did not report is an error, except with
    fill_missing (the per-layer metrics), where it is a layer the workload
    does not exercise: reported as 0 and listed in the returned notes.
    """
    got = result["metrics"]
    out = {}
    notes = []
    for m in wanted:
        entry = got.get(m["name"])
        if entry is None:
            if not fill_missing:
                raise RuntimeError(f"perfbench did not report {m['name']}")
            entry = {"value": 0, "unit": m["unit"]}
            notes.append(f"metric {m['name']:<32} {0:16.6f} {m['unit']:<12} "
                         "not exercised")
        if entry["unit"] != m["unit"]:
            raise RuntimeError(f"{m['name']} reported in {entry['unit']}, "
                               f"BENCHMARK.json says {m['unit']}")
        out[m["name"]] = {"value": entry["value"], "unit": m["unit"]}
    return out, notes


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        log(f"unknown workload {args.workload}")
        return 2
    if not (ROOT / "src" / "CMakeLists.txt").exists():
        log("the library sources (src/) are missing; nothing to build")
        return 2

    out_dir = build_root()
    try:
        binary = build(out_dir)
    except (RuntimeError, subprocess.TimeoutExpired, OSError) as e:
        log(str(e))
        return 2

    with tempfile.TemporaryDirectory(dir=out_dir, prefix="run-") as work:
        cmd = [str(binary), "--workload", args.workload, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace",
               str(args.trace), "--workdir", work]
        if args.trace:
            traces = out_dir / "traces"
            traces.mkdir(exist_ok=True)
            cmd += ["--trace-out",
                    str(traces / f"{args.workload}-seed{args.seed}.jsonl")]
        try:
            rc, out = run_binary(cmd)
        except subprocess.TimeoutExpired:
            log(f"perfbench exceeded {RUN_TIMEOUT_S} s")
            return 1

    lines = out.rstrip("\n").split("\n")
    if rc != 0:
        sys.stderr.write(out)
        log(f"perfbench exited with status {rc}")
        return rc
    try:
        result = json.loads(lines[-1])
        wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
        metrics, notes = select_metrics(result, wanted, bool(args.trace))
    except (ValueError, KeyError, RuntimeError) as e:
        sys.stderr.write(out)
        log(f"bad perfbench output: {e}")
        return 1
    if lines[:-1] or notes:
        print("\n".join(lines[:-1] + notes))
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
