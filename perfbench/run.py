#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

One run:

    python3 perfbench/run.py --workload corpus-portfolio --seed 1 --seconds 30 --trace 0

builds the release `pathinv-cli` daemon and the `perfbench` binary (into
$CARGO_TARGET_DIR, default `.bench_build`), runs one workload, passes the
binary's report through, and ends with one JSON line holding `correct`,
`attempted`, `failed` and the metrics that BENCHMARK.json names: its
`end_to_end` metrics with `--trace 0`, its `per_layer` metrics with
`--trace 1`.  Run metadata (seed, nproc, input digest, source commit and
source digest, rustc, build profile, and the times of a fixed probe loop
taken through the run, which show how fast the host was) is printed on the
line before it.

`--workload all` runs every workload of BENCHMARK.json in turn and exits 1
if any run is not correct.

Steadiness mode:

    python3 perfbench/run.py --steady --workload serve-mixed --runs 5

runs one workload with seeds 1..N and prints, per end-to-end metric, the
median, the quartiles, and the quartile spread as a share of the median
against the metric's bound in BENCHMARK.json.  It exits 1 and names the
workload when some spread exceeds a third of its bound, so a workload that
cannot be made steady shows up before it is kept.

It exits non-zero without a result line when the repository sources are
missing or the build or the run fails.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def target_dir():
    configured = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, configured)


def build():
    """Builds the `perfbench` binary and the `pathinv-cli` daemon binary."""
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")) or not os.path.isdir(
        os.path.join(ROOT, "crates")
    ):
        fail("the repository sources (Cargo.toml, crates/) are not here")
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    # One workspace for both, so the daemon binary reuses the benchmark's
    # build of the crates (same code, same release profile).
    manifest = os.path.join("perfbench", "Cargo.toml")
    for extra in ([], ["-p", "pathinv-cli", "--bin", "pathinv-cli"]):
        cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
        done = subprocess.run(cmd + extra, cwd=ROOT, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            fail(f"build failed: {' '.join(cmd + extra)}")
    release = os.path.join(target_dir(), "release")
    return os.path.join(release, "perfbench"), os.path.join(release, "pathinv-cli")


def source_digest():
    """FNV-1a over the repository's Rust sources and manifests, in path order,
    so runs from checkouts without git history can still show they measured
    the same code."""
    paths = []
    for top in ("crates", "src"):
        for dirpath, _, files in os.walk(os.path.join(ROOT, top)):
            paths += [os.path.join(dirpath, f) for f in files if f.endswith((".rs", ".toml"))]
    paths.append(os.path.join(ROOT, "Cargo.toml"))
    digest = 0xCBF29CE484222325
    for path in sorted(paths):
        with open(path, "rb") as f:
            for byte in os.path.relpath(path, ROOT).encode() + f.read():
                digest = ((digest ^ byte) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return f"{digest:016x}"


def tool_version(cmd):
    try:
        return subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT).stdout.strip()
    except OSError:
        return ""


def run_once(bench, cli, workload, seed, seconds, trace):
    """Runs `perfbench` once; returns (report lines, result object)."""
    out_dir = os.path.join(target_dir(), "perfbench")
    os.makedirs(out_dir, exist_ok=True)
    # Relative paths keep the daemon's socket path short.
    cmd = [
        bench,
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
        "--cli", os.path.relpath(cli, ROOT),
        "--out-dir", os.path.relpath(out_dir, ROOT),
    ]
    # Its own process group, so a timeout also stops the daemon it started.
    proc = subprocess.Popen(
        cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        fail(f"{workload} exited with {proc.returncode}")
    try:
        return lines[:-1], json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"{workload} printed no result line")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def select(result, names):
    metrics = result["metrics"]
    missing = [n for n in names if n not in metrics]
    if missing:
        fail(f"the run did not measure {', '.join(missing)}")
    return {n: metrics[n] for n in names}


def steady(args, bench, cli, spec):
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values = {}
    for seed in range(1, args.runs + 1):
        _, result = run_once(bench, cli, args.workload, seed, args.seconds, 0)
        if not result["correct"]:
            fail(f"{args.workload} seed {seed} was not correct")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        probes = result["meta"].get("host_probe_ms", "")
        shown = " ".join(f"{n}={v[-1]:.4g}" for n, v in values.items())
        print(f"seed {seed}: {shown} host_probe_ms=[{probes}]", flush=True)
    unsteady = []
    print(f"{'metric':<18} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        # Metrics without a bound are printed for information.
        flag = ""
        if bound is not None and spread > bound / 3:
            flag = "  UNSTEADY"
            unsteady.append(name)
        shown = "-" if bound is None else bound
        print(f"{name:<18} {med:>12.4f} {q1:>12.4f} {q3:>12.4f} {spread:>8.3f} {shown:>6}{flag}")
    if unsteady:
        print(f"{args.workload}: cannot be made steady on {', '.join(unsteady)}")
        sys.exit(1)
    print(f"{args.workload}: steady")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steady", action="store_true", help="steadiness mode")
    parser.add_argument("--runs", type=int, default=5, help="runs in steadiness mode")
    args = parser.parse_args()

    spec = load_spec() if os.path.isfile(os.path.join(ROOT, "BENCHMARK.json")) else None
    bench, cli = build()
    if spec is None:
        fail("BENCHMARK.json is missing")
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.steady:
        steady(args, bench, cli, spec)
        return
    workloads = [w["name"] for w in spec["workloads"]] if args.workload == "all" else [args.workload]
    correct = True
    for workload in workloads:
        if len(workloads) > 1:
            print(f"== {workload}")
        correct &= report(bench, cli, spec, workload, args)
    if len(workloads) > 1 and not correct:
        sys.exit(1)


def report(bench, cli, spec, workload, args):
    """One run: the binary's report, the metadata line, the result line."""
    lines, result = run_once(bench, cli, workload, args.seed, args.seconds, args.trace)
    meta = dict(result["meta"])
    meta["commit"] = tool_version(["git", "rev-parse", "HEAD"]) or "none (not a git checkout)"
    meta["rustc"] = tool_version(["rustc", "--version"])
    meta["profile"] = "release"
    meta["source_digest"] = source_digest()
    for line in lines:
        print(line)
    print("meta " + json.dumps(meta, sort_keys=True))
    names = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    out = {
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": select(result, names),
    }
    print(json.dumps(out), flush=True)
    return out["correct"]

if __name__ == "__main__":
    main()
