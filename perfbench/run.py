"""The serving benchmark of record: builds the measuring program from
source, runs one workload, reduces its samples, checks the outputs and
prints every metric that BENCHMARK.json names.

    python3 perfbench/run.py --workload nas_replay --seed 1 --seconds 10 --trace 0

`--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
ones (from a traced run plus the layer ladder). `--workload all` runs
every workload in turn and names each metric `<workload>.<metric>`. The last line of
standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. The exit code is not 0, and no
result is printed, when the build fails, a correctness check fails, or
a metric BENCHMARK.json names is missing. `--mismatch` makes the
reference replay drop one event, to show that the gate catches it.
A full record of each run, with its provenance, is written under
`perfbench/out/`.
"""

import argparse
import glob
import hashlib
import json
import math
import os
import subprocess
import sys
import time

import stats

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
# A seed never used while the benchmark was tuned (see README.md).
HELDOUT_SEED = 8128
RUN_TIMEOUT_S = 170

METHOD = {
    "nas_replay": "closed loop, write-only, the four jobs side by side; ingest_eps the median rate of 40 sub-windows, each ended by a barrier; one set-up and one recovery timed between each two sub-windows; times and rates scaled by the host-speed gauge to the power 0.75; advise probed closed-loop after it",
    "tenant_serve": "open loop at a fixed offered rate for half the window, advise timed from each batch's due time; then a closed loop over the same mix, whose median sub-window rate is ingest_eps, with a set-up between each two sub-windows and a recovery between every second pair; times and rates scaled by the host-speed gauge to the power 0.75; worker threads pinned one per CPU",
    "durable_ensemble": "closed loop with WAL and checkpoints; ingest_eps the median rate of 40 sub-windows, window closed by sync_wal; one set-up and one recover on a copy of the log directory timed between each two sub-windows; times and rates scaled by the host-speed gauge to the power 0.75",
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def fail(msg):
    log(f"perfbench: {msg}")
    sys.exit(1)


def command(args):
    try:
        return subprocess.run(args, capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def build():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join(HERE, "Cargo.toml")
    res = subprocess.run(
        ["cargo", "build", "--offline", "--release", "--quiet", "--manifest-path", manifest],
        env=env,
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if res.returncode != 0:
        fail(f"build failed with exit code {res.returncode}")
    return os.path.join(target, "release", "perfbench")


def source_digest():
    """SHA-256 over the sources the program is built from, so a result
    names its code even outside a git checkout."""
    h = hashlib.sha256()
    patterns = ["Cargo.toml", "Cargo.lock", "crates/*/Cargo.toml", "crates/*/src/**/*.rs"]
    patterns += ["vendor/*/Cargo.toml", "vendor/*/src/**/*.rs", "perfbench/Cargo.toml", "perfbench/src/*.rs"]
    files = [f for pat in patterns for f in glob.glob(pat, root_dir=ROOT, recursive=True)]
    for rel in sorted(files):
        path = os.path.join(ROOT, rel)
        if os.path.isfile(path):
            h.update(rel.encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def provenance(workload, args, gen_s):
    return {
        "workload": workload,
        "seed": args.seed,
        "heldout_seed": args.seed == HELDOUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "method": METHOD[workload],
        "nproc": len(os.sched_getaffinity(0)),
        "rustc": command(["rustc", "--version"]),
        "git_commit": command(["git", "-C", ROOT, "rev-parse", "HEAD"]),
        "source_sha256": source_digest(),
        "workload_gen_s": gen_s,
        "started_unix": time.time(),
    }


def run_workload(exe, workload, args, wanted):
    """Runs one workload and returns `(attempted, failed, metrics)`,
    the metrics being those `wanted` names; exits on any failure."""
    cmd = [
        exe,
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--out-dir", OUT,
    ] + (["--mismatch"] if args.mismatch else [])
    try:
        res = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: the run did not finish within {RUN_TIMEOUT_S} s")
    sys.stderr.write(res.stderr)
    lines = res.stdout.strip().splitlines()
    if not lines:
        fail(f"{workload}: the program printed nothing (exit code {res.returncode})")
    raw = json.loads(lines[-1])

    bad = [c for c in raw["checks"] if not c["ok"]]
    for c in raw["checks"]:
        print(f"# {workload} check {c['name']}: {'ok' if c['ok'] else 'FAILED'} ({c['detail']})")
    if bad or res.returncode != 0:
        fail(f"{workload}: {len(bad)} correctness check(s) failed (exit code {res.returncode})")

    values, tails = {}, {}
    for m in raw["metrics"]:
        if "samples" in m:
            try:
                v = stats.reduce(m["stat"], m["samples"], m["windows"])
            except ValueError as e:
                fail(f"{workload}: {m['name']}: {e}")
            tails[m["name"]] = {
                "stat": m["stat"],
                "windows": m["windows"],
                "samples": len(m["samples"]),
                "tail": stats.tail_percentile(m["samples"]),
            }
        else:
            v = m["value"]
        values[m["name"]] = {"value": v, "unit": m["unit"]}

    # Completeness gate: every metric BENCHMARK.json names must be
    # present, finite and in its declared unit.
    metrics = {}
    for w in wanted:
        got = values.get(w["name"])
        if got is None:
            fail(f"{workload}: metric {w['name']} is missing from the output")
        if got["unit"] != w["unit"]:
            fail(f"{workload}: metric {w['name']} is in {got['unit']}, BENCHMARK.json says {w['unit']}")
        if not isinstance(got["value"], (int, float)) or not math.isfinite(got["value"]):
            fail(f"{workload}: metric {w['name']} is not a finite number: {got['value']}")
        metrics[w["name"]] = got

    prov = provenance(workload, args, raw["gen_s"])
    record = {
        "provenance": prov,
        "checks": raw["checks"],
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": values,
        "samples": tails,
    }
    name = f"{workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w") as f:
        json.dump(record, f, indent=1)

    for k, v in prov.items():
        print(f"# {workload} {k}: {v}")
    for k, v in values.items():
        tail = tails.get(k)
        extra = f"  ({tail['stat']} of {tail['samples']} samples in {tail['windows']} runs)" if tail else ""
        print(f"{workload} {k} = {v['value']:.6g} {v['unit']}{extra}")
    return raw["attempted"], raw["failed"], metrics


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(METHOD) + ["all"])
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--mismatch", action="store_true")
    args = p.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    workloads = [w["name"] for w in spec["workloads"]] if args.workload == "all" else [args.workload]

    exe = build()
    os.makedirs(OUT, exist_ok=True)
    attempted, failed, metrics = 0, 0, {}
    for workload in workloads:
        a, f, m = run_workload(exe, workload, args, wanted)
        attempted, failed = attempted + a, failed + f
        if args.workload == "all":
            m = {f"{workload}.{k}": v for k, v in m.items()}
        metrics.update(m)
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
