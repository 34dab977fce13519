#!/usr/bin/env python3
"""Build and run the reproduction benchmark for one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1> [--ga-seed <n>]

Run from the repository root.  The script configures and builds
perfbench/ (which compiles the library from src/) into the directory
named by CARGO_TARGET_DIR, default .bench_build; clears every GIPPR_*
variable so no runtime knob reaches the measurement; runs the driver;
and prints its report followed by one JSON line holding "correct",
"attempted", "failed" and the metrics BENCHMARK.json lists: its
end_to_end metrics with --trace 0, its per_layer metrics with --trace 1.

Every time and rate is reported at the reference host speed: the driver
measures host time and the speed of a fixed probe kernel (host.speed),
and this script scales each metric whose unit is "s" by that speed and
each whose unit ends in "/s" by its inverse.
"""

import argparse
import hashlib
import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("miss_sweep", "perf_sweep", "ga_search", "shared_llc")
# The driver's own exit deadline; the benchmark has to finish in 180 s.
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configure and build the driver (a no-op when current)."""
    jobs = str(len(os.sched_getaffinity(0)))
    subprocess.run(
        ["cmake", "-S", str(HERE), "-B", str(build_dir),
         "-DCMAKE_BUILD_TYPE=Release"],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", str(build_dir), "--target", "perfbench",
         "-j", jobs],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return build_dir / "perfbench"


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if res.returncode == 0:
            return "git:" + res.stdout.strip()
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return "sources-sha256:" + h.hexdigest()[:16]


def at_reference_speed(value, unit, speed):
    """A host-time figure as the reference host would have measured it."""
    if unit == "s":
        return value * speed
    if unit.endswith("/s"):
        return value / speed
    return value


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--ga-seed", type=int, default=12345,
                    help="GA RNG seed (ga_search); --seed varies the suite")
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        log(f"build failed: {err}")
        return 1

    env = {k: v for k, v in os.environ.items() if not k.startswith("GIPPR_")}
    seen = sorted(k for k in os.environ if k.startswith("GIPPR_"))
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    cmd = [str(binary), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--ga-seed", str(args.ga_seed),
           "--out", str(out_dir)]
    try:
        res = subprocess.run(cmd, env=env, capture_output=True, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"driver exceeded {RUN_TIMEOUT_S} s")
        return 1
    sys.stderr.write(res.stderr)
    if res.returncode != 0:
        log(f"driver exited with {res.returncode}")
        return 1
    lines = res.stdout.splitlines()
    report = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)
    print("fingerprint-host " + json.dumps({
        "source": source_id(),
        "gippr_env_cleared": seen,
    }))

    # Units come from BENCHMARK.json alone; the driver prints values.
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    produced = report["metrics"]
    unknown = sorted(set(produced) - set(units))
    if unknown:
        log(f"metrics missing from BENCHMARK.json: {', '.join(unknown)}")
        return 1
    speed = produced["host.speed"]
    scaled = {name: at_reference_speed(value, units[name], speed)
              for name, value in produced.items()}
    for name, value in sorted(produced.items()):
        print(f"metric {name:<36} {scaled[name]:14.6g} {units[name]:<10} "
              f"(host {value:.6g})")
    # A layer this workload does not run did no work.
    metrics = {m["name"]: {"value": scaled.get(m["name"], 0.0),
                           "unit": m["unit"]}
               for m in wanted}

    print(json.dumps({
        "correct": bool(report["correct"]) and report["failed"] == 0,
        "attempted": int(report["attempted"]),
        "failed": int(report["failed"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
