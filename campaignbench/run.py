#!/usr/bin/env python3
"""Campaign benchmark: runs a named sweep workload and prints its metrics.

    python3 campaignbench/run.py --workload paper-grid --seed 12345 \
        --seconds 20 --trace 0

Run from the root of a checkout. The first run builds the repository's
library, churnet_sweep and the measuring program (campaign_bench) into
.bench_build/; results, CSVs and spans go to .bench_out/.

--trace 0 measures the end-to-end metrics with tracing off: set-up time
(median of several fresh processes), then whole campaigns through
SweepPlan -> SweepService::run -> SweepResult::write_csv for about
--seconds. --trace 1 gives the per-layer metrics from a traced replay of
every job. The metric names and units are those of BENCHMARK.json.

Outputs are checked every run: the CSV must match the pinned FNV-1a at the
default seed, churnet_sweep --config's CSV at the same seed, and every
earlier run of the same workload and seed in this checkout. A mismatch
fails every job of the run. The last stdout line is the result JSON.
"""
import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build"
OUT_DIR = ROOT / ".bench_out"
HARNESS = BUILD_DIR / "campaign_bench"
CHURNET_SWEEP = BUILD_DIR / "churnet" / "churnet_sweep"
DEFAULT_SEED = 12345
# Set-up is a few milliseconds, so it is measured in this many fresh
# processes and reported as their median.
SETUP_LAUNCHES = 9

# threads: the in-process pool width. csv_fnv: FNV-1a of the workload's CSV
# at DEFAULT_SEED, taken from churnet_sweep --config.
WORKLOADS = {
    "paper-grid": {"threads": 4, "csv_fnv": "beaacf9196692611"},
    "large-n": {"threads": 1, "csv_fnv": "0fd00c84895a6f82"},
    "resilience": {"threads": 1, "csv_fnv": "fffd83afcdac455a"},
}


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def fnv1a(data):
    h = 0xCBF29CE484222325
    for byte in data:
        h = ((h ^ byte) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return f"{h:016x}"


def run_checked(cmd, what, **kwargs):
    proc = subprocess.run([str(c) for c in cmd], capture_output=True,
                          text=True, check=False, **kwargs)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-4000:] + proc.stderr[-4000:])
        raise BenchError(f"{what} failed with exit code {proc.returncode}")
    return proc.stdout


def build():
    """Configures once, then lets the build tool skip what is up to date."""
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        run_checked(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"], "configure")
    jobs = min(4, os.cpu_count() or 1)
    run_checked(["cmake", "--build", BUILD_DIR, "-j", str(jobs)], "build")


def harness(*args):
    out = run_checked([HARNESS, *args], "campaign_bench")
    return json.loads(out.strip().splitlines()[-1])


def load_benchmark():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        return json.load(f)


def environment(build_info, spec):
    llc = None
    caches = Path("/sys/devices/system/cpu/cpu0/cache")
    levels = []
    for index in caches.glob("index*"):
        try:
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
            levels.append((level, size))
        except (OSError, ValueError):
            continue
    if levels:
        llc = max(levels)[1]
    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        sha = proc.stdout.strip() or None
    digest = hashlib.sha1()
    for path in sorted((ROOT / "src").rglob("*")) + [
            ROOT / "CMakeLists.txt", ROOT / "tools" / "churnet_sweep.cpp"]:
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "llc": llc,
        "compiler": build_info["compiler"],
        "git_sha": sha,
        "source_sha1": digest.hexdigest(),
        "spec": spec,
    }


def check_csv(spec_path, csv_path, pin):
    """Returns a list of failed checks (empty when the CSV is right)."""
    fnv = fnv1a(csv_path.read_bytes())
    problems = []
    if pin is not None and fnv != pin:
        problems.append(f"csv fnv {fnv} != pinned {pin}")
    record_path = OUT_DIR / "csv_fnv_record.json"
    record = {}
    if record_path.exists():
        record = json.loads(record_path.read_text())
    key = hashlib.sha1(spec_path.read_bytes()).hexdigest()
    if key in record:
        # Recorded only after matching churnet_sweep on this spec and seed.
        if record[key] != fnv:
            problems.append(f"csv fnv {fnv} != earlier run's {record[key]}")
        return problems
    # The CSV is byte-identical at any thread count, and this check is not
    # measured, so it takes up to three threads (three large-n jobs hold
    # about 1.2 GB) to keep runs short.
    reference = csv_path.with_suffix(".churnet_sweep.csv")
    run_checked([CHURNET_SWEEP, "--config", spec_path, "--threads",
                 str(min(3, os.cpu_count() or 1)), "--csv", reference,
                 "--quiet"], "churnet_sweep")
    if reference.read_bytes() != csv_path.read_bytes():
        problems.append("csv differs from churnet_sweep --config's")
    elif not problems:
        record[key] = fnv
        tmp = record_path.with_suffix(".tmp")
        tmp.write_text(json.dumps(record, indent=1, sort_keys=True))
        os.replace(tmp, record_path)
    return problems


def measure(workload, spec, seed, seconds, trace, threads, pin):
    """Runs one workload and returns the full result record. `pin` is the
    CSV's expected FNV-1a, or None when there is none for this seed."""
    OUT_DIR.mkdir(exist_ok=True)
    spec = dict(spec, seed=seed)
    stem = f"{workload}-seed{seed}"
    spec_path = OUT_DIR / f"{stem}.spec.json"
    spec_path.write_text(json.dumps(spec, indent=1))
    csv_path = OUT_DIR / f"{stem}-trace{trace}.csv"

    if trace:
        spans_path = OUT_DIR / f"{stem}.spans.ndjson"
        raw = harness("--mode", "trace", "--spec", spec_path, "--threads",
                      str(threads), "--csv", csv_path, "--spans", spans_path)
        attempted = raw["jobs"]
        failed = raw["rows_mismatched"]
        problems = []
        if failed:
            problems.append(f"{failed} replayed row(s) differ from run_job's")
        if not raw["csv_equal"]:
            problems.append("replayed CSV differs from the campaign's")
        values = raw["metrics"]
    else:
        setups = []
        for _ in range(SETUP_LAUNCHES):
            start = time.monotonic_ns()
            ready = harness("--mode", "setup", "--spec", spec_path)
            setups.append((ready["ready_ns"] - start) * 1e-9)
        raw = harness("--mode", "run", "--spec", spec_path, "--threads",
                      str(threads), "--seconds", str(seconds), "--csv",
                      csv_path)
        campaigns = raw["campaigns"]
        jobs = raw["jobs"]
        attempted = jobs * len(campaigns)
        failed = jobs * raw["csv_mismatches"]
        problems = []
        if failed:
            problems.append(f"{raw['csv_mismatches']} campaign CSV(s) "
                            "differ from the first")
        values = {
            "setup_s": statistics.median(setups),
            "jobs_per_s": statistics.median(jobs / c["wall_s"]
                                            for c in campaigns),
            "cpu_s_per_job": statistics.median(c["cpu_s"] / jobs
                                               for c in campaigns),
            "peak_rss_mb": raw["peak_rss_mb"],
        }
        raw["setup_s"] = setups
    csv_problems = check_csv(spec_path, csv_path, pin)
    if csv_problems:
        failed = attempted
    problems += csv_problems
    if not trace:
        values["ok_frac"] = 1.0 - failed / attempted

    benchmark = load_benchmark()
    section = benchmark["per_layer" if trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in section}
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "threads": threads,
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "problems": problems,
        "metrics": metrics,
        "env": environment(raw["build"], spec),
        "raw": raw,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not 0 <= args.seed <= 2**53:
        parser.error("--seed must be in [0, 2^53]")
    try:
        build()
        with open(BENCH_DIR / "workloads" / f"{args.workload}.json",
                  encoding="utf-8") as f:
            spec = json.load(f)
        workload = WORKLOADS[args.workload]
        pin = workload["csv_fnv"] if args.seed == DEFAULT_SEED else None
        result = measure(args.workload, spec, args.seed, args.seconds,
                         args.trace, workload["threads"], pin)
    except BenchError as error:
        print(f"campaignbench: {error}", file=sys.stderr)
        return 2
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(result, indent=1))
    for problem in result["problems"]:
        print(f"campaignbench: {problem}", file=sys.stderr)
    print(json.dumps({key: result[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
