#!/usr/bin/env python3
"""Checks one checked-in pin byte for byte. ctest's `pin` label runs it.

    check_pin.py campaign <workload> --sweep <churnet_sweep> --out <dir>
                 [--also-threads N]
    check_pin.py same <name> --sweep <churnet_sweep> --out <dir>
                 --args "<shared args>" --variant="<args>" --variant=...
                 [--json] [--trace]
    check_pin.py fnv <name> --sweep <churnet_sweep> --out <dir>
                 --args "<args>" --expect <16 hex digits>
    check_pin.py resume <name> --sweep <churnet_sweep> --out <dir>
                 --args "<args>" --kill-after K [--resume-args "<args>"]
    check_pin.py bench --suite <bench_perf_suite> --golden <golden.json>
                 --out <BENCH_core.json>
    check_pin.py perf-gate --golden <golden.json> --out <dir>

campaign: runs churnet_sweep --config campaignbench/workloads/<workload>.json
at the workload's thread count and compares the CSV's FNV-1a with its pin.
Thread counts, pins and the hash come from WORKLOADS and fnv1a in
campaignbench/run.py, imported, never copied. --also-threads N reruns the
workload at N threads and requires the same CSV bytes.

same: runs churnet_sweep once per --variant, on the shared --args plus the
variant's own, and requires every CSV to be byte-identical to the first
variant's. Arguments are split like a shell would split them. --json
compares the --json summaries the same way. --trace makes every variant
after the first also stream --results rows and a --telemetry trace into
<out>; each trace must pass tools/telemetry_report.py --check and fold
into its report.

fnv: runs churnet_sweep once on --args and compares the CSV's FNV-1a with
--expect, a value recorded from a known-good build. fnv1a comes from
campaignbench/run.py, as for campaign.

resume: runs churnet_sweep on --args three times. First uninterrupted,
with --csv and --json. Then with --checkpoint <dir>/<name>_checkpoint (made
afresh) and --kill-after K: the run must die by SIGKILL and leave a
non-empty journal.ndjson. Then with --resume and --resume-args: its CSV and
JSON must be byte-identical to the uninterrupted run's.

bench: runs bench_perf_suite --quick --out <out>, then diff_bench_golden.py
<golden> <out>. The deterministic fields must match exactly; perf rates are
compared warn-only, since ctest runs tests side by side.

perf-gate: checks that diff_bench_golden.py --perf-fail 0.9 can fail, on
doctored copies of <golden> written to <dir> and no suite run: the copy
unchanged must pass, and a copy with one "*_per_sec" rate scaled by 0.01,
or with one deterministic field changed, must fail.

Exit 0 when the pin holds, 1 otherwise.
"""
import argparse
import copy
import json
import shlex
import shutil
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_sweep(sweep, args, csv):
    subprocess.run([sweep, *args, "--csv", str(csv), "--quiet"], check=True)
    return csv.read_bytes()


def run_outputs(sweep, args, stem):
    """Runs churnet_sweep with --csv <stem>.csv and --json <stem>.json;
    returns the two files' bytes."""
    csv, summary = Path(f"{stem}.csv"), Path(f"{stem}.json")
    subprocess.run([sweep, *args, "--csv", str(csv), "--json", str(summary),
                    "--quiet"], check=True)
    return csv.read_bytes(), summary.read_bytes()


def run_workload(sweep, workload, threads, csv):
    config = ROOT / "campaignbench" / "workloads" / f"{workload}.json"
    return run_sweep(sweep, ["--config", str(config), "--threads",
                             str(threads)], csv)


def import_campaignbench():
    # No bytecode: importing must leave campaignbench/ as it is.
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(ROOT / "campaignbench"))
    import run
    return run


def check_campaign(args):
    bench = import_campaignbench()
    pin = bench.WORKLOADS[args.workload]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    data = run_workload(args.sweep, args.workload, pin["threads"],
                        out / f"{args.workload}.csv")
    got = bench.fnv1a(data)
    if got != pin["csv_fnv"]:
        print(f"{args.workload}: CSV FNV-1a {got}, pinned {pin['csv_fnv']}",
              file=sys.stderr)
        return 1
    print(f"{args.workload}: CSV FNV-1a {got} matches the pin")
    if args.also_threads is not None:
        again = run_workload(args.sweep, args.workload, args.also_threads,
                             out / f"{args.workload}_t{args.also_threads}.csv")
        if again != data:
            print(f"{args.workload}: CSV at --threads {args.also_threads} "
                  f"differs from --threads {pin['threads']}",
                  file=sys.stderr)
            return 1
        print(f"{args.workload}: identical at --threads {args.also_threads}")
    return 0


def check_trace(trace):
    """telemetry_report.py --check on `trace`, then its report; returns
    whether both exit 0."""
    report = str(ROOT / "tools" / "telemetry_report.py")
    for mode in (["--check"], []):
        got = subprocess.run([sys.executable, report, *mode, str(trace)],
                             capture_output=True, text=True, check=False)
        if got.returncode != 0:
            sys.stderr.write(got.stdout[-2000:] + got.stderr[-2000:])
            print(f"{trace}: telemetry_report.py {' '.join(mode)} exited "
                  f"{got.returncode}", file=sys.stderr)
            return False
    return True


def check_same(args):
    if len(args.variant) < 2:
        print(f"{args.name}: needs at least two --variant", file=sys.stderr)
        return 1
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    shared = shlex.split(args.args)
    first = None
    for i, variant in enumerate(args.variant):
        stem = out / f"{args.name}_{i}"
        extra = []
        if args.json:
            extra += ["--json", f"{stem}.json"]
        trace = Path(f"{stem}.trace.ndjson") if args.trace and i > 0 else None
        if trace is not None:
            extra += ["--results", f"{stem}.rows.ndjson", "--telemetry",
                      str(trace)]
        outputs = {"CSV": run_sweep(args.sweep,
                                    shared + shlex.split(variant) + extra,
                                    Path(f"{stem}.csv"))}
        if args.json:
            outputs["JSON"] = Path(f"{stem}.json").read_bytes()
        if first is None:
            first = outputs
        for what, data in outputs.items():
            if data != first[what]:
                print(f"{args.name}: {what} with '{variant}' differs from "
                      f"'{args.variant[0]}'", file=sys.stderr)
                return 1
        if trace is not None and not check_trace(trace):
            return 1
    compared = "CSV and JSON" if args.json else "CSV"
    traced = ", traces valid" if args.trace else ""
    print(f"{args.name}: {len(args.variant)} variants' {compared} "
          f"byte-identical{traced}")
    return 0


def check_fnv(args):
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    data = run_sweep(args.sweep, shlex.split(args.args),
                     out / f"{args.name}.csv")
    got = import_campaignbench().fnv1a(data)
    if got != args.expect:
        print(f"{args.name}: CSV FNV-1a {got}, pinned {args.expect}",
              file=sys.stderr)
        return 1
    print(f"{args.name}: CSV FNV-1a {got} matches the pin")
    return 0


def check_resume(args):
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    shared = shlex.split(args.args)
    whole = run_outputs(args.sweep, shared, out / args.name)

    checkpoint = out / f"{args.name}_checkpoint"
    shutil.rmtree(checkpoint, ignore_errors=True)
    killed = subprocess.run(
        [args.sweep, *shared, "--checkpoint", str(checkpoint), "--kill-after",
         str(args.kill_after), "--quiet"], check=False)
    if killed.returncode != -signal.SIGKILL:
        print(f"{args.name}: --kill-after {args.kill_after} exited "
              f"{killed.returncode}, not by SIGKILL", file=sys.stderr)
        return 1
    journal = checkpoint / "journal.ndjson"
    if not journal.is_file() or journal.stat().st_size == 0:
        print(f"{args.name}: the killed run left no journal at {journal}",
              file=sys.stderr)
        return 1

    resumed = run_outputs(
        args.sweep,
        shared + ["--checkpoint", str(checkpoint), "--resume",
                  *shlex.split(args.resume_args)],
        out / f"{args.name}_resumed")
    for what, want, got in zip(("CSV", "JSON"), whole, resumed):
        if got != want:
            print(f"{args.name}: resumed {what} differs from the "
                  f"uninterrupted run's", file=sys.stderr)
            return 1
    print(f"{args.name}: killed after {args.kill_after} jobs, resumed CSV "
          f"and JSON byte-identical")
    return 0


def check_bench(args):
    subprocess.run([args.suite, "--quick", "--out", args.out], check=True)
    return subprocess.run([sys.executable,
                           str(ROOT / "tools" / "diff_bench_golden.py"),
                           args.golden, args.out], check=False).returncode


def first_object_under(node, wanted):
    """The first non-empty object under a key named `wanted`, depth first."""
    if isinstance(node, dict):
        for key, value in node.items():
            if key == wanted and isinstance(value, dict) and value:
                return value
            found = first_object_under(value, wanted)
            if found is not None:
                return found
    return None


def check_perf_gate(args):
    golden = json.loads(Path(args.golden).read_text())
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    slowed = copy.deepcopy(golden)
    perf = first_object_under(slowed, "perf")
    rate = next(k for k in perf if k.endswith("_per_sec"))
    perf[rate] *= 0.01
    drifted = copy.deepcopy(golden)
    fields = first_object_under(drifted, "deterministic")
    field = next(iter(fields))
    fields[field] = f"{fields[field]}-drifted"

    cases = [("unchanged", golden, 0),
             (f"perf {rate} x 0.01", slowed, 1),
             (f"deterministic {field} changed", drifted, 1)]
    failed = 0
    for index, (what, doc, want) in enumerate(cases):
        path = out / f"perf_gate_{index}.json"
        path.write_text(json.dumps(doc))
        got = subprocess.run(
            [sys.executable, str(ROOT / "tools" / "diff_bench_golden.py"),
             "--perf-fail", "0.9", args.golden, str(path)],
            capture_output=True, check=False).returncode
        verdict = "ok" if got == want else "WRONG"
        print(f"perf-gate: {what}: exit {got}, want {want} ({verdict})")
        failed += got != want
    return 1 if failed else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    kinds = parser.add_subparsers(dest="kind", required=True)
    campaign = kinds.add_parser("campaign")
    campaign.add_argument("workload")
    campaign.add_argument("--sweep", required=True)
    campaign.add_argument("--out", required=True)
    campaign.add_argument("--also-threads", type=int)
    same = kinds.add_parser("same")
    same.add_argument("name")
    same.add_argument("--sweep", required=True)
    same.add_argument("--out", required=True)
    same.add_argument("--args", required=True)
    same.add_argument("--variant", action="append", required=True)
    same.add_argument("--json", action="store_true")
    same.add_argument("--trace", action="store_true")
    fnv = kinds.add_parser("fnv")
    fnv.add_argument("name")
    fnv.add_argument("--sweep", required=True)
    fnv.add_argument("--out", required=True)
    fnv.add_argument("--args", required=True)
    fnv.add_argument("--expect", required=True)
    resume = kinds.add_parser("resume")
    resume.add_argument("name")
    resume.add_argument("--sweep", required=True)
    resume.add_argument("--out", required=True)
    resume.add_argument("--args", required=True)
    resume.add_argument("--kill-after", type=int, required=True)
    resume.add_argument("--resume-args", default="")
    bench = kinds.add_parser("bench")
    bench.add_argument("--suite", required=True)
    bench.add_argument("--golden", required=True)
    bench.add_argument("--out", required=True)
    perf_gate = kinds.add_parser("perf-gate")
    perf_gate.add_argument("--golden", required=True)
    perf_gate.add_argument("--out", required=True)
    args = parser.parse_args()
    checks = {"campaign": check_campaign, "same": check_same,
              "fnv": check_fnv, "resume": check_resume, "bench": check_bench,
              "perf-gate": check_perf_gate}
    try:
        return checks[args.kind](args)
    except subprocess.CalledProcessError as error:
        print(f"{error.cmd[0]} exited {error.returncode}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
