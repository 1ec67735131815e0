#!/usr/bin/env python3
"""Repository benchmark: build perfbench from source and run workloads.

Run from the repository root:

    python3 perfbench/run.py --workload swin-b1 --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one table
    python3 perfbench/run.py --workload serve-mix --runs 10   # steadiness report
    python3 perfbench/run.py --test                    # the harness tests

A single run prints the program's `meta` line and, as the last line of
standard output, one JSON object {correct, attempted, failed, metrics}:
the end-to-end metrics of BENCHMARK.json with --trace 0, its per-layer
metrics with --trace 1 (a per-layer metric the workload does not
exercise reads 0).  Traced runs also write a Chrome trace-event file
under <build dir>/traces/.  The build directory is $CARGO_TARGET_DIR,
else .bench_build; everything the benchmark writes stays under it.
"""
import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


class BenchError(Exception):
    pass


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build_root():
    d = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return d if d.is_absolute() else ROOT / d


def source_id():
    """Digest of the sources the benchmark builds (the checkout it runs
    in need not be a git repository)."""
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for top in ("src", "perfbench"):
        files += sorted(p for p in (ROOT / top).rglob("*") if p.is_file()
                        and "__pycache__" not in p.parts)
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def build(bdir):
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError("no SmartMem sources next to perfbench/ "
                         "(need CMakeLists.txt and src/ at the root)")
    out = bdir / "perfbench"
    if not (out / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr,
                       timeout=BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(out), "-j", jobs], check=True,
                   stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    return out


def run_once(bin_dir, spec, workload, seed, seconds, trace, source):
    """One workload run in its own process; returns (meta, result)."""
    bdir = bin_dir.parent
    trace_file = bdir / "traces" / f"{workload}-seed{seed}.json"
    trace_file.parent.mkdir(parents=True, exist_ok=True)
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("SMARTMEM_")}
    cmd = [str(bin_dir / "perfbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0",
           "--work-dir", str(bdir / "perfbench-work"),
           "--trace-file", str(trace_file), "--source", source]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload}: perfbench exited {proc.returncode}")
    meta = [ln for ln in lines[:-1] if ln.startswith("meta ")]
    raw = json.loads(lines[-1])
    values = raw["values"]
    wanted = spec["per_layer" if trace else "end_to_end"]
    names = {m["name"] for m in wanted}
    unknown = sorted(set(values) - names)
    if unknown:
        raise BenchError(f"{workload}: metrics not in BENCHMARK.json: "
                         f"{unknown}")
    metrics = {}
    for m in wanted:
        if m["name"] not in values and not trace:
            raise BenchError(f"{workload}: missing metric {m['name']}")
        metrics[m["name"]] = {"value": float(values.get(m["name"], 0.0)),
                              "unit": m["unit"]}
    if trace:
        print(f"trace written to {trace_file}", file=sys.stderr)
    return meta, {"correct": raw["correct"], "attempted": raw["attempted"],
                  "failed": raw["failed"], "metrics": metrics}


def steadiness(bin_dir, spec, workloads, runs, seed, seconds, trace,
               source):
    """Repeated runs, one seed each: per metric median, quartiles and
    spreads (IQR and max-min, as shares of the median)."""
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    report = {}
    for w in workloads:
        samples = {}
        for i in range(runs):
            _, res = run_once(bin_dir, spec, w, seed + i, seconds, trace,
                              source)
            if not res["correct"]:
                raise BenchError(f"{w}: seed {seed + i} failed "
                                 f"{res['failed']}/{res['attempted']}")
            for name, m in res["metrics"].items():
                samples.setdefault(name, []).append(m["value"])
        print(f"\n{w}: {runs} runs, seeds {seed}..{seed + runs - 1}")
        print(f"{'metric':<30}{'median':>12}{'q1':>12}{'q3':>12}"
              f"{'iqr%':>8}{'min':>12}{'max':>12}{'range%':>8}  bound%")
        rows = {}
        for name, vals in samples.items():
            med = statistics.median(vals)
            q1, _, q3 = (statistics.quantiles(vals, n=4) if len(vals) > 1
                         else (vals[0], 0, vals[0]))
            iqr = (q3 - q1) / med * 100 if med else 0.0
            rng = (max(vals) - min(vals)) / med * 100 if med else 0.0
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and iqr > bound * 100 / 3:
                flag = "  <-- above bound/3"
            print(f"{name:<30}{med:>12.4g}{q1:>12.4g}{q3:>12.4g}{iqr:>8.2f}"
                  f"{min(vals):>12.4g}{max(vals):>12.4g}{rng:>8.2f}  "
                  f"{'' if bound is None else bound * 100:}{flag}")
            rows[name] = {"median": med, "q1": q1, "q3": q3, "iqr_pct": iqr,
                          "min": min(vals), "max": max(vals),
                          "range_pct": rng, "values": vals}
        report[w] = rows
    return report


def main():
    try:
        spec = load_spec()
    except (OSError, json.JSONDecodeError) as e:
        print(f"perfbench: cannot read BENCHMARK.json: {e}", file=sys.stderr)
        return 2
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=names + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--runs", type=int, default=0,
                    help="steadiness report over this many seeds")
    ap.add_argument("--report-json", help="write the steadiness report here")
    ap.add_argument("--test", action="store_true",
                    help="build and run the harness tests")
    args = ap.parse_args()
    if not args.test and not args.workload:
        ap.error("--workload is required")

    try:
        bin_dir = build(build_root())
        if args.test:
            return subprocess.run([str(bin_dir / "perfbench_test")],
                                  timeout=RUN_TIMEOUT_S).returncode
        source = source_id()
        workloads = names if args.workload == "all" else [args.workload]
        if args.runs > 0:
            report = steadiness(bin_dir, spec, workloads, args.runs,
                                args.seed, args.seconds, args.trace, source)
            if args.report_json:
                with open(args.report_json, "w") as f:
                    json.dump(report, f, indent=1)
            return 0
        if args.workload != "all":
            meta, res = run_once(bin_dir, spec, args.workload, args.seed,
                                 args.seconds, args.trace, source)
            print("\n".join(meta))
            print(json.dumps(res))
            return 0
        summary = {}
        for w in workloads:
            meta, res = run_once(bin_dir, spec, w, args.seed, args.seconds,
                                 args.trace, source)
            print("\n".join(meta))
            print(f"{w}: attempted {res['attempted']}, failed "
                  f"{res['failed']}, correct {res['correct']}")
            for name, m in res["metrics"].items():
                print(f"  {name:<30}{m['value']:>14.6g} {m['unit']}")
            summary[w] = res
        print(json.dumps(summary))
        return 0 if all(r["correct"] for r in summary.values()) else 1
    except (BenchError, subprocess.SubprocessError, OSError,
            json.JSONDecodeError, KeyError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
