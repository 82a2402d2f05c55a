#!/usr/bin/env python3
"""Steadiness record of the benchmark.

Runs the command of BENCHMARK.json several times per workload, each run
with another --seed, workloads interleaved round-robin, and records for
every end-to-end metric its values, median, quartiles and spread (the
interquartile range as a share of the median, with the quartiles of
Python's statistics.quantiles(values, n=4)).

    python3 perfbench/steadiness.py run --label a [--runs 10]
        writes perfbench/steadiness/a.json
    python3 perfbench/steadiness.py run --label t1 --runs 1 --trace 1
        records one traced run per workload (phase shares, counts)
    python3 perfbench/steadiness.py report a b [--trace t1 t2]
        compares two occasions (and two traced ones) and writes
        perfbench/STEADINESS.md

Run it from the root of the repository.
"""

import argparse
import json
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
RECORDS = HERE / "steadiness"


def load_benchmark():
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run_once(bench, workload, seed, trace):
    cmd = bench["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]),
        "--trace", str(trace),
    ]
    start = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    wall = time.monotonic() - start
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: incorrect result {result}")
    return result, wall


def summarize(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    spread = (q3 - q1) / med if med else 0.0
    return {"values": values, "median": med, "q1": q1, "q3": q3, "spread": spread}


def cmd_run(args):
    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    catalogue = bench["per_layer" if args.trace else "end_to_end"]
    raw = {w: {m["name"]: [] for m in catalogue} for w in names}
    walls = {w: [] for w in names}
    tallies = {w: [0, 0] for w in names}
    for i in range(args.runs):
        for w in names:
            result, wall = run_once(bench, w, args.seed_base + i, args.trace)
            walls[w].append(wall)
            tallies[w][0] += result["attempted"]
            tallies[w][1] += result["failed"]
            for name, metric in result["metrics"].items():
                raw[w][name].append(metric["value"])
            print(f"run {i} {w}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
                if not args.trace), flush=True)
    record = {
        "label": args.label,
        "date": time.strftime("%Y-%m-%d %H:%M:%S UTC", time.gmtime()),
        "host": f"{platform.machine()}, {platform.system()} {platform.release()}",
        "run_seconds": bench["run_seconds"],
        "runs": args.runs,
        "seeds": [args.seed_base + i for i in range(args.runs)],
        "trace": args.trace,
        "workloads": {
            w: {
                "attempted": tallies[w][0],
                "failed": tallies[w][1],
                "wall_s": summarize(walls[w]),
                "metrics": {m: summarize(v) for m, v in raw[w].items()},
            }
            for w in names
        },
    }
    RECORDS.mkdir(exist_ok=True)
    path = RECORDS / f"{args.label}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {path}")


def exact(x):
    """A deterministic figure as printed: integers in full, ratios to 10 digits."""
    return str(int(x)) if float(x).is_integer() else f"{x:.10g}"


def cmd_report(args):
    bench = load_benchmark()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    a, b = (json.loads((RECORDS / f"{x}.json").read_text()) for x in (args.first, args.second))
    lines = [
        "# Steadiness record",
        "",
        "Generated by `python3 perfbench/steadiness.py report "
        f"{args.first} {args.second}"
        + (f" --trace {' '.join(args.trace)}" if args.trace else "") + "`.",
        "",
        f"Two occasions of {a['runs']} and {b['runs']} runs per workload "
        f"(`--seconds {a['run_seconds']}`, seeds {a['seeds'][0]}..{a['seeds'][-1]} "
        f"and {b['seeds'][0]}..{b['seeds'][-1]}, workloads interleaved), "
        f"on {a['host']} (a VM with 2 shared cores):",
        f"- occasion `{a['label']}`: {a['date']}",
        f"- occasion `{b['label']}`: {b['date']}",
        "",
        "Spread is the interquartile range as a share of the median. Gap is",
        "the relative difference of the two medians. A metric is steady",
        "when its spread on each occasion stays below a third of its bound and",
        "the second median is not worse than the first by more than the bound;",
        "the pairs that miss this are listed after the table.",
        "",
        "| workload | metric | bound | median A | q1 A | q3 A | spread A "
        "| median B | q1 B | q3 B | spread B | gap |",
        "|---|---|---|---|---|---|---|---|---|---|---|---|",
    ]
    worst = {}
    misses = []
    for w, wa in a["workloads"].items():
        wb = b["workloads"][w]
        for m, sa in wa["metrics"].items():
            sb = wb["metrics"][m]
            gap = (sb["median"] - sa["median"]) / sa["median"]
            worst[m] = max(worst.get(m, 0.0), abs(gap))
            spread = max(sa["spread"], sb["spread"])
            if spread > bounds[m]:
                misses.append(f"- {w} `{m}`: spread {spread:.2%}, above its bound {bounds[m]:.0%}")
            elif spread > bounds[m] / 3:
                misses.append(f"- {w} `{m}`: spread {spread:.2%}, within its bound "
                              f"{bounds[m]:.0%} but above a third of it")
            if abs(gap) > bounds[m]:
                misses.append(f"- {w} `{m}`: gap {gap:+.2%}, beyond its bound {bounds[m]:.0%}")
            lines.append(
                f"| {w} | {m} | {bounds[m]} | {sa['median']:.6g} | {sa['q1']:.6g} "
                f"| {sa['q3']:.6g} | {sa['spread']:.2%} | {sb['median']:.6g} "
                f"| {sb['q1']:.6g} | {sb['q3']:.6g} | {sb['spread']:.2%} | {gap:+.2%} |"
            )
    lines += ["", "Largest gap between the two occasions' medians, per metric:", ""]
    lines += [f"- `{m}`: {g:.2%} (bound {bounds[m]:.0%})" for m, g in worst.items()]
    lines += ["", "Pairs that are not steady by the rule above (the larger spread of",
              "the two occasions):", ""] + (misses or ["- none"])
    lines += ["", "Failed operations: " + ", ".join(
        f"{w} {a['workloads'][w]['failed'] + b['workloads'][w]['failed']} of "
        f"{a['workloads'][w]['attempted'] + b['workloads'][w]['attempted']}"
        for w in a["workloads"]) + "."]
    if args.trace:
        t, u = (json.loads((RECORDS / f"{x}.json").read_text()) for x in args.trace)
        shares = ["lis-sim.settle_share", "lis-sim.tick_share", "lis-sim.jump_share",
                  "lis-sim.span_coverage", "trace_overhead"]
        lines += [
            "",
            f"## Traced runs (occasions `{t['label']}`, {t['date']}, and "
            f"`{u['label']}`, {u['date']}; seed {t['seeds'][0]} both times)",
            "",
            "Phase shares of the traced run phase and the tracing overhead, "
            f"from `{t['label']}`:",
            "",
            "| workload | run.phase_s | settle | tick | jump | settle+tick+jump | trace_overhead |",
            "|---|---|---|---|---|---|---|",
        ]
        for w, wt in t["workloads"].items():
            v = {m: wt["metrics"][m]["median"] for m in ["run.phase_s"] + shares}
            lines.append(
                f"| {w} | {v['run.phase_s']:.4g} s | {v[shares[0]]:.2%} | {v[shares[1]]:.2%} "
                f"| {v[shares[2]]:.3%} | {v[shares[3]]:.2%} | {v[shares[4]]:+.2%} |"
            )
        deterministic = [m["name"] for m in bench["per_layer"]
                         if m["unit"] in ("count", "cycles", "hash52", "tok/kcyc")
                         or m["name"].endswith("_ratio") or m["name"] == "lis-topo.peak_offer_use"]
        lines += [
            "",
            "Deterministic per-layer figures of both traced runs (each run also",
            "checks them equal between its traced and untraced repetitions):",
            "",
            "| metric | " + " | ".join(t["workloads"]) + " | equal in both runs |",
            "|---|" + "---|" * len(t["workloads"]) + "---|",
        ]
        for m in deterministic:
            vals = [t["workloads"][w]["metrics"][m]["values"] for w in t["workloads"]]
            same = all(t["workloads"][w]["metrics"][m]["values"]
                       == u["workloads"][w]["metrics"][m]["values"] for w in t["workloads"])
            lines.append(f"| `{m}` | " + " | ".join(exact(v[0]) for v in vals)
                         + f" | {'yes' if same else 'NO'} |")
    out = HERE / "STEADINESS.md"
    out.write_text("\n".join(lines) + "\n")
    print(f"wrote {out}")


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="cmd", required=True)
    run = sub.add_parser("run", help="run the benchmark and record an occasion")
    run.add_argument("--label", required=True)
    run.add_argument("--runs", type=int, default=10)
    run.add_argument("--seed-base", type=int, default=1)
    run.add_argument("--trace", type=int, choices=[0, 1], default=0)
    run.set_defaults(func=cmd_run)
    report = sub.add_parser("report", help="compare two recorded occasions")
    report.add_argument("first")
    report.add_argument("second")
    report.add_argument("--trace", nargs=2, metavar=("T1", "T2"),
                        help="labels of two traced occasions with the same seed")
    report.set_defaults(func=cmd_report)
    args = parser.parse_args()
    args.func(args)


if __name__ == "__main__":
    main()
