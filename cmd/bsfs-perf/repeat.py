#!/usr/bin/env python3
"""Repeat record for bsfs-perf: how far the same code disagrees with itself.

Runs every workload N times with N different seeds, twice; the second
set starts after IDLE seconds of doing nothing (the sandbox backs guest
memory lazily, so the first process after an idle spell may be the slowest).
Prints, per workload and end-to-end metric, each set's median and
quartiles (statistics.quantiles(values, n=4), as the driver computes
them), the spread (Q3 - Q1) / median, and how much worse the second
median is than the first, next to the metric's bound in BENCHMARK.json. Two
readings of the host tell a disturbed set from a regression: the share of
CPU time the hypervisor stole while each run was going (from /proc/stat),
and the time a fixed pure-Python loop took just before each run (this VM's
host slows guests by a quarter or more for minutes without reporting any
steal). Neither corrects a number; a set whose probe moved is one to run
again. The output is markdown; REPEAT.md holds such records.

Run from the repository root:

    python3 cmd/bsfs-perf/repeat.py [-n 10] [--idle 30] [--seconds S] > cmd/bsfs-perf/REPEAT.md
"""
import argparse
import json
import statistics
import subprocess
import sys
import time


def cpu_jiffies():
    """(stolen, total) jiffies since boot; (0, 0) where /proc/stat is missing."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
    except OSError:
        return 0, 0
    return (fields[7] if len(fields) > 7 else 0), sum(fields[:8])


def probe():
    """Seconds a fixed piece of interpreter work takes: median of three."""
    took = []
    for _ in range(3):
        started = time.perf_counter()
        x = 0
        for i in range(3_000_000):
            x += i * i & 7
        took.append(time.perf_counter() - started)
    return statistics.median(took)


def run(command, workload, seed, seconds):
    argv = command + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    started = time.time()
    stolen0, total0 = cpu_jiffies()
    proc = subprocess.run(argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    stolen1, total1 = cpu_jiffies()
    if proc.returncode != 0:
        sys.exit(f"{' '.join(argv)}: exit code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{' '.join(argv)}: {result['failed']} of {result['attempted']} operations failed")
    steal = (stolen1 - stolen0) / max(total1 - total0, 1)
    return {name: m["value"] for name, m in result["metrics"].items()}, time.time() - started, steal


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("-n", type=int, default=10, help="runs per workload per set (default 10)")
    ap.add_argument("--idle", type=float, default=30, help="idle seconds before the second set (default 30)")
    ap.add_argument("--seconds", type=int, help="override run_seconds")
    ap.add_argument("--workload", action="append", help="only this workload (repeatable)")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    metrics = bench["end_to_end"]
    workloads = [w["name"] for w in bench["workloads"] if not args.workload or w["name"] in args.workload]

    sets = []
    for s in range(2):
        if s == 1:
            print(f"idling {args.idle:.0f}s before the second set", file=sys.stderr)
            time.sleep(args.idle)
        values = {w: {m["name"]: [] for m in metrics} for w in workloads}
        took = {w: [] for w in workloads}
        stolen = {w: [] for w in workloads}
        probes = {w: [] for w in workloads}
        for w in workloads:
            for i in range(args.n):
                seed = 1000 * (s + 1) + i
                probes[w].append(probe())
                got, elapsed, steal = run(bench["command"], w, seed, seconds)
                took[w].append(elapsed)
                stolen[w].append(steal)
                for m in metrics:
                    values[w][m["name"]].append(got[m["name"]])
                print(f"set {s + 1} {w} seed {seed}: {elapsed:.1f}s, steal {steal:.1%}, probe {probes[w][-1]:.3f}s",
                      file=sys.stderr)
        sets.append((values, took, stolen, probes))

    print(f"Two sets of {args.n} runs per workload, `--seconds {seconds}`, seeds 1000.. and 2000..;")
    print(f"the second set started after {args.idle:.0f} s idle. `spread` is (Q3 - Q1) / median;")
    print("`worse` is how far the second set's median is on the bad side of the first's.")
    print()
    print("| workload | metric | set 1 median [Q1, Q3] | spread | set 2 median [Q1, Q3] | spread | worse | bound |")
    print("|---|---|---|---|---|---|---|---|")
    worst = 0.0
    for w in workloads:
        for m in metrics:
            cells = []
            medians = []
            for values, _, _, _ in sets:
                v = values[w][m["name"]]
                q1, q2, q3 = statistics.quantiles(v, n=4)
                medians.append(q2)
                cells.append(f"{q2:.4g} [{q1:.4g}, {q3:.4g}] | {(q3 - q1) / q2:.1%}")
                if m["name"] != "setup_s":
                    worst = max(worst, (q3 - q1) / q2 / m["bound"])
            change = (medians[1] - medians[0]) / medians[0]
            worse = change if m["better"] == "lower" else -change
            worst = max(worst, worse / m["bound"])
            print(f"| {w} | {m['name']} ({m['unit']}) | {cells[0]} | {cells[1]} | {worse:+.1%} | {m['bound']:.0%} |")
    print()
    for s, (_, took, stolen, probes) in enumerate(sets):
        per = ", ".join(f"{w} {statistics.median(t):.1f} s" for w, t in took.items())
        print(f"Set {s + 1} median wall time per run, build check included: {per}.")
        per = ", ".join(f"{w} {max(v):.1%}" for w, v in stolen.items())
        print(f"Set {s + 1} largest share of CPU time the hypervisor stole during a run: {per}.")
        per = ", ".join(f"{w} {statistics.median(v):.3f} s ({min(v):.3f} to {max(v):.3f})" for w, v in probes.items())
        print(f"Set {s + 1} host probe (a fixed interpreter loop timed before each run), median (range): {per}.")
    print()
    print(f"Largest spread or worsening as a share of its bound: {worst:.0%}.")


if __name__ == "__main__":
    main()
