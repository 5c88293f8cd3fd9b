#!/usr/bin/env python3
"""Steadiness report for the fleet benchmark.

Runs the benchmark command from BENCHMARK.json on seeds 1..RUNS for
every workload, twice: two sets of runs, interleaved seed by seed
(set 1 seed 1, set 2 seed 1, set 1 seed 2, ...). For every end-to-end
metric it reports each set's median, quartiles (as
``statistics.quantiles(n=4)`` gives them) and interquartile range as a
share of the median, next to the metric's bound, and how much worse
set 2's median is than set 1's. The verdict holds if every spread,
``setup_s`` included, and every set-to-set difference is within the
metric's bound. The host probe (``host.mem_ref_ms``, a fixed
random-read loop run at the start and end of every run) is shown
beside each set, so a slow set of runs can be told from a slow commit.

Seed robustness: ``regret`` and ``msgs_per_node_round`` are compared
between seeds 1 and 2 against their own bounds. The suite reads them
from E15 at one fixed seed, so for it E15 is also run alone at seeds
1..RUNS (``--e15-seeds``), which shows how far a change of E15's
trajectories could move them.

Run from the repository root:

    python3 fleetbench/steadiness.py                  # 2 x 10 runs x every workload
    python3 fleetbench/steadiness.py --runs 5 --workload suite-quick

The report is printed and written to fleetbench/out/.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, "fleetbench", "out")
SETS = 2


def run_once(spec, workload, seed):
    cmd = spec["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]),
        "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{' '.join(cmd)} failed ({proc.returncode}):\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    with open(os.path.join(OUT, f"{workload}-seed{seed}-trace0.json")) as f:
        record = json.load(f)
    return result, record


def e15_by_seed(spec, runs):
    cmd = spec["command"] + ["--e15-seeds", str(runs)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} failed ({proc.returncode}):\n{proc.stderr[-2000:]}")
    rows = [line.split() for line in proc.stdout.strip().splitlines()]
    return {"regret": [float(r[1]) for r in rows],
            "msgs_per_node_round": [float(r[2]) for r in rows]}


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / abs(med) if med else float("nan")


def worse_by(metric, first, second):
    """How much worse `second` is than `first`, as a share of `first`."""
    change = (second - first) / abs(first) if first else float("nan")
    return change if metric["better"] == "lower" else -change


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10, help="runs per set, one seed each")
    ap.add_argument("--workload", action="append", help="limit to these workloads")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seeds = list(range(1, args.runs + 1))
    os.makedirs(OUT, exist_ok=True)

    report = []
    stamp = None
    verdict = True
    for w in workloads:
        results = [[] for _ in range(SETS)]
        hosts = [[] for _ in range(SETS)]
        failed, threads = 0, set()
        for seed in seeds:
            for s in range(SETS):
                result, record = run_once(spec, w, seed)
                verdict &= result["correct"]
                failed += result["failed"]
                results[s].append(result["metrics"])
                hosts[s].extend(record["host_mem_ref_ms"])
                threads.add(record["threads"])
                stamp = f"nproc {record['nproc']}, {record['cpu']}"
                print(f"{w} set {s + 1} seed {seed}: " + ", ".join(
                    f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        report.append(f"\n## {w}\n")
        report.append(f"{SETS} sets of {len(seeds)} runs, seeds {seeds[0]}..{seeds[-1]}, "
                      f"{failed} failed operations, worker threads {sorted(threads)}.\n")
        for s in range(SETS):
            hmed, hq1, hq3, hs = spread(hosts[s])
            report.append(f"- set {s + 1}: host.mem_ref_ms median {hmed:.2f} "
                          f"(quartiles {hq1:.2f}..{hq3:.2f}, IQR/median {hs:.3f})")
        report.append("")
        report.append("| metric | unit | median | q1 | q3 | IQR/median | set 2 median | "
                      "set 2 IQR/median | set 2 worse by | bound | all within bound/3 |")
        report.append("|---|---|---|---|---|---|---|---|---|---|---|")
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            sets = [spread([r[name]["value"] for r in results[s]]) for s in range(SETS)]
            (med, q1, q3, s1), (med2, _, _, s2) = sets
            drift = worse_by(m, med, med2)
            verdict &= s1 <= bound and s2 <= bound and drift <= bound
            third = max(s1, s2, drift) <= bound / 3
            report.append(f"| {name} | {m['unit']} | {med:.6g} | {q1:.6g} | {q3:.6g} | "
                          f"{s1:.4f} | {med2:.6g} | {s2:.4f} | {drift:+.4f} | {bound} | "
                          f"{'yes' if third else 'NO'} |")
        report.append("")
        for m in spec["end_to_end"]:
            if m["name"] in ("regret", "msgs_per_node_round"):
                a, b = (results[0][i][m["name"]]["value"] for i in (0, 1))
                share = abs(b - a) / abs(a)
                report.append(f"- seed robustness: {m['name']} seed {seeds[0]} = {a:.6g}, "
                              f"seed {seeds[1]} = {b:.6g}, differ by {share:.4f} of the first "
                              f"(bound {m['bound']}: {'inside' if share <= m['bound'] else 'OUTSIDE'})")
        if w == "suite-quick":
            e15 = e15_by_seed(spec, args.runs)
            report.append("")
            report.append(f"E15 alone at seeds {seeds[0]}..{seeds[-1]}, against the figure "
                          f"the suite reads at its fixed seed:\n")
            report.append("| metric | suite's figure | median over seeds | q1 | q3 | IQR/median | "
                          "seeds worse than the suite's figure by more than the bound | bound |")
            report.append("|---|---|---|---|---|---|---|---|")
            for m in spec["end_to_end"]:
                if m["name"] not in e15:
                    continue
                fixed = results[0][0][m["name"]]["value"]
                vals = e15[m["name"]]
                med, q1, q3, s = spread(vals)
                beyond = sum(worse_by(m, fixed, v) > m["bound"] for v in vals)
                report.append(f"| {m['name']} | {fixed:.6g} | {med:.6g} | {q1:.6g} | {q3:.6g} | "
                              f"{s:.4f} | {beyond}/{len(vals)} | {m['bound']} |")

    head = ["# fleetbench steadiness report",
            f"\n{time.strftime('%Y-%m-%d %H:%M:%S UTC', time.gmtime())}; {stamp}; "
            f"run_seconds {spec['run_seconds']}; every run correct, and every spread and "
            f"set-to-set difference within its bound (setup_s included): {verdict}"]
    text = "\n".join(head + report) + "\n"
    print(text)
    path = os.path.join(OUT, f"steadiness-{time.strftime('%Y%m%dT%H%M%S', time.gmtime())}.md")
    with open(path, "w") as f:
        f.write(text)
    print(f"written to {os.path.relpath(path, ROOT)}")
    return 0 if verdict else 1


if __name__ == "__main__":
    sys.exit(main())
