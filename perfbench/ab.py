#!/usr/bin/env python3
"""Spread and A/B runs of the perfbench benchmark, from the repository root.

  python3 perfbench/ab.py spread --workload suite [--runs 10]
      Runs the current tree --runs times, one seed each, and prints every
      end-to-end metric's median, quartiles and spread (interquartile range
      as a share of the median) beside its bound in BENCHMARK.json.

  python3 perfbench/ab.py ab --parent HEAD~1 --workload suite [--pairs 10]
      Builds the parent commit in a git worktree under .bench_ab/, copies
      this tree's benchmark (perfbench/ and BENCHMARK.json) into it so both
      sides run identical benchmark code, and runs parent and change
      interleaved, alternating which goes first, with the same seed per pair.
      Prints each side's median and quartiles, the share of pairs the change
      won, and a verdict per metric: a gain needs at least nine tenths of the
      pairs and a median difference larger than the parent's own quartile
      spread; a regression is a median worse than the parent's by more than
      the metric's bound.

Both run for BENCHMARK.json's run_seconds and write every raw result line
to .bench_ab/<name>.jsonl. spread exits 1 when any metric's spread is
above its bound.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
AB_DIR = os.path.join(ROOT, ".bench_ab")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(root, workload, seed, seconds, trace=0):
    """Runs the benchmark in root and returns its parsed result line."""
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{root}: seed {seed}: no result line (exit {proc.returncode})")
    if proc.returncode != 0 or not result.get("correct"):
        sys.stderr.write(proc.stdout)
        raise SystemExit(f"{root}: seed {seed}: output checks failed (exit {proc.returncode})")
    return result


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else float("inf")


def log_line(name, record):
    os.makedirs(AB_DIR, exist_ok=True)
    with open(os.path.join(AB_DIR, name + ".jsonl"), "a") as f:
        f.write(json.dumps(record) + "\n")


def cmd_spread(args, spec):
    seconds = spec["run_seconds"]
    values = {m["name"]: [] for m in spec["end_to_end"]}
    for i in range(args.runs):
        seed = args.seed0 + i
        res = run_once(ROOT, args.workload, seed, seconds)
        log_line("spread-" + args.workload, {"seed": seed, "result": res})
        for name in values:
            values[name].append(res["metrics"][name]["value"])
        print(f"run {i + 1}/{args.runs} seed {seed} done", file=sys.stderr)
    print(f"{args.workload}: {args.runs} runs of {seconds} s")
    print(f"  {'metric':22} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}  ok")
    all_ok = True
    for m in spec["end_to_end"]:
        v = values[m["name"]]
        q1, q2, q3 = quartiles(v)
        s = spread(v)
        ok = s <= m["bound"]
        all_ok = all_ok and ok
        mark = "yes" if s < m["bound"] / 3 else ("within bound" if ok else "NO")
        print(f"  {m['name']:22} {q2:14.6g} {q1:14.6g} {q3:14.6g} {s:8.4f} {m['bound']:6.2f}  {mark}")
    return 0 if all_ok else 1


def prepare_parent(rev):
    tree = os.path.join(AB_DIR, "parent")
    if os.path.exists(tree):
        subprocess.run(["git", "worktree", "remove", "--force", tree], cwd=ROOT, check=False)
        shutil.rmtree(tree, ignore_errors=True)
    subprocess.run(["git", "worktree", "add", "--detach", tree, rev], cwd=ROOT, check=True)
    shutil.rmtree(os.path.join(tree, "perfbench"), ignore_errors=True)
    shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(tree, "perfbench"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), os.path.join(tree, "BENCHMARK.json"))
    return tree


def cmd_ab(args, spec):
    seconds = spec["run_seconds"]
    parent = prepare_parent(args.parent)
    sides = {"parent": [], "change": []}
    try:
        for i in range(args.pairs):
            seed = args.seed0 + i
            order = [("parent", parent), ("change", ROOT)]
            if i % 2:
                order.reverse()
            for side, root in order:
                res = run_once(root, args.workload, seed, seconds)
                sides[side].append(res)
                log_line("ab-" + args.workload, {"side": side, "seed": seed, "result": res})
            print(f"pair {i + 1}/{args.pairs} seed {seed} done", file=sys.stderr)
    finally:
        subprocess.run(["git", "worktree", "remove", "--force", parent], cwd=ROOT, check=False)

    print(f"{args.workload}: {args.pairs} pairs of {seconds} s, parent {args.parent} vs working tree")
    if args.pairs < 10:
        print("  fewer than ten pairs: no verdict below supports a claim")
    print(f"  {'metric':22} {'parent med [q1, q3]':>36} {'change med [q1, q3]':>36} {'won':>6}  verdict")
    for m in spec["end_to_end"]:
        name, lower = m["name"], m["better"] == "lower"
        p = [r["metrics"][name]["value"] for r in sides["parent"]]
        c = [r["metrics"][name]["value"] for r in sides["change"]]
        pq1, pmed, pq3 = quartiles(p)
        cq1, cmed, cq3 = quartiles(c)
        wins = sum(1 for a, b in zip(p, c) if (b < a if lower else b > a))
        share = wins / len(p)
        worse = (cmed - pmed) / pmed if lower else (pmed - cmed) / pmed
        if share >= 0.9 and abs(cmed - pmed) > (pq3 - pq1):
            verdict = "gain"
        elif worse > m["bound"]:
            verdict = "REGRESSION"
        elif spread(p) > m["bound"] and not all((b < a if lower else b > a) for a in p for b in c):
            verdict = "unresolved (parent spread above bound)"
        else:
            verdict = "no change"
        print(f"  {name:22} {pmed:12.6g} [{pq1:10.6g}, {pq3:10.6g}] {cmed:12.6g} [{cq1:10.6g}, {cq3:10.6g}] {share:6.0%}  {verdict}")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="cmd", required=True)
    sp = sub.add_parser("spread")
    sp.add_argument("--workload", required=True)
    sp.add_argument("--runs", type=int, default=10)
    sp.add_argument("--seed0", type=int, default=1)
    ab = sub.add_parser("ab")
    ab.add_argument("--parent", required=True)
    ab.add_argument("--workload", required=True)
    ab.add_argument("--pairs", type=int, default=10)
    ab.add_argument("--seed0", type=int, default=1)
    args = ap.parse_args()
    spec = load_spec()
    return cmd_spread(args, spec) if args.cmd == "spread" else cmd_ab(args, spec)


if __name__ == "__main__":
    sys.exit(main())
