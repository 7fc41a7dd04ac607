#!/usr/bin/env python3
"""Compare two revisions on every benchmark workload in alternating pairs.

    python3 tools/ab.py PARENT CHANGE

Exports each revision with `git archive` into a temporary directory
(the checkout is never touched). For each workload of the change's
BENCHMARK.json it then runs `perfbench/run.py --trace 0` in each
export PAIRS times at seed SEED and the benchmark's run_seconds,
alternating which side goes first. The first run of each side also
builds it.

For every end-to-end metric of BENCHMARK.json it prints both sides'
median with its quartiles (nearest rank), how many pairs the change
won, and a verdict under the metric's bound, a fraction of the
parent's median:

  worse       the change's median is worse by more than the bound;
  unresolved  either side's interquartile range is wider than the
              bound and not every change run beats every parent run
              (every run is then listed);
  within      neither.

Exits 1 when a run fails or reports incorrect outputs, or when one
side's RESULT_HASH differs between its runs of one workload; the
verdicts never change the exit status.
"""

import argparse
import json
import math
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Alternating pairs per workload; a gain is claimed only from ten or
# more.
PAIRS = 10

# Workload seed of every run.
SEED = 1


def fail(message):
    print(f"ab: {message}", file=sys.stderr)
    sys.exit(1)


def nearest_rank(values, q):
    """The nearest-rank q-quantile, as perfbench/src/arith.hh takes it."""
    ordered = sorted(values)
    rank = math.ceil(q * len(ordered) - 1e-9)
    return ordered[min(max(rank, 1), len(ordered)) - 1]


def export(rev, dest):
    """Unpack `git archive REV` into dest."""
    archive = dest.with_suffix(".tar")
    with open(archive, "wb") as out:
        done = subprocess.run(["git", "-C", str(ROOT), "archive", rev],
                              stdout=out, check=False)
    if done.returncode != 0:
        fail(f"git archive {rev} failed")
    dest.mkdir()
    with tarfile.open(archive) as tar:
        tar.extractall(dest)
    archive.unlink()


def run_once(tree, workload, seconds):
    """One timed run: (metrics, RESULT_HASH, failed, attempted)."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(SEED), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, check=False)
    lines = done.stdout.rstrip("\n").split("\n")
    if not lines[-1].startswith("{"):
        sys.stderr.write(done.stderr[-4000:])
        fail(f"{tree.name}: run exited {done.returncode} without a result")
    result = json.loads(lines[-1])
    if done.returncode != 0 or not result["correct"]:
        fail(f"{tree.name}: outputs incorrect (exit {done.returncode})")
    hashes = [line.split()[1] for line in lines
              if line.startswith("RESULT_HASH ")]
    if len(hashes) != 1:
        fail(f"{tree.name}: expected one RESULT_HASH line")
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    return metrics, hashes[0], result["failed"], result["attempted"]


def num(value):
    """Four significant digits, without an exponent at benchmark scales."""
    return f"{value:,.0f}" if abs(value) >= 1000 else f"{value:.4g}"


def worse_by(parent, change, better):
    """How much worse change is than parent, as a fraction of parent."""
    delta = change - parent if better == "lower" else parent - change
    return delta / parent if parent else 0.0


def beats(change, parent, better):
    return change < parent if better == "lower" else change > parent


def report(spec, runs):
    print(f"\n{'metric':<10} {'parent median [q1, q3]':>34} "
          f"{'change median [q1, q3]':>34} {'moved':>8} {'won':>6}  verdict")
    listings = []
    for metric in spec["end_to_end"]:
        name, better, bound = metric["name"], metric["better"], metric["bound"]
        parent = [r["parent"][0][name] for r in runs]
        change = [r["change"][0][name] for r in runs]
        p_q1, p_med, p_q3 = (nearest_rank(parent, q) for q in (.25, .5, .75))
        c_q1, c_med, c_q3 = (nearest_rank(change, q) for q in (.25, .5, .75))
        won = sum(beats(c, p, better) for p, c in zip(parent, change))
        worse = worse_by(p_med, c_med, better)
        moved = (c_med - p_med) / p_med if p_med else 0.0
        # Both spreads in the bound's unit: a fraction of the parent's
        # median.
        p_iqr = (p_q3 - p_q1) / p_med if p_med else 0.0
        c_iqr = (c_q3 - c_q1) / p_med if p_med else 0.0
        every = all(beats(c, p, better) for c in change for p in parent)
        if worse > bound:
            verdict = f"worse (bound {bound:.0%})"
        elif max(p_iqr, c_iqr) > bound and not every:
            verdict = (f"unresolved (IQR parent {p_iqr:.0%}, change "
                       f"{c_iqr:.0%}; bound {bound:.0%})")
            listings.append((name, parent, change))
        else:
            verdict = f"within (bound {bound:.0%})"
        print(f"{name:<10} {f'{num(p_med)} [{num(p_q1)}, {num(p_q3)}]':>34} "
              f"{f'{num(c_med)} [{num(c_q1)}, {num(c_q3)}]':>34} "
              f"{moved:>+8.1%} {f'{won}/{len(runs)}':>6}  {verdict}")
    for name, parent, change in listings:
        print(f"\n{name}, every run in pair order:")
        print("  parent " + " ".join(num(v) for v in parent))
        print("  change " + " ".join(num(v) for v in change))


def compare(spec, trees, workload, revs):
    """Run PAIRS alternating pairs of one workload and report them;
    returns 1 when a side's RESULT_HASH differs between its runs."""
    seconds = spec["run_seconds"]
    runs = []
    for i in range(PAIRS):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {side: run_once(trees[side], workload, seconds)
                for side in order}
        runs.append(pair)
        print(f"{workload} pair {i + 1}/{PAIRS} ({order[0]} first): " +
              ", ".join(f"{side} {pair[side][1]} failed "
                        f"{pair[side][2]}/{pair[side][3]}"
                        for side in ("parent", "change")), flush=True)

    print(f"\n{workload}, seed {SEED}, {seconds} s, {PAIRS} pairs: "
          f"parent {revs['parent']}, change {revs['change']}")
    report(spec, runs)
    status = 0
    for side in ("parent", "change"):
        hashes = sorted({r[side][1] for r in runs})
        failed = sum(r[side][2] for r in runs)
        attempted = sum(r[side][3] for r in runs)
        print(f"{side}: RESULT_HASH {' '.join(hashes)}, "
              f"failed {failed} of {attempted}")
        if len(hashes) != 1:
            print(f"ab: {workload}: {side}'s RESULT_HASH differs between "
                  "its runs", file=sys.stderr)
            status = 1
    print(flush=True)
    return status


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    revs = vars(parser.parse_args())

    with tempfile.TemporaryDirectory(prefix="ab-") as tmp:
        trees = {}
        for side in ("parent", "change"):
            trees[side] = Path(tmp) / side
            export(revs[side], trees[side])
        spec = json.loads((trees["change"] / "BENCHMARK.json").read_text())
        status = 0
        for workload in spec["workloads"]:
            status |= compare(spec, trees, workload["name"], revs)
    sys.exit(status)


if __name__ == "__main__":
    main()
