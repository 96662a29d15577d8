#!/usr/bin/env python3
"""Compares the repository benchmark between a git revision and the working tree.

    tools/perf-pairs.py REV [--out FILE]
    tools/perf-pairs.py --verdict FILE
    tools/perf-pairs.py --trajectory FILE...

The first form extracts REV's committed files (git archive) into
.perf_pairs/<sha>/, deleting any other revision's tree there, then runs
perfbench/run.py there and in the working tree as ten alternating pairs on
every BENCHMARK.json workload: pair i uses seed 20 + i on both sides, and
the side that runs first alternates from pair to pair, so that drift of a
shared host lands on both sides alike. Each side builds its own perfbench
(the first run of a side builds it; later runs only check the build).
Every run lasts BENCHMARK.json's run_seconds, and every run must exit 0
with a correct result, or the comparison stops. --out writes every pair's
end-to-end metrics and the per-metric summary to FILE after each pair, so
an interrupted run keeps what it measured.

The second form only re-reads such a file and prints its verdict; it times
nothing.

The third form reads several such files, one per change, and prints for
each workload and end-to-end metric every file's change/parent median
ratio and the product of those ratios: the trajectory across the changes.
It never compares absolute medians across files, because they move with
the shared host from one file to the next. A file that lacks a workload or
a metric prints n/a for it, and the product skips it.

For each workload and end-to-end metric the verdict prints both sides'
median and quartiles, the change of the median, how many pairs the working
tree won, and the metric's BENCHMARK.json bound. A metric whose parent
IQR/median exceeds its bound is marked "unresolved": the runs spread too
widely to resolve a change of that size (unless every change run beats
every parent run). A metric is marked "gain" when there are at least ten
pairs, the change won at least 9/10 of them, ties counting for neither, and
the medians differ by more than the parent's IQR. The exit code is 1 when
any median is worse than the parent's by more than its bound, or when a
workload's failed-op share rises; 2 on a usage error, a failed or
incorrect run, or a crash of this tool; 0 otherwise.
"""
import argparse
import datetime
import json
import os
import shutil
import statistics
import subprocess
import sys
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKDIR = os.path.join(ROOT, ".perf_pairs")
SIDES = ("parent", "change")
# Seeds 0-15 carry perfbench's recorded references; 20-29 are kept for
# comparisons. Ten pairs is the least a "gain" verdict accepts.
SEEDS = tuple(range(20, 30))


def die(message):
    print("perf-pairs: " + message, file=sys.stderr)
    sys.exit(2)


def git(*args):
    proc = subprocess.run(["git", "-C", ROOT, *args],
                          stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        die("git %s failed (exit %d)" % (" ".join(args), proc.returncode))
    return proc.stdout.strip()


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def extract(sha):
    """REV's committed files in their own directory (reused across calls).

    Each tree holds a full perfbench build, so the other revisions' trees
    are deleted first: the directory keeps only the one being compared."""
    root = os.path.join(WORKDIR, sha)
    if os.path.isdir(WORKDIR):
        for name in os.listdir(WORKDIR):
            other = os.path.join(WORKDIR, name)
            if name != sha and os.path.isdir(other):
                shutil.rmtree(other)
    done = os.path.join(root, ".extracted")
    if not os.path.exists(done):
        os.makedirs(root, exist_ok=True)
        archive = subprocess.Popen(["git", "-C", ROOT, "archive", sha],
                                   stdout=subprocess.PIPE)
        tar = subprocess.run(["tar", "-x", "-C", root], stdin=archive.stdout)
        if archive.wait() != 0 or tar.returncode != 0:
            die("extracting %s into %s failed" % (sha, root))
        open(done, "w").close()
    return root


def run_side(root, workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", repr(seconds), "--trace", "0"],
        cwd=root, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        result = json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, ValueError):
        result = {}
    if proc.returncode != 0 or result.get("correct") is not True:
        sys.stderr.write(proc.stderr[-4000:])
        die("%s: %s seed %d exited %d with correct=%s"
            % (root, workload, seed, proc.returncode, result.get("correct")))
    return {"correct": True, "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def side_stats(pairs, side, name):
    values = [p[side]["metrics"][name] for p in pairs]
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "iqr": q3 - q1}


def summarize(record, spec):
    """Per workload and metric: each side's median and quartiles."""
    return {w: {m["name"]: {side: side_stats(pairs, side, m["name"])
                            for side in SIDES}
                for m in spec["end_to_end"]}
            for w, pairs in record["workloads"].items() if pairs}


def fmt(x):
    return "%.4g" % x


def verdict(record, spec):
    """Prints the comparison; returns the number of failed checks."""
    meta = record["meta"]
    print("perf-pairs: %s (parent) vs %s (change); seeds %s; %s s per run; "
          "nproc %s; %s" % (meta["rev"][:12], meta["commit"],
                            ", ".join(str(s) for s in meta["seeds"]),
                            meta["seconds"], meta["nproc"], meta["date"]))
    failures = 0
    unresolved = 0
    for workload, pairs in record["workloads"].items():
        if not pairs:
            continue
        print("\n%s (%d pairs)" % (workload, len(pairs)))
        print("  %-15s %-34s %-34s %8s %6s %6s  %s"
              % ("metric", "parent median [q1, q3]", "change median [q1, q3]",
                 "delta", "wins", "bound", "verdict"))
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            higher = m["better"] == "higher"
            ps = side_stats(pairs, "parent", name)
            cs = side_stats(pairs, "change", name)
            p1, pm, p3 = ps["q1"], ps["median"], ps["q3"]
            c1, cm, c3 = cs["q1"], cs["median"], cs["q3"]
            delta = (cm - pm) / pm if pm else 0.0
            worse = -delta if higher else delta
            sign = 1 if higher else -1
            parent = [sign * p["parent"]["metrics"][name] for p in pairs]
            change = [sign * p["change"]["metrics"][name] for p in pairs]
            wins = sum(1 for a, b in zip(parent, change) if b > a)
            notes = []
            if worse > bound:
                notes.append("REGRESSION")
                failures += 1
            if pm and (p3 - p1) / pm > bound and min(change) <= max(parent):
                notes.append("unresolved")
                unresolved += 1
            # A gain: at least ten pairs, the change wins 9/10 of them (ties
            # count for neither), and the medians differ by more than the
            # parent's IQR.
            if (worse < 0 and len(pairs) >= 10 and 10 * wins >= 9 * len(pairs)
                    and abs(cm - pm) > p3 - p1):
                notes.append("gain")
            if not notes:
                notes.append("ok")
            if p3 > p1:
                notes.append("gap %.1f IQR" % (abs(cm - pm) / (p3 - p1)))
            print("  %-15s %-34s %-34s %+7.1f%% %3d/%-2d %5.0f%%  %s"
                  % (name,
                     "%s [%s, %s]" % (fmt(pm), fmt(p1), fmt(p3)),
                     "%s [%s, %s]" % (fmt(cm), fmt(c1), fmt(c3)),
                     100 * delta, wins, len(pairs), 100 * bound,
                     ", ".join(notes)))
        share = {}
        for side in SIDES:
            attempted = sum(p[side]["attempted"] for p in pairs)
            failed = sum(p[side]["failed"] for p in pairs)
            share[side] = failed / attempted if attempted else 0.0
            share[side + "_text"] = "%d/%d" % (failed, attempted)
        rose = share["change"] > share["parent"]
        failures += rose
        print("  %-15s %-34s %-34s %31s  %s"
              % ("failed share", share["parent_text"], share["change_text"],
                 "", "REGRESSION" if rose else "ok"))
    print("\nverdict: %s (%d failed check(s), %d unresolved metric(s))"
          % ("FAIL" if failures else "PASS", failures, unresolved))
    return failures


def trajectory(paths, spec):
    """Prints each file's change/parent median ratio and their product."""
    records = []
    for path in paths:
        try:
            with open(path) as f:
                records.append(json.load(f))
        except (OSError, ValueError) as e:
            die("cannot read %s: %s" % (path, e))
    names = [os.path.splitext(os.path.basename(p))[0] for p in paths]
    print("perf-pairs trajectory: change/parent median ratio per file, and "
          "their product")
    for name, record in zip(names, records):
        meta = record.get("meta", {})
        print("  %s: %s (parent) vs %s (change)"
              % (name, meta.get("rev", "?")[:12], meta.get("commit", "?")))
    width = max(9, max(len(n) for n in names) + 1)
    print("\n%-17s %-15s%s %9s" % ("workload", "metric", "".join(
        "%*s" % (width, n) for n in names), "product"))
    for w in (x["name"] for x in spec["workloads"]):
        for m in spec["end_to_end"]:
            cells, product, used = [], 1.0, 0
            for record in records:
                pairs = record.get("workloads", {}).get(w)
                try:
                    p = side_stats(pairs, "parent", m["name"])["median"]
                    c = side_stats(pairs, "change", m["name"])["median"]
                    ratio = c / p
                except (KeyError, TypeError, ZeroDivisionError,
                        statistics.StatisticsError):
                    cells.append("n/a")
                    continue
                cells.append("x%.3f" % ratio)
                product *= ratio
                used += 1
            print("%-17s %-15s%s %9s" % (
                w, m["name"], "".join("%*s" % (width, c) for c in cells),
                "x%.2f" % product if used else "n/a"))


def measure(args, spec):
    sha = git("rev-parse", "--verify", args.rev + "^{commit}")
    head = git("rev-parse", "HEAD")
    dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    roots = {"parent": extract(sha), "change": ROOT}
    record = {
        "meta": {
            "rev": sha,
            "commit": head[:12] + ("+working-tree" if dirty else ""),
            "nproc": os.cpu_count(),
            "date": datetime.datetime.now(datetime.timezone.utc)
                    .strftime("%Y-%m-%dT%H:%M:%SZ"),
            "seconds": seconds,
            "seeds": list(SEEDS),
        },
        "workloads": {w: [] for w in workloads},
    }
    for w in workloads:
        for i, seed in enumerate(SEEDS):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_side(roots[side], w, seed, seconds)
                print("perf-pairs: %s seed %d %s: %s" % (
                    w, seed, side, " ".join(
                        "%s=%s" % (k, fmt(v))
                        for k, v in pair[side]["metrics"].items())),
                    file=sys.stderr)
            record["workloads"][w].append(pair)
            if args.out:
                record["summary"] = summarize(record, spec)
                with open(args.out, "w") as f:
                    json.dump(record, f, indent=1)
                    f.write("\n")
    return record


def main():
    parser = argparse.ArgumentParser(
        description="Alternating parent/change pairs of the repository "
                    "benchmark, with a verdict against BENCHMARK.json's "
                    "bounds.")
    parser.add_argument("rev", nargs="?", help="the parent revision")
    parser.add_argument("--out", help="write the pairs and summary here")
    parser.add_argument("--verdict", metavar="FILE",
                        help="print the verdict of a file written by --out")
    parser.add_argument("--trajectory", metavar="FILE", nargs="+",
                        help="print the chained change/parent median ratios "
                             "of files written by --out")
    args = parser.parse_args()
    spec = load_spec()
    if args.trajectory:
        if args.rev or args.verdict:
            die("--trajectory takes no revision and no --verdict")
        trajectory(args.trajectory, spec)
        sys.exit(0)
    if args.verdict:
        if args.rev:
            die("--verdict takes no revision")
        try:
            with open(args.verdict) as f:
                record = json.load(f)
        except (OSError, ValueError) as e:
            die("cannot read %s: %s" % (args.verdict, e))
    else:
        if not args.rev:
            die("give a revision to compare against, or --verdict FILE")
        record = measure(args, spec)
    sys.exit(1 if verdict(record, spec) else 0)


if __name__ == "__main__":
    try:
        main()
    except Exception:  # a crash is a run error (2), never a verdict (1)
        traceback.print_exc()
        sys.exit(2)
