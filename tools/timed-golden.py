#!/usr/bin/env python3
"""Checks the timed benches' simulated results against recorded hashes.

    tools/timed-golden.py GOLDEN JSON...
    tools/timed-golden.py --record GOLDEN JSON...

Each JSON is one bench's --json output. For every cell of every bench the
tool hashes three fields separately: cycles, checksum and metrics (the
first 16 hex digits of the SHA-256 of the field's canonical JSON text).
wall_seconds is host time and is left out; so are the backend and gc
labels, which the cell name already determines.

The first form compares the given files with GOLDEN. It exits 1 and names
the first bench, cell and field that differs, in GOLDEN's order, or a bench
or cell present on one side only; it exits 0 when everything matches. The
second form writes GOLDEN from the given files.

The ctest `timed_golden` runs the first form over the ten timed benches'
`--quick` smoke outputs. A change that moves a simulated figure on purpose
(and says why) re-records the file from a build of that change:

    cmake --build build -j
    (cd build && ctest -R timed_golden)   # runs the ten benches first
    python3 tools/timed-golden.py --record tools/testdata/timed_golden.json \\
        build/bench/smoke_bench_*.json
"""
import argparse
import hashlib
import json
import sys

FIELDS = ("cycles", "checksum", "metrics")


def field_hash(value):
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def hashes_of(paths):
    """bench -> cell name -> [hash of each of FIELDS], in the files' order."""
    benches = {}
    for path in paths:
        try:
            with open(path) as f:
                doc = json.load(f)
        except (OSError, ValueError) as e:
            sys.exit("timed-golden: cannot read %s: %s" % (path, e))
        for bench, body in doc["benches"].items():
            if bench in benches:
                sys.exit("timed-golden: bench %s appears twice" % bench)
            benches[bench] = {
                cell["name"]: [field_hash(cell[k]) for k in FIELDS]
                for cell in body["cells"]}
    return benches


def first_difference(golden, actual):
    for bench, cells in golden.items():
        if bench not in actual:
            return "bench %s: no output (recorded with %d cells)" % (
                bench, len(cells))
        for name, recorded in cells.items():
            got = actual[bench].get(name)
            if got is None:
                return "bench %s cell %s: missing" % (bench, name)
            for field, now, then in zip(FIELDS, got, recorded):
                if now != then:
                    return ("bench %s cell %s field %s: hash %s, recorded %s"
                            % (bench, name, field, now, then))
        for name in actual[bench]:
            if name not in cells:
                return "bench %s cell %s: not recorded" % (bench, name)
    for bench in actual:
        if bench not in golden:
            return "bench %s: not recorded" % bench
    return None


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--record", action="store_true")
    parser.add_argument("golden")
    parser.add_argument("json", nargs="+")
    args = parser.parse_args()

    actual = hashes_of(args.json)
    ncells = sum(len(cells) for cells in actual.values())
    if args.record:
        # One line per cell, so a re-record diffs cell by cell.
        lines = ['{"fields": %s,' % json.dumps(FIELDS), ' "benches": {']
        for i, (bench, cells) in enumerate(actual.items()):
            lines.append('  %s: {' % json.dumps(bench))
            rows = ['   %s: %s' % (json.dumps(name), json.dumps(hashes))
                    for name, hashes in cells.items()]
            lines.append(",\n".join(rows))
            lines.append('  }' + ("," if i + 1 < len(actual) else ""))
        lines.append(" }}")
        with open(args.golden, "w") as f:
            f.write("\n".join(lines) + "\n")
        print("timed-golden: recorded %d cells of %d benches in %s" % (
            ncells, len(actual), args.golden))
        return 0

    try:
        with open(args.golden) as f:
            golden = json.load(f)["benches"]
    except (OSError, ValueError, KeyError) as e:
        sys.exit("timed-golden: cannot read %s: %s" % (args.golden, e))
    diff = first_difference(golden, actual)
    if diff is not None:
        print("timed-golden: FAIL: " + diff)
        return 1
    print("timed-golden: %d cells of %d benches match" % (
        ncells, len(actual)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
