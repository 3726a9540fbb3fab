#!/usr/bin/env python3
"""Compare two BENCH_<name>.json files: deterministic fields must match.

Usage:
  bench_compare.py BASE.json NEW.json

Rows are joined on their string fields (a row's label: dataset, policy,
size, ...); rows whose labels repeat within a file are paired in file
order. A numeric field is a timing field when its name ends in one of
TIMING_SUFFIXES; every other numeric field (miss ratios, counts, admitted
and device bytes, write amplification, ...) must be equal in both files.

Exit status: 0 when every row of each file has a partner and every
deterministic field matches; 1 on a missing row or a differing field (each
listed on stderr); 2 on bad arguments, files of different benches, or files
whose provenance records different bench_scale values.
Timing deltas (sum over the joined rows per field, and the summary's timing
fields) are printed to stdout either way; they are informational.
"""

import json
import sys
from collections import defaultdict

TIMING_SUFFIXES = ("_ms", "_ns", "_s", "seconds", "mops", "per_sec", "speedup")


def is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def is_timing(field):
    return field.endswith(TIMING_SUFFIXES)


def row_label(row):
    return tuple(sorted((k, v) for k, v in row.items() if not is_number(v)))


def keyed_rows(rows):
    """{(label, occurrence): row}, the occurrence counting repeats of a label."""
    seen = defaultdict(int)
    keyed = {}
    for row in rows:
        label = row_label(row)
        keyed[(label, seen[label])] = row
        seen[label] += 1
    return keyed


def describe(key):
    label, occurrence = key
    text = ", ".join(f"{k}={v}" for k, v in label)
    return text + (f" (#{occurrence + 1})" if occurrence else "")


def compare(base, new):
    """Returns (errors, timing lines) for two parsed BENCH documents."""
    errors = []
    base_rows = keyed_rows(base.get("rows", []))
    new_rows = keyed_rows(new.get("rows", []))
    for key in base_rows.keys() - new_rows.keys():
        errors.append(f"row missing from NEW: {describe(key)}")
    for key in new_rows.keys() - base_rows.keys():
        errors.append(f"row missing from BASE: {describe(key)}")

    base_sums = defaultdict(float)
    new_sums = defaultdict(float)
    for key in sorted(base_rows.keys() & new_rows.keys(), key=str):
        a, b = base_rows[key], new_rows[key]
        for field in sorted(a.keys() | b.keys()):
            va, vb = a.get(field), b.get(field)
            if not is_number(va) and not is_number(vb):
                continue  # a label field, equal by the join
            if is_timing(field) and is_number(va) and is_number(vb):
                base_sums[field] += va
                new_sums[field] += vb
            elif va != vb:
                errors.append(f"{describe(key)}: {field} {va!r} -> {vb!r}")

    lines = []
    for field in sorted(base_sums):
        lines.append(timing_line(f"rows.{field} (sum)", base_sums[field], new_sums[field]))
    base_summary, new_summary = base.get("summary", {}), new.get("summary", {})
    for field in sorted(base_summary.keys() & new_summary.keys()):
        va, vb = base_summary[field], new_summary[field]
        if is_timing(field) and is_number(va) and is_number(vb):
            lines.append(timing_line(f"summary.{field}", va, vb))
    return errors, lines


def timing_line(name, base, new):
    delta = f"{(new - base) / base * 100:+.1f}%" if base else "n/a"
    return f"  {name}: {base:.6g} -> {new:.6g} ({delta})"


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    try:
        with open(argv[1]) as f:
            base = json.load(f)
        with open(argv[2]) as f:
            new = json.load(f)
    except (OSError, ValueError) as e:
        print(f"bench_compare: {e}", file=sys.stderr)
        return 2
    if base.get("bench") != new.get("bench"):
        print(f"bench_compare: different benches: {base.get('bench')!r} vs "
              f"{new.get('bench')!r}", file=sys.stderr)
        return 2
    base_scale = base.get("provenance", {}).get("bench_scale")
    new_scale = new.get("provenance", {}).get("bench_scale")
    if base_scale is not None and new_scale is not None and base_scale != new_scale:
        print(f"bench_compare: different scales: {base_scale!r} vs {new_scale!r}",
              file=sys.stderr)
        return 2

    errors, lines = compare(base, new)
    print(f"{base.get('bench')}: timing (BASE -> NEW)")
    for line in lines:
        print(line)
    for error in errors:
        print(f"DIFF {error}", file=sys.stderr)
    rows = len(base.get("rows", []))
    if errors:
        print(f"{base.get('bench')}: {len(errors)} difference(s) over {rows} BASE rows",
              file=sys.stderr)
        return 1
    print(f"{base.get('bench')}: {rows} rows, every deterministic field equal")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
