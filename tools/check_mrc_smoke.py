#!/usr/bin/env python3
"""CI smoke check for the one-pass MRC engine.

Usage:
  check_mrc_smoke.py ONEPASS_BENCH.json BRUTE_BENCH.json [eps]

Compares two BENCH_fig06_percentiles.json files from the same bench binary
run with --mrc=onepass (the default) and --mrc=brute, and asserts:
  1. both runs produced the same set of figure rows,
  2. every numeric field agrees within eps (default 0: the one-pass engine
     is exact for the FIFO family and LRU, and the brute path is shared for
     the rest, so the rows must be bit-identical),
  3. the onepass run actually ran in onepass mode (summary.mrc).

Exits non-zero with a diagnostic on any violation.
"""

import json
import sys


def fail(msg):
    print(f"mrc smoke FAILED: {msg}", file=sys.stderr)
    sys.exit(1)


def row_key(row):
    return tuple(sorted((k, v) for k, v in row.items() if not isinstance(v, float)))


def main(argv):
    if len(argv) not in (3, 4):
        fail(f"expected 2-3 arguments, got {len(argv) - 1} (see module docstring)")
    onepass = json.load(open(argv[1]))
    brute = json.load(open(argv[2]))
    eps = float(argv[3]) if len(argv) == 4 else 0.0

    if onepass["summary"].get("mrc") != "onepass":
        fail(f"first file is not an onepass run: {onepass['summary']}")
    if brute["summary"].get("mrc") != "brute":
        fail(f"second file is not a brute run: {brute['summary']}")

    if len(onepass["rows"]) != len(brute["rows"]):
        fail(
            f"row counts differ: {len(onepass['rows'])} onepass "
            f"vs {len(brute['rows'])} brute"
        )

    brute_rows = {row_key(r): r for r in brute["rows"]}
    compared = 0
    for row in onepass["rows"]:
        key = row_key(row)
        if key not in brute_rows:
            fail(f"onepass row has no brute counterpart: {row}")
        other = brute_rows[key]
        for field, value in row.items():
            if not isinstance(value, float):
                continue
            delta = abs(value - other[field])
            if delta > eps:
                fail(
                    f"'{field}' differs by {delta} (> eps {eps}) for row {key}:\n"
                    f"  onepass: {row}\n  brute:   {other}"
                )
            compared += 1

    op_speed = onepass["summary"].get("requests_per_sec", 0)
    br_speed = brute["summary"].get("requests_per_sec", 0)
    ratio = op_speed / br_speed if br_speed else float("nan")
    print(
        f"mrc smoke OK: {len(onepass['rows'])} rows, {compared} numeric fields "
        f"within eps={eps}; equivalent-work throughput onepass/brute = {ratio:.1f}x"
    )


if __name__ == "__main__":
    main(sys.argv)
