#!/usr/bin/env python3
"""Validates a Prometheus text-exposition scrape (format 0.0.4).

Structural checks on the whole file:
  * every sample belongs to a family announced by # TYPE (and # HELP);
    # HELP / # TYPE precede the family's samples and appear once
  * metric and label names are legal, label blocks parse (escaped quotes,
    backslashes, newlines), values parse as floats (NaN/+Inf/-Inf allowed)
  * no duplicate sample (same name + label set)
  * histograms: per label set, cumulative le buckets are non-decreasing,
    the +Inf bucket exists and equals <name>_count, and <name>_sum exists
  * counter samples are non-negative

Assertions for CI (both repeatable):
  --require NAME      fail unless family NAME has at least one sample
  --min NAME:VALUE    fail unless the sum of NAME's samples is >= VALUE

With --history the input is instead a GET /v1/metrics/history JSON
document: the envelope, per-series shape, point ordering, counter
monotonicity-after-clamp, and the delta/rate arithmetic are validated,
plus the repeatable assertions
  --history-require NAME        fail unless series NAME is present
  --history-min-delta NAME:V    fail unless NAME's delta is >= V

Usage: check_metrics.py scrape.txt [--require tdmatch_queries_total]
                                   [--min tdmatch_reloads_total:1]
       check_metrics.py history.json --history
                                   [--history-require tdmatch_queries_total]
                                   [--history-min-delta tdmatch_queries_total:6]
Exits non-zero listing every violation.
"""

import argparse
import json
import math
import re
import sys
from collections import defaultdict

METRIC_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
LABEL_NAME_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")
VALID_TYPES = {"counter", "gauge", "histogram", "summary", "untyped"}


def parse_labels(block, errors, lineno):
    """Parses '{k="v",...}' (without the braces) into a sorted tuple."""
    labels = []
    i = 0
    n = len(block)
    while i < n:
        eq = block.find("=", i)
        if eq < 0:
            errors.append(f"line {lineno}: malformed label block")
            return None
        name = block[i:eq]
        if not LABEL_NAME_RE.match(name):
            errors.append(f"line {lineno}: bad label name {name!r}")
            return None
        if eq + 1 >= n or block[eq + 1] != '"':
            errors.append(f"line {lineno}: label value must be quoted")
            return None
        i = eq + 2
        value = []
        while i < n and block[i] != '"':
            if block[i] == "\\":
                if i + 1 >= n:
                    errors.append(f"line {lineno}: dangling escape")
                    return None
                esc = block[i + 1]
                value.append({"n": "\n", "\\": "\\", '"': '"'}.get(esc, esc))
                i += 2
            else:
                value.append(block[i])
                i += 1
        if i >= n:
            errors.append(f"line {lineno}: unterminated label value")
            return None
        i += 1  # closing quote
        labels.append((name, "".join(value)))
        if i < n:
            if block[i] != ",":
                errors.append(f"line {lineno}: expected ',' between labels")
                return None
            i += 1
    return tuple(sorted(labels))


def parse_value(text, errors, lineno):
    special = {"NaN": math.nan, "+Inf": math.inf, "-Inf": -math.inf}
    if text in special:
        return special[text]
    try:
        return float(text)
    except ValueError:
        errors.append(f"line {lineno}: unparseable value {text!r}")
        return None


def base_family(name, families):
    """Maps histogram series names back to their announced family."""
    for suffix in ("_bucket", "_sum", "_count"):
        if name.endswith(suffix) and name[: -len(suffix)] in families:
            return name[: -len(suffix)]
    return name


def check_history(text, require, min_delta):
    """Validates a /v1/metrics/history JSON document; returns errors."""
    errors = []
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        return [f"history: body is not JSON: {e}"]
    for key in ("now", "window_seconds", "interval_seconds",
                "retention_seconds", "samples_taken"):
        if not isinstance(doc.get(key), (int, float)):
            errors.append(f"history: missing numeric field {key!r}")
    series_list = doc.get("series")
    if not isinstance(series_list, list):
        return errors + ["history: 'series' is not an array"]

    by_name = defaultdict(list)
    for i, s in enumerate(series_list):
        where = f"series[{i}]"
        if not isinstance(s, dict):
            errors.append(f"history: {where} is not an object")
            continue
        name = s.get("name")
        if not isinstance(name, str) or not METRIC_NAME_RE.match(name):
            errors.append(f"history: {where} has bad name {name!r}")
            continue
        where = f"series {name}{s.get('labels', '')}"
        by_name[name].append(s)
        if s.get("type") not in ("counter", "gauge"):
            errors.append(f"history: {where}: bad type {s.get('type')!r}")
        for key in ("points_count", "first_ts", "last_ts", "last", "delta",
                    "rate_per_sec"):
            if not isinstance(s.get(key), (int, float)):
                errors.append(f"history: {where}: missing numeric {key!r}")
                break
        else:
            if s["first_ts"] > s["last_ts"]:
                errors.append(f"history: {where}: first_ts > last_ts")
            if s["points_count"] < 1:
                errors.append(f"history: {where}: empty series reported")
            if s["type"] == "counter" and s["delta"] < 0:
                errors.append(f"history: {where}: counter delta "
                              f"{s['delta']} is negative")
            span = s["last_ts"] - s["first_ts"]
            if span > 0:
                want_rate = s["delta"] / span
                if not math.isclose(s["rate_per_sec"], want_rate,
                                    rel_tol=1e-6, abs_tol=1e-9):
                    errors.append(
                        f"history: {where}: rate_per_sec "
                        f"{s['rate_per_sec']} != delta/span {want_rate}")
            elif s["rate_per_sec"] != 0:
                errors.append(f"history: {where}: nonzero rate over an "
                              f"empty time span")
            points = s.get("points")
            if points is not None:
                if (not isinstance(points, list)
                        or len(points) != s["points_count"]):
                    errors.append(f"history: {where}: points/points_count "
                                  f"mismatch")
                else:
                    ts = [p[0] for p in points]
                    if ts != sorted(ts):
                        errors.append(f"history: {where}: points not in "
                                      f"time order")
                    if points and (points[0][0] != s["first_ts"]
                                   or points[-1][0] != s["last_ts"]):
                        errors.append(f"history: {where}: first/last_ts "
                                      f"disagree with points")
                    if points and points[-1][1] != s["last"]:
                        errors.append(f"history: {where}: last disagrees "
                                      f"with final point")

    distinct = {(s["name"], s.get("labels", "")) for n in by_name
                for s in by_name[n]}
    if len(distinct) != sum(len(v) for v in by_name.values()):
        errors.append("history: duplicate (name, labels) series")

    for name in require:
        if name not in by_name:
            errors.append(f"history: required series {name} is absent")
    for spec in min_delta:
        name, _, floor_text = spec.rpartition(":")
        try:
            floor = float(floor_text)
        except ValueError:
            errors.append(f"--history-min-delta {spec!r}: not a number")
            continue
        total = sum(s["delta"] for s in by_name.get(name, [])
                    if isinstance(s.get("delta"), (int, float)))
        if name not in by_name or total < floor:
            errors.append(f"--history-min-delta {name}: delta {total} < "
                          f"{floor}")
    return errors


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("scrape", help="exposition text file ('-' for stdin)")
    ap.add_argument("--require", action="append", default=[],
                    metavar="NAME", help="family that must have samples")
    ap.add_argument("--min", action="append", default=[], metavar="NAME:V",
                    help="family whose summed samples must be >= V")
    ap.add_argument("--history", action="store_true",
                    help="input is a /v1/metrics/history JSON document")
    ap.add_argument("--history-require", action="append", default=[],
                    metavar="NAME", help="series that must be present")
    ap.add_argument("--history-min-delta", action="append", default=[],
                    metavar="NAME:V", help="series whose delta must be >= V")
    args = ap.parse_args()

    text = (sys.stdin.read() if args.scrape == "-"
            else open(args.scrape, encoding="utf-8").read())

    if args.history:
        errors = check_history(text, args.history_require,
                               args.history_min_delta)
        if errors:
            for e in errors:
                print(f"check_metrics: {e}", file=sys.stderr)
            sys.exit(1)
        doc = json.loads(text)
        print(f"check_metrics: history OK ({len(doc['series'])} series, "
              f"{doc['samples_taken']:.0f} samples)")
        return

    errors = []
    families = {}  # name -> type
    helped = set()
    seen_samples = set()
    family_samples = defaultdict(list)  # family -> [(labels, value)]
    samples_started = set()  # families that already emitted samples

    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("# HELP "):
            parts = line[len("# HELP "):].split(" ", 1)
            name = parts[0]
            if name in helped:
                errors.append(f"line {lineno}: duplicate # HELP for {name}")
            helped.add(name)
            continue
        if line.startswith("# TYPE "):
            parts = line[len("# TYPE "):].split()
            if len(parts) != 2:
                errors.append(f"line {lineno}: malformed # TYPE")
                continue
            name, mtype = parts
            if mtype not in VALID_TYPES:
                errors.append(f"line {lineno}: invalid type {mtype!r}")
            if name in families:
                errors.append(f"line {lineno}: duplicate # TYPE for {name}")
            if name in samples_started:
                errors.append(
                    f"line {lineno}: # TYPE for {name} after its samples")
            families[name] = mtype
            continue
        if line.startswith("#"):
            continue  # comment

        # Sample line: name[{labels}] value [timestamp]
        m = re.match(r"^([^{\s]+)(\{.*\})?\s+(\S+)(\s+-?\d+)?$", line)
        if not m:
            errors.append(f"line {lineno}: unparseable sample {line!r}")
            continue
        name, label_block, value_text = m.group(1), m.group(2), m.group(3)
        if not METRIC_NAME_RE.match(name):
            errors.append(f"line {lineno}: bad metric name {name!r}")
            continue
        labels = (parse_labels(label_block[1:-1], errors, lineno)
                  if label_block else ())
        if labels is None:
            continue
        value = parse_value(value_text, errors, lineno)
        if value is None:
            continue

        family = base_family(name, families)
        if family not in families:
            errors.append(f"line {lineno}: sample {name} has no # TYPE")
            continue
        samples_started.add(family)
        key = (name, labels)
        if key in seen_samples:
            errors.append(f"line {lineno}: duplicate sample {name}{labels}")
        seen_samples.add(key)
        family_samples[family].append((name, labels, value))
        if families[family] == "counter" and value < 0:
            errors.append(f"line {lineno}: counter {name} is negative")

    # Histogram shape: per label set (minus le), buckets are cumulative,
    # +Inf exists and matches _count, _sum exists.
    for family, mtype in families.items():
        if mtype != "histogram":
            continue
        buckets = defaultdict(list)  # base labels -> [(le, value)]
        counts = {}
        sums = {}
        for name, labels, value in family_samples[family]:
            base = tuple(kv for kv in labels if kv[0] != "le")
            if name == family + "_bucket":
                le = dict(labels).get("le")
                if le is None:
                    errors.append(f"{family}: bucket without le label")
                    continue
                buckets[base].append((math.inf if le == "+Inf"
                                      else float(le), value))
            elif name == family + "_count":
                counts[base] = value
            elif name == family + "_sum":
                sums[base] = value
        for base, series in buckets.items():
            series.sort()
            values = [v for _, v in series]
            if values != sorted(values):
                errors.append(f"{family}{dict(base)}: buckets not cumulative")
            if not series or not math.isinf(series[-1][0]):
                errors.append(f"{family}{dict(base)}: missing +Inf bucket")
            elif base in counts and series[-1][1] != counts[base]:
                errors.append(
                    f"{family}{dict(base)}: +Inf bucket {series[-1][1]} != "
                    f"_count {counts[base]}")
            if base not in sums:
                errors.append(f"{family}{dict(base)}: missing _sum")
            if base not in counts:
                errors.append(f"{family}{dict(base)}: missing _count")

    for name in args.require:
        if not family_samples.get(name):
            errors.append(f"required family {name} has no samples")
    for spec in args.min:
        name, _, floor_text = spec.rpartition(":")
        try:
            floor = float(floor_text)
        except ValueError:
            errors.append(f"--min {spec!r}: value is not a number")
            continue
        total = sum(v for _, _, v in family_samples.get(name, []))
        if not family_samples.get(name) or total < floor:
            errors.append(
                f"--min {name}: sum {total} < {floor} "
                f"({len(family_samples.get(name, []))} samples)")

    if errors:
        for e in errors:
            print(f"check_metrics: {e}", file=sys.stderr)
        sys.exit(1)
    print(f"check_metrics: OK ({len(seen_samples)} samples, "
          f"{len(families)} families)")


if __name__ == "__main__":
    main()
