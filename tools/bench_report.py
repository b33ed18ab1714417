#!/usr/bin/env python3
"""Diff a fresh ``repro-bench/v1`` envelope against a checked-in snapshot.

Every ``benchmarks/bench_*.py`` writer emits the same envelope (see
``benchmarks/bench_schema.py``), so regression checking is one generic
diff: compare the named ``wall_seconds`` and ``ns_per_unit`` entries
(a relative change only when both runs declare the same ``params``,
else "params differ; not compared"), then gate on the current run's
contract —

* the current run's ``speedup`` must meet the ``floor`` the current run
  itself declares (full runs embed their required floor; ``--smoke``
  runs embed ``null`` because a shrunken workload can't honestly attest
  the full-size contract, so CI can diff smoke output informationally);
* a ``null`` floor (tracking-only benchmarks, smoke runs) makes the
  report purely informational and the exit status 0.

Usage::

    python benchmarks/bench_delta_sweep.py --smoke --out current.json
    python tools/bench_report.py current.json BENCH_runtime.json

Exit status 0 when the current speedup meets the declared floor (or no
floor applies), 1 on a regression or malformed/mismatched envelopes.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, Optional, TextIO

BENCH_SCHEMA = "repro-bench/v1"


def _load(path: str) -> Any:
    if path == "-":
        return json.load(sys.stdin)
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _check_envelope(document: Any, label: str) -> Optional[str]:
    """One line describing why ``document`` is not a bench envelope."""
    if not isinstance(document, dict):
        return f"{label}: expected an object, got {type(document).__name__}"
    if document.get("schema") != BENCH_SCHEMA:
        return (f"{label}: schema is {document.get('schema')!r}, "
                f"expected {BENCH_SCHEMA!r}")
    for key in ("name", "wall_seconds"):
        if key not in document:
            return f"{label}: missing required key {key!r}"
    return None


def _diff_section(current: Dict[str, Any], snapshot: Dict[str, Any],
                  title: str, unit: str, compared: bool, out: TextIO) -> None:
    """Side-by-side numbers for one named-measurement section, with the
    relative change only when ``compared`` (both runs used one set of
    params)."""
    keys = [key for key in snapshot if key != "unit"]
    keys += [key for key in current if key != "unit" and key not in snapshot]
    if not keys:
        return
    out.write(f"{title}:\n")
    for key in keys:
        was, now = snapshot.get(key), current.get(key)
        if not (isinstance(was, (int, float)) and isinstance(now, (int, float))):
            out.write(f"  {key:<10} snapshot={was!r} current={now!r}\n")
            continue
        if not compared:
            change = "  (params differ; not compared)"
        elif was:
            change = f"  ({(now - was) / was:+.1%})"
        else:
            change = ""
        out.write(f"  {key:<10} snapshot={was:g}{unit} "
                  f"current={now:g}{unit}{change}\n")


def report(current: Dict[str, Any], snapshot: Dict[str, Any],
           out: TextIO) -> int:
    """Render the diff; return the process exit status."""
    name = snapshot["name"]
    if current["name"] != name:
        out.write(f"error: benchmark mismatch: current is "
                  f"{current['name']!r}, snapshot is {name!r}\n")
        return 1

    out.write(f"benchmark: {name}\n")
    params = current.get("params", {})
    out.write(f"params: current={json.dumps(params, sort_keys=True)}\n")
    out.write(f"        snapshot="
              f"{json.dumps(snapshot.get('params', {}), sort_keys=True)}\n")
    # A percentage across different workloads (a --smoke run against a
    # full snapshot) measures the workload change, not the code.
    compared = params == snapshot.get("params", {})
    _diff_section(current.get("wall_seconds") or {},
                  snapshot.get("wall_seconds") or {},
                  "wall_seconds", "s", compared, out)
    unit = (snapshot.get("ns_per_unit") or {}).get("unit") \
        or (current.get("ns_per_unit") or {}).get("unit") or "unit"
    _diff_section(current.get("ns_per_unit") or {},
                  snapshot.get("ns_per_unit") or {},
                  f"ns_per_{unit}", "ns", compared, out)

    floor = current.get("floor")
    speedup = current.get("speedup")
    if floor is None:
        was = snapshot.get("speedup")
        out.write(f"speedup: current={speedup!r} snapshot={was!r} "
                  f"(no floor declared; informational)\n")
        return 0
    if not isinstance(speedup, (int, float)):
        out.write(f"error: the run declares floor {floor:g} but reports "
                  f"no speedup\n")
        return 1
    verdict = "ok" if speedup >= floor else "REGRESSION"
    out.write(f"speedup: current={speedup:g} floor={floor:g} -> {verdict}\n")
    return 0 if speedup >= floor else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Diff a fresh repro-bench/v1 envelope against a "
                    "checked-in snapshot and gate on the run's floor.")
    parser.add_argument("current",
                        help="envelope from the run under test "
                             "('-' for stdin)")
    parser.add_argument("snapshot",
                        help="checked-in BENCH_*.json to compare against")
    args = parser.parse_args(argv)

    try:
        current = _load(args.current)
        snapshot = _load(args.snapshot)
    except (OSError, json.JSONDecodeError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1

    for document, label in ((current, args.current), (snapshot, args.snapshot)):
        problem = _check_envelope(document, label)
        if problem:
            print(f"error: {problem}", file=sys.stderr)
            return 1

    return report(current, snapshot, sys.stdout)


if __name__ == "__main__":
    raise SystemExit(main())
