"""The repository benchmark: three workloads, end to end and per layer.

Run from the root of a checkout::

    python3 bench/run.py --workload circuit_cold --seed 1 --seconds 30 --trace 0

``--trace 0`` times untraced passes and reports the end-to-end metrics
(on the compute workloads in reference-speed seconds, see ``pace.py``);
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics (see ``bench/README.md``).  Human-readable lines, with
units and sample counts, come first; the last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The program is imported from ``src/`` beside this
directory; without it the script exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layers import LayerCoverageError, Recorder, layer_metrics
from pace import REFERENCE_PROBE_S, Pacer

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"

#: Set-ups per run; setup_s is their median.
SETUPS = 3

#: What a fresh interpreter imports to reach every layer the workloads
#: use; its paced time is the import share of setup_s.
IMPORTS = ("repro.circuit_study.study", "repro.study.sweeps",
           "repro.study.registry", "repro.service.server")

#: Run by the fresh interpreter: NumPy is already loaded by ``pace``, so
#: the timed share is the program's own modules.
IMPORT_SCRIPT = f"""
import importlib, time
from pace import Pacer
with Pacer() as pacer:
    start = time.perf_counter()
    for name in {IMPORTS!r}:
        importlib.import_module(name)
    seconds = time.perf_counter() - start
print(pacer.paced(start, seconds)[1])
"""


def fresh_import_seconds() -> float:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SOURCE), str(Path(__file__).resolve().parent)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    child = subprocess.run([sys.executable, "-c", IMPORT_SCRIPT], env=env,
                           cwd=ROOT, check=True, capture_output=True,
                           text=True, timeout=120)
    return float(child.stdout)


def paced_prepare_seconds(workload) -> float:
    with Pacer() as pacer:
        start = time.perf_counter()
        workload.prepare()
        seconds = time.perf_counter() - start
    return pacer.paced(start, seconds)[1]


def end_to_end(workload, setups, passes):
    """``name -> (value, samples)`` from the untraced passes."""
    untraced = [p for p in passes if not p["traced"]]
    ops = [op for p in untraced for op in p["ops"] if op.ok]
    heavy = [op.time_s * 1e3 for op in ops if op.kind in workload.heavy]
    light = [op.time_s * 1e3 for op in ops if op.kind in workload.light]
    if workload.paced:
        # A pass holds two requests of unlike cost, so the median request
        # would be the mean of the slowest light and the fastest heavy one.
        ms = [statistics.fmean(op.time_s * 1e3 for op in p["ops"])
              for p in untraced]
        kind_ms = statistics.median
    else:
        ms = [op.time_s * 1e3 for op in ops]
        # Means, not medians: on the service the delta latency is a mix
        # of one-poll and two-poll requests, and a median jumps between
        # the two modes where a mean moves with the mix.
        kind_ms = statistics.fmean
    return {
        "setup_s": (statistics.median(setups), len(setups)),
        "wall_s": (statistics.median(p["wall"] for p in untraced),
                   len(untraced)),
        "request_p50_ms": (statistics.median(ms), len(ms)),
        "heavy_ms": (kind_ms(heavy), len(heavy)),
        "light_ms": (kind_ms(light), len(light)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, 1),
    }


def pacing_summary(passes):
    """Human-readable figures of a paced run: ``name -> (value, samples)``."""
    probes = [d for p in passes for d in p["probes"]]
    return {
        "raw_wall_s": (statistics.median(p["raw_wall"] for p in passes),
                       len(passes)),
        "host_slowdown": (statistics.median(probes) / REFERENCE_PROBE_S,
                          len(probes)),
    }


def per_layer(workload, recorder, passes):
    """``name -> value`` from the traced passes, plus the tracing
    overhead against the untraced passes of the same run."""
    traced = [p for p in passes if p["traced"]]
    untraced = [p for p in passes if not p["traced"]]
    metrics = layer_metrics(recorder, len(traced))
    metrics.update(workload.layer_extras(
        [op for p in traced for op in p["ops"]], recorder.intervals))
    metrics["trace.overhead_frac"] = (
        statistics.median(p["wall"] for p in traced)
        / statistics.median(p["wall"] for p in untraced) - 1.0)
    return metrics


def measure(workload, seconds: float, trace: bool):
    """Set up, take the references, then run passes for ``seconds``
    (with ``trace``, every second pass runs under the recorder)."""
    setups = []
    for index in range(SETUPS):
        setups.append(fresh_import_seconds()
                      + paced_prepare_seconds(workload))
        if index + 1 < SETUPS:
            workload.discard()
    workload.reference()

    recorder = Recorder() if trace else None
    pacer = Pacer() if workload.paced and not trace else None
    passes = []
    start = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        workload.stage()
        if traced:
            recorder.install()
        try:
            with pacer if pacer is not None else contextlib.nullcontext():
                pass_start = time.perf_counter()
                ops = workload.run_pass()
                wall = time.perf_counter() - pass_start
        finally:
            if traced:
                recorder.uninstall()
        record = {"wall": wall, "traced": traced, "ops": ops}
        if pacer is not None:
            for op in ops:
                op.seconds, op.paced_s = pacer.paced(op.start, op.seconds)
            record["raw_wall"], record["wall"] = pacer.paced(pass_start, wall)
            record["probes"] = [d for _, d in pacer.samples]
            pacer.samples.clear()
        for op in ops:
            workload.check(op)
        passes.append(record)
        if (time.perf_counter() - start >= seconds
                and (not trace or len(passes) >= 2)):
            break

    if trace:
        recorder.check_coverage(workload.name)
        return passes, {name: (value, None) for name, value
                        in per_layer(workload, recorder, passes).items()}
    figures = end_to_end(workload, setups, passes)
    return passes, figures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SOURCE))
    try:
        import repro  # noqa: F401  (the program under test)
    except ImportError as error:
        print(f"cannot import the program from {SOURCE}: {error}",
              file=sys.stderr)
        return 2
    # The workloads import the program, so they load after the check.
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as stream:
        declared = json.load(stream)["per_layer" if args.trace
                                     else "end_to_end"]

    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    workload = None
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        passes, figures = measure(workload, args.seconds, bool(args.trace))
    except LayerCoverageError as error:
        print(f"layer coverage check failed: {error}", file=sys.stderr)
        return 3
    finally:
        if workload is not None:
            workload.close()
        shutil.rmtree(workdir, ignore_errors=True)

    ops = [op for p in passes for op in p["ops"]]
    failed = [f"{op.kind}: {op.problem}" for op in ops if not op.ok]
    failed += workload.problems
    for problem in failed[:10]:
        print(f"failed: {problem}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(passes)} ops={len(ops)} failed={len(failed)} "
          f"error_rate={len(failed) / len(ops):.4f}")
    units = {metric["name"]: metric["unit"] for metric in declared}
    extra = {} if args.trace else workload.summary(
        [op for p in passes for op in p["ops"] if op.ok])
    if workload.paced and not args.trace:
        extra.update(pacing_summary(passes))
    for name, (value, count) in {**figures, **extra}.items():
        samples = "" if count is None else f"  (n={count})"
        print(f"  {name:<28} {value:12.6g} {units.get(name, '')}{samples}")

    print(json.dumps({
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {metric["name"]: {"value": figures[metric["name"]][0],
                                     "unit": metric["unit"]}
                    for metric in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
