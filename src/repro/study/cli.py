"""The ``repro`` command line: every paper scenario reachable headlessly.

Examples::

    python -m repro list
    python -m repro run fig7 --json fig7.json
    python -m repro run fig2 --seed 7 --trials 500 --json -
    python -m repro run fig8 --text
    python -m repro run fig3 --json - --cache .repro-cache
    python -m repro sweep --engine immunity --axis cnts_per_trial=2,4,8 \
        --axis technique=vulnerable,compact --trials 500 --jobs 4 --json -
    python -m repro sweep --engine transient --axis vdd=0.8:1.0:5 \
        --set cell=NAND2 --json sweep.json
    python -m repro circuit --generate adder:8 --trials 500 --json -
    python -m repro circuit design.v --cache .repro-cache
    python -m repro sweep --engine circuit --axis metallic_fraction=0:0.02:3 \
        --set circuit=adder:4 --set draws=500 --json -
    python -m repro batch manifest.json --cache .repro-cache --jobs 4
    python -m repro sweep --engine immunity --axis cnts_per_trial=2,4,8 \
        --cache .repro-cache --trace sweep-trace.json --json -
    python -m repro trace summarize sweep-trace.json
    python -m repro serve --port 8000 --cache .repro-cache --workers 2
    python -m repro cache stats --cache .repro-cache
    python -m repro cache prune --cache .repro-cache
    python -m repro cache prune --cache .repro-cache --max-age 86400 \
        --max-entries 512

``--json -`` streams the serialized result envelope (schema
``repro-study-result/v1``; see ``docs/repro_result.schema.json``) to
stdout; ``--json PATH`` writes it to a file.  Without ``--json`` the
result's text rendering (``str(result)``) is printed.

``repro circuit FILE.v | --generate FAMILY[:BITS]`` is a spelling of
``repro run circuit --param circuit=<source>``: one path, one study
address, one cached envelope.

Runtime flags (``run``, ``sweep``, ``circuit`` and ``batch``): ``--jobs
N`` shards the work over the runtime scheduler (bit-identical to
serial); ``--cache DIR`` consults and fills the content-addressed result
store (also enabled store-wide by ``$REPRO_CACHE_DIR``; ``--no-cache``
turns it off); ``--trace PATH`` records a ``repro-trace/v1`` envelope of
the invocation — spans, cache counters, metrics snapshot — without
changing the result by a single byte (``repro trace summarize PATH``
renders its per-phase time breakdown).  With a cache attached, ``sweep``
is **incremental by default**: the requested grid is diffed against the
persistent corner store and only missing corners execute, so extending
an axis of an already-cached sweep costs O(delta), not O(grid); the
circuit study reuses stored per-cell corners the same way.  The cache
outcome (``hit`` / ``miss`` / ``partial:<hits>/<corners>``) is written
to stderr and recorded in the result's provenance.
"""

from __future__ import annotations

import argparse
import json as json_module
import os
import sys
from contextlib import contextmanager
from typing import Any, Dict, Optional, Sequence

from ..errors import ReproError, StudyError
from .registry import get_study, list_studies, run_study
from .results import StudyResult
from .spec import SweepSpec, _parse_scalar
from .sweeps import ENGINES


def _parse_assignment(text: str) -> tuple:
    """``"key=value"`` -> (key, parsed value).

    ``true``/``false``/``none`` (any case, ``null`` too) coerce to the
    Python literals.  Commas build a tuple; a trailing comma makes a
    one-element tuple (``tube_counts=4,`` -> ``(4,)``), which is how
    sequence-typed runner parameters take a single value from the command
    line.  Malformed assignments raise :class:`StudyError`, which the CLI
    turns into a one-line message and exit code 2 — never a traceback.
    """
    key, sep, raw = text.partition("=")
    key = key.strip()
    if not sep or not key:
        raise StudyError(f"Malformed parameter {text!r}; expected key=value")
    raw = raw.strip()
    if not raw:
        raise StudyError(f"Parameter {text!r} has no value; expected key=value")
    if "," in raw:
        tokens = [token for token in raw.split(",") if token.strip()]
        if not tokens:
            raise StudyError(f"Parameter {text!r} has no values")
        return key, tuple(_parse_value(token) for token in tokens)
    return key, _parse_value(raw)


def _parse_value(token: str):
    """One CLI value: the ``true``/``false``/``none`` literals, then the
    int/float/str scalar fallback — applied uniformly to scalars and to
    every element of a comma-separated tuple."""
    lowered = token.strip().lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    if lowered in ("none", "null"):
        return None
    return _parse_scalar(token)


def _parse_assignments(texts: Optional[Sequence[str]],
                       flag: str) -> Dict[str, Any]:
    """Parse repeated ``KEY=VALUE`` flags, naming the flag in errors."""
    values: Dict[str, Any] = {}
    for text in texts or []:
        try:
            key, value = _parse_assignment(text)
        except StudyError as error:
            raise StudyError(f"{flag} {error}") from error
        values[key] = value
    return values


def _resolve_cache(args):
    """The ``--cache``/``--no-cache``/``$REPRO_CACHE_DIR`` resolution.

    Returns a :class:`~repro.runtime.cache.ResultCache` or ``None``; the
    explicit flags win over the environment variable.
    """
    from ..runtime.cache import ENV_CACHE_DIR, as_cache

    if args.no_cache:
        return None
    return as_cache(args.cache or bool(os.environ.get(ENV_CACHE_DIR)))


@contextmanager
def _traced(args, name: str, stderr):
    """Trace the wrapped invocation when ``--trace PATH`` was given.

    Activates a fresh tracer around the body (the instrumented layers
    pick it up thread-locally), then writes the ``repro-trace/v1``
    envelope to the requested path.  Without ``--trace`` this is a pure
    pass-through — the command runs exactly as before.
    """
    path = args.trace
    if not path:
        yield
        return
    from ..obs import trace as obs_trace

    tracer = obs_trace.Tracer(name, command=name.partition(":")[0])
    with tracer.activate():
        yield
    obs_trace.write_trace(tracer.to_document(), path)
    stderr.write(f"trace written: {path}\n")


def _emit(result: StudyResult, args, store, stdout, stderr) -> int:
    """Report the cache outcome to stderr, then write the result as
    ``--json``/``--text`` ask (text alone without ``--json``)."""
    if store is not None and result.provenance.cache is not None:
        stderr.write(f"cache {result.provenance.cache}: {store.root}\n")
    if args.json is not None:
        if args.json == "-":
            stdout.write(result.to_json() + "\n")
        else:
            result.to_json(path=args.json)
            stdout.write(f"wrote {args.json}\n")
    if args.text or args.json is None:
        stdout.write(str(result) + "\n")
    return 0


def _seed_flags(args) -> Dict[str, Any]:
    """The given ``--seed``/``--trials`` as runner keywords (``run``,
    ``sweep``, ``circuit``).  :func:`~repro.study.registry.run_study`
    rejects them for an unseeded study as unknown parameters, and
    :meth:`~repro.runtime.manifest.ManifestEntry.from_mapping` for a
    deterministic sweep engine."""
    return {name: getattr(args, name) for name in ("seed", "trials")
            if getattr(args, name) is not None}


def _circuit_source(args) -> str:
    """``repro circuit``'s input: the Verilog file's text or the
    ``--generate`` spec, taken verbatim — never through
    :func:`_parse_assignment`, whose comma split would break every
    Verilog port list."""
    if args.verilog is None and args.generate is None:
        raise StudyError(
            "repro circuit needs a Verilog file or --generate FAMILY[:BITS]")
    if args.verilog is not None and args.generate is not None:
        raise StudyError(
            "repro circuit takes a Verilog file or --generate, not both")
    if args.generate is not None:
        return args.generate
    # A missing/unreadable file surfaces as `error: ...` + exit 2 via
    # main()'s OSError handler, like every other CLI failure.
    with open(args.verilog, "r", encoding="utf-8") as stream:
        return stream.read()


def _cmd_list(args, stdout, stderr) -> int:
    studies = list_studies()
    if args.json:
        stdout.write(json_module.dumps(
            [
                {
                    "name": definition.name,
                    "figure": definition.figure,
                    "description": definition.description,
                    "aliases": list(definition.aliases),
                }
                for definition in studies
            ],
            indent=2,
        ) + "\n")
        return 0
    header = f"{'name':<18} {'figure':<12} description"
    stdout.write(header + "\n")
    stdout.write("-" * 72 + "\n")
    for definition in studies:
        aliases = f"  (aliases: {', '.join(definition.aliases)})" \
            if definition.aliases else ""
        stdout.write(
            f"{definition.name:<18} {definition.figure:<12} "
            f"{definition.description}{aliases}\n"
        )
    stdout.write(
        "\nrun one with: python -m repro run <name> [--json out.json]\n"
    )
    return 0


def _cmd_run(args, stdout, stderr) -> int:
    definition = get_study(args.study)
    params = _parse_assignments(args.param, "--param")
    if args.command == "circuit":
        params.update(circuit=_circuit_source(args), backend=args.backend)
    params.update(_seed_flags(args))
    store = _resolve_cache(args)
    with _traced(args, f"run:{definition.name}", stderr):
        result = run_study(definition.name, cache=store, jobs=args.jobs,
                           **params)
    return _emit(result, args, store, stdout, stderr)


def _cmd_sweep(args, stdout, stderr) -> int:
    from ..runtime.manifest import ManifestEntry

    spec = SweepSpec.parse(args.axis, mode=args.mode)
    entry = ManifestEntry.from_mapping({
        "study": "sweep", "engine": args.engine, "mode": args.mode,
        "axes": {axis.name: axis.values for axis in spec.axes},
        "params": {**_parse_assignments(args.set, "--set"),
                   **_seed_flags(args)},
    })
    store = _resolve_cache(args)
    with _traced(args, f"sweep:{args.engine}", stderr):
        result = entry.run(store, args.jobs, args.backend)
    return _emit(result, args, store, stdout, stderr)


def _cmd_batch(args, stdout, stderr) -> int:
    from ..runtime.manifest import run_manifest

    store = _resolve_cache(args)
    with _traced(args, "batch", stderr):
        result = run_manifest(args.manifest, cache=store, jobs=args.jobs)
    return _emit(result, args, store, stdout, stderr)


def _cmd_serve(args, stdout, stderr) -> int:
    from ..service.server import ReproService, describe_endpoints

    store = _resolve_cache(args)
    service = ReproService(
        host=args.host,
        port=args.port,
        cache=store,
        jobs=args.jobs,
        backend=args.backend,
        workers=args.workers,
        verbose=args.verbose,
    )
    stdout.write(f"repro service listening on {service.url}\n")
    for endpoint, meaning in describe_endpoints().items():
        stdout.write(f"  {endpoint:<24} {meaning}\n")
    if store is not None:
        stdout.write(f"  cache: {store.root}\n")
    try:
        service.serve_forever()
    except KeyboardInterrupt:
        stderr.write("shutting down\n")
    finally:
        service.close()
    return 0


def _cmd_cache(args, stdout, stderr) -> int:
    from ..runtime.cache import ResultCache

    store = ResultCache(args.cache)   # None: $REPRO_CACHE_DIR or the default
    if args.cache_command == "stats":
        stats = store.stats()
        if args.json:
            stdout.write(json_module.dumps(stats.as_dict(), indent=2,
                                           sort_keys=True) + "\n")
        else:
            stdout.write(str(stats) + "\n")
        return 0
    # Mirror _parse_assignment's discipline: malformed bounds become a
    # one-line `error: ...` naming the flag and exit code 2.
    for flag, bound in (("--max-age", args.max_age),
                        ("--max-entries", args.max_entries)):
        if bound is not None and bound < 0:
            raise StudyError(f"{flag} must be >= 0, got {bound:g}")
    removed = store.prune(study=args.study, max_age_s=args.max_age,
                          max_entries=args.max_entries)
    stdout.write(f"pruned {removed} entr{'y' if removed == 1 else 'ies'} "
                 f"from {store.root}\n")
    return 0


def _cmd_trace(args, stdout, stderr) -> int:
    from ..obs import trace as obs_trace

    try:
        with open(args.file, "r", encoding="utf-8") as stream:
            document = json_module.load(stream)
    except ValueError as error:
        raise StudyError(f"{args.file} is not JSON: {error}") from error
    found = document.get("schema") if isinstance(document, dict) else None
    if found != obs_trace.TRACE_SCHEMA:
        raise StudyError(
            f"{args.file} is not a {obs_trace.TRACE_SCHEMA} envelope "
            f"(schema={found!r})"
        )
    stdout.write(obs_trace.summarize_trace(document) + "\n")
    return 0


def _add_runtime_flags(parser: argparse.ArgumentParser,
                       backend: bool = False, trace: bool = True) -> None:
    """The scheduler/cache flags shared by ``run``, ``sweep``,
    ``circuit``, ``batch`` and ``serve``."""
    parser.add_argument("--jobs", type=int, default=None, metavar="N",
                        help="shard the work over N workers (bit-identical "
                             "to serial; negative = one per CPU)")
    parser.add_argument("--cache", metavar="DIR", default=None,
                        help="consult/fill the content-addressed result "
                             "store at DIR (default store: $REPRO_CACHE_DIR)")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the result cache even if "
                             "$REPRO_CACHE_DIR is set")
    if trace:
        parser.add_argument("--trace", metavar="PATH", default=None,
                            help="write a repro-trace/v1 envelope of this "
                                 "invocation to PATH (observation-only: "
                                 "the result is bit-identical either way)")
    if backend:
        from ..runtime.scheduler import BACKENDS

        parser.add_argument("--backend", choices=BACKENDS, default=None,
                            help="scheduler backend (default: process pool "
                                 "when --jobs > 1)")


def _add_study_flags(parser: argparse.ArgumentParser,
                     seeded: Optional[str] = None, param: bool = False,
                     backend: bool = False, what: str = "result") -> None:
    """The flags of the commands that emit a result (``run``, ``sweep``,
    ``circuit``, ``batch``): ``--json``/``--text``, ``--seed``/``--trials``
    when ``seeded`` names who takes them (their help text),
    ``--param`` and the runtime flags."""
    parser.add_argument("--json", metavar="PATH",
                        help=f"write the serialized {what} ('-' = stdout)")
    parser.add_argument("--text", action="store_true",
                        help="also print the text rendering with --json")
    if seeded is not None:
        parser.add_argument("--seed", type=int, default=None,
                            help=f"Monte Carlo seed ({seeded})")
        parser.add_argument("--trials", type=int, default=None,
                            help=f"Monte Carlo trial count ({seeded})")
    if param:
        parser.add_argument("--param", action="append", metavar="KEY=VALUE",
                            help="extra runner parameter (repeatable; commas "
                                 "build a list, trailing comma a one-element "
                                 "list, e.g. tube_counts=4,; true/false/none "
                                 "coerce to the Python literals)")
    _add_runtime_flags(parser, backend=backend)


def _add_command(subparsers, name: str, handler, help: str,
                 **defaults) -> argparse.ArgumentParser:
    command = subparsers.add_parser(name, help=help)
    command.set_defaults(handler=handler, **defaults)
    return command


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduce the paper's figures and tables headlessly "
            "(typed Study API over the vectorized engines)."
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    list_parser = _add_command(subparsers, "list", _cmd_list,
                               "list every runnable study")
    list_parser.add_argument("--json", action="store_true",
                             help="emit the study table as JSON")

    run_parser = _add_command(
        subparsers, "run", _cmd_run,
        "run one study (repro run fig7 --json out.json)")
    run_parser.add_argument("study", help="study name or alias (see: repro list)")
    _add_study_flags(run_parser, "seeded studies only", param=True)

    sweep_parser = _add_command(
        subparsers, "sweep", _cmd_sweep,
        "run a unified sweep (repro sweep --axis vdd=0.8:1.0:5 ...)")
    sweep_parser.add_argument("--axis", action="append", required=True,
                              metavar="NAME=SPEC",
                              help="axis as name=start:stop:steps, name=a,b,c "
                                   "or name=value (repeatable)")
    sweep_parser.add_argument("--engine",
                              choices=tuple(ENGINES), default="immunity")
    sweep_parser.add_argument("--mode", choices=("grid", "zip"), default="grid",
                              help="cartesian grid or lock-step zip expansion")
    sweep_parser.add_argument("--set", action="append", metavar="KEY=VALUE",
                              help="fixed value for an unswept axis (repeatable)")
    seeded = ", ".join(name for name, engine in ENGINES.items()
                       if engine.seeded)
    _add_study_flags(sweep_parser, f"seeded engines only: {seeded}; "
                                   "default: seed 2009, 200 trials",
                     backend=True)

    circuit_parser = _add_command(
        subparsers, "circuit", _cmd_run,
        "run the circuit-level yield/delay/energy study on a Verilog "
        "netlist or a built-in generator "
        "(repro circuit --generate adder:8 --json -)", study="circuit")
    circuit_parser.add_argument("verilog", nargs="?", default=None,
                                metavar="FILE.V",
                                help="structural Verilog netlist to analyse")
    circuit_parser.add_argument("--generate", metavar="FAMILY[:BITS]",
                                default=None,
                                help="use a built-in circuit instead of a "
                                     "file: adder:8, comparator:4, mac:4, "
                                     "fulladder")
    _add_study_flags(circuit_parser, "default: seed 2009, 200 trials per "
                                     "unique cell", param=True, backend=True)

    batch_parser = _add_command(
        subparsers, "batch", _cmd_batch,
        "run a JSON manifest of studies with cross-study dedup "
        "(repro batch manifest.json --cache .repro-cache)")
    batch_parser.add_argument("manifest",
                              help="path to the manifest JSON (a list of "
                                   "{study, params} / sweep entries)")
    _add_study_flags(batch_parser, what="batch outcome")

    serve_parser = _add_command(
        subparsers, "serve", _cmd_serve,
        "run the async study service: an HTTP job API "
        "(repro serve --port 8000 --cache .repro-cache)")
    serve_parser.add_argument("--host", default="127.0.0.1",
                              help="bind address (default: 127.0.0.1)")
    serve_parser.add_argument("--port", type=int, default=8000,
                              help="bind port (0 = ephemeral; default: 8000)")
    serve_parser.add_argument("--workers", type=int, default=2, metavar="N",
                              help="concurrent job slots (default: 2)")
    serve_parser.add_argument("--verbose", action="store_true",
                              help="log each HTTP request to stderr")
    # The service records one trace per job (GET /jobs/<id>/trace), so a
    # process-level --trace would be misleading here.
    _add_runtime_flags(serve_parser, backend=True, trace=False)

    trace_sub = subparsers.add_parser(
        "trace", help="inspect repro-trace/v1 envelopes written by --trace",
    ).add_subparsers(dest="trace_command", required=True)
    _add_command(trace_sub, "summarize", _cmd_trace,
                 "per-phase time breakdown of a trace file",
                 ).add_argument("file", help="trace JSON written by --trace "
                                             "or GET /jobs/<id>/trace")

    cache_sub = subparsers.add_parser(
        "cache", help="inspect or prune the result cache",
    ).add_subparsers(dest="cache_command", required=True)
    stats_parser = _add_command(cache_sub, "stats", _cmd_cache,
                                "entry counts and byte sizes")
    prune_parser = _add_command(
        cache_sub, "prune", _cmd_cache,
        "delete cache entries (all, one study's, or bounded by age / count)")
    for store_parser in (stats_parser, prune_parser):
        store_parser.add_argument("--cache", metavar="DIR", default=None,
                                  help="store location (default: "
                                       "$REPRO_CACHE_DIR or .repro-cache)")
    stats_parser.add_argument("--json", action="store_true",
                              help="emit the stats as JSON")
    prune_parser.add_argument("--study", default=None,
                              help="only prune entries of this study "
                                   "(corner envelopes: 'corner')")
    prune_parser.add_argument("--max-age", type=float, default=None,
                              metavar="SECONDS",
                              help="drop entries older than SECONDS "
                                   "(default: no age bound)")
    prune_parser.add_argument("--max-entries", type=int, default=None,
                              metavar="N",
                              help="keep only the N newest entries per "
                                   "granularity (study entries and corner "
                                   "envelopes bounded independently)")

    return parser


def main(argv: Optional[Sequence[str]] = None,
         stdout=None, stderr=None) -> int:
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    parser = build_parser()
    args = parser.parse_args(list(argv) if argv is not None else None)
    try:
        return args.handler(args, stdout, stderr)
    except (ReproError, OSError) as error:
        stderr.write(f"error: {error}\n")
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via python -m repro
    raise SystemExit(main())
