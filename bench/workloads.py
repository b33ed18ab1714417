"""The three workloads: seeded inputs, set-up, one pass, output checks.

Every workload runs in this one process with the serial scheduler
backend, so every engine call happens in the process being measured.
The seed makes the inputs; the program only ever sees the inputs.

Engine entry points are called through their module attributes
(``sweeps.run_sweep_study``), so the wrappers ``layers.py`` binds there
see the calls.  A workload is driven by ``run.py`` as::

    prepare()      # program set-up, timed as setup_s (repeated)
    discard()      # undo prepare() before the next repetition
    reference()    # untraced reference outputs, not timed
    stage()        # untraced, untimed preparation of the next pass
    run_pass()     # one timed pass -> list of Op
    check(op)      # compare one op with the reference, untimed
    close()
"""

from __future__ import annotations

import functools
import hashlib
import http.client
import json
import random
import shutil
import statistics
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import repro.circuit_study.study as circuit_study
import repro.immunity.montecarlo as montecarlo
import repro.study.sweeps as sweeps
from repro.core.standard_cell import assemble_cell
from repro.logic.functions import standard_gate
from repro.runtime import ResultCache
from repro.service.jobs import TERMINAL_STATES
from repro.service.server import ReproService
from repro.study import SweepSpec
from repro.study.registry import run_study
from repro.study.serialize import encode


@dataclass
class Op:
    """One top-level operation of a pass: a study call, a sweep call or
    an HTTP request (POST to result body)."""

    kind: str
    seconds: float
    data: Dict[str, Any] = field(default_factory=dict)
    ok: bool = False
    problem: str = ""
    #: ``time.perf_counter()`` when the operation began.
    start: float = 0.0
    #: Reference-speed seconds (see ``pace.py``) on paced workloads.
    paced_s: Optional[float] = None

    @property
    def time_s(self) -> float:
        """The time the metrics use: paced where the workload is paced."""
        return self.seconds if self.paced_s is None else self.paced_s


def digest(envelope: Dict[str, Any]) -> str:
    """SHA-256 of a result envelope with ``provenance.cache`` removed:
    the simulated results, which a deterministic simulator must
    reproduce bit for bit."""
    document = dict(envelope)
    document["provenance"] = {key: value for key, value
                              in envelope["provenance"].items()
                              if key != "cache"}
    text = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _fail(op: Op, problem: str) -> None:
    op.ok, op.problem = False, problem


class CallCounter:
    """Counts calls of one module-level function while installed (the
    engine-call counter of the existing benches)."""

    def __init__(self, module, name: str):
        self.module, self.name = module, name
        self.original = getattr(module, name)
        self.calls = 0

        @functools.wraps(self.original)
        def counting(*args, **kwargs):
            self.calls += 1
            return self.original(*args, **kwargs)

        setattr(module, name, counting)

    def remove(self) -> None:
        setattr(self.module, self.name, self.original)


#: Per-layer metrics only the service workload produces (zero elsewhere).
SERVICE_METRICS = (
    "service.http_self_ms", "service.queue_wait_ms", "service.run_ms",
    "service.wire_wait_ms", "service.polls_per_request",
    "service.dedup_ratio", "service.job_table_size",
)


class Workload:
    name = ""
    #: Op kinds whose latency is heavy_ms / light_ms.
    heavy: Tuple[str, ...] = ()
    light: Tuple[str, ...] = ()
    #: A compute workload: its untraced passes run under the ``Pacer``
    #: and its timings are reference-speed medians (see ``run.py``).
    paced = True

    def __init__(self, seed: int, workdir: Path):
        self.rng = random.Random(seed)
        self.workdir = workdir
        self.problems: List[str] = []

    def prepare(self) -> None:
        pass

    def discard(self) -> None:
        pass

    def reference(self) -> None:
        pass

    def stage(self) -> None:
        pass

    def run_pass(self) -> List[Op]:
        raise NotImplementedError

    def check(self, op: Op) -> None:
        raise NotImplementedError

    def summary(self, ops: List[Op]) -> Dict[str, Tuple[float, int]]:
        """Extra human-readable figures: name -> (value, samples)."""
        return {}

    def layer_extras(self, traced: List[Op],
                     intervals: List[Tuple[float, float]]) -> Dict[str, float]:
        """Workload-specific per-layer metrics from the traced ops and the
        recorded HTTP handler intervals (zero where the layer is idle)."""
        return dict.fromkeys(SERVICE_METRICS, 0.0)

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# circuit_cold
# ---------------------------------------------------------------------------

class CircuitCold(Workload):
    """``run_circuit_study`` on adder:8 then comparator:8, uncached: the
    transient kernel at batch 2 does almost all of the work."""

    name = "circuit_cold"
    CIRCUITS = ("adder:8", "comparator:8")
    heavy = ("comparator:8",)
    light = ("adder:8",)
    TRIALS, DRAWS = 150, 2000

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.study_seed = self.rng.randrange(2 ** 32)
        self.counter = CallCounter(montecarlo, "run_immunity_trials")
        self.refs: Dict[str, str] = {}

    def _run(self, circuit: str) -> Op:
        before = self.counter.calls
        start = time.perf_counter()
        result = circuit_study.run_circuit_study(
            circuit, trials=self.TRIALS, draws=self.DRAWS,
            seed=self.study_seed, cache=None)
        seconds = time.perf_counter() - start
        return Op(circuit, seconds, {"result": result,
                                     "immunity_calls":
                                         self.counter.calls - before},
                  start=start)

    def run_pass(self):
        return [self._run(circuit) for circuit in self.CIRCUITS]

    def check(self, op):
        result = op.data.pop("result")
        op.ok = True
        if op.data["immunity_calls"] != result.unique_cells:
            _fail(op, f"{op.data['immunity_calls']} immunity calls for "
                      f"{result.unique_cells} unique cells")
        elif result.provenance.cache is not None:
            _fail(op, f"uncached study reports cache "
                      f"{result.provenance.cache!r}")
        else:
            # The first (always untraced) pass is the reference: a second
            # uncached run in set-up would take the same code path and
            # cost a third of the run's time budget.
            found = digest(result.to_json_dict())
            if found != self.refs.setdefault(op.kind, found):
                _fail(op, "result differs from the first pass")

    def close(self):
        self.counter.remove()


# ---------------------------------------------------------------------------
# sweep_cold
# ---------------------------------------------------------------------------

class SweepCold(Workload):
    """A 240-corner transient grid (batch 120 per cell) and a 96-corner
    immunity grid, both into a fresh empty corner store."""

    name = "sweep_cold"
    heavy = ("transient",)
    light = ("immunity",)
    IMMUNITY_TRIALS = 500

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        rng = self.rng
        # The seed picks interior loads and supplies; the extremes are
        # fixed because they set the shared per-cell time base, so every
        # seed integrates the same number of sub-steps and samples.
        loads = [k * 1e-16 for k in
                 sorted([2, 80] + rng.sample(range(3, 80), 6))]
        vdds = [k / 100 for k in
                sorted([80, 110] + rng.sample(range(81, 110), 3))]
        angles = [k / 10 for k in sorted(rng.sample(range(20, 251), 4))]
        self.immunity_seed = rng.randrange(2 ** 32)
        self.transient_spec = SweepSpec.from_mapping({
            "cell": ["INV", "NAND2"], "drive": [1.0, 2.0, 4.0],
            "load_f": loads, "vdd": vdds})
        self.immunity_spec = SweepSpec.from_mapping({
            "gate": ["NAND2", "NOR2", "NAND3", "AOI31"],
            "technique": ["baseline", "compact", "vulnerable"],
            "max_angle_deg": angles, "cnts_per_trial": [4, 8]})
        self.corners = len(self.transient_spec) + len(self.immunity_spec)
        self.refs: Dict[str, str] = {}
        self.passes = 0

    def _sweep(self, kind: str, store):
        if kind == "transient":
            return sweeps.run_sweep_study(
                self.transient_spec, engine="transient", cache=store)
        return sweeps.run_sweep_study(
            self.immunity_spec, engine="immunity",
            trials=self.IMMUNITY_TRIALS, seed=self.immunity_seed,
            cache=store)

    def reference(self):
        # Uncached: the reference comes through the store-less path, so
        # every pass also cross-checks the corner-store path against it.
        for kind in ("transient", "immunity"):
            self.refs[kind] = digest(self._sweep(kind, None).to_json_dict())

    def run_pass(self):
        self.passes += 1
        root = self.workdir / f"sweep-store-{self.passes}"
        store = ResultCache(root)
        ops = []
        for kind in ("transient", "immunity"):
            start = time.perf_counter()
            result = self._sweep(kind, store)
            ops.append(Op(kind, time.perf_counter() - start,
                          {"result": result, "root": root}, start=start))
        return ops

    def check(self, op):
        result = op.data.pop("result")
        op.ok = True
        if result.provenance.cache != "miss":
            _fail(op, f"cold sweep reports cache {result.provenance.cache!r}")
        elif digest(result.to_json_dict()) != self.refs[op.kind]:
            _fail(op, "result differs from the uncached reference")
        if op.kind == "immunity":
            root = op.data.pop("root")
            stored = ResultCache(root).stats().corner_entries
            if op.ok and stored != self.corners:
                _fail(op, f"store holds {stored} corners, "
                          f"expected {self.corners}")
            shutil.rmtree(root, ignore_errors=True)

    def summary(self, ops):
        out = {}
        for kind, spec in (("transient", self.transient_spec),
                           ("immunity", self.immunity_spec)):
            times = [op.time_s for op in ops if op.kind == kind]
            if times:
                out[f"{kind}_corners_per_s"] = (
                    len(spec) / statistics.median(times), len(times))
        return out


# ---------------------------------------------------------------------------
# service_warm
# ---------------------------------------------------------------------------

class ServiceError(RuntimeError):
    """A request that got a non-2xx answer or never finished."""


class ServiceWarm(Workload):
    """A closed-loop client on one keep-alive connection to an
    in-process ``ReproService`` over a warm store."""

    name = "service_warm"
    heavy = ("delta",)
    light = ("hit", "dedup")
    paced = False
    ROUND = ("delta",) * 4 + ("hit",) * 2 + ("dedup",) * 2 + ("study",) * 2
    GATE, TECHNIQUE, TRIALS, BASE_ANGLES = "NAND3", "vulnerable", 300, 128
    REQUEST_DEADLINE_S = 60.0

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        rng = self.rng
        self.mc_seed = rng.randrange(2 ** 32)
        self.base = [k / 20 for k in
                     sorted(rng.sample(range(5, 600), self.BASE_ANGLES))]
        self.used_angles = set(self.base)
        self.used_widths = {4.0}
        self.planned: List[Tuple[str, Dict[str, Any], Any]] = []
        self.last_delta: Optional[Dict[str, Any]] = None
        self.delta_digests: Dict[str, str] = {}
        self.hit_digests: Dict[str, str] = {}
        self.prepared = 0
        self.store = self.server = self.thread = self.conn = None

    # -- inputs --------------------------------------------------------------

    @staticmethod
    def _key(body: Dict[str, Any]) -> str:
        return json.dumps(body, sort_keys=True)

    def _sweep_body(self, angles: List[float]) -> Dict[str, Any]:
        return {"study": "sweep", "engine": "immunity", "mode": "grid",
                "axes": {"max_angle_deg": angles},
                "params": {"trials": self.TRIALS, "seed": self.mc_seed,
                           "gate": self.GATE, "technique": self.TECHNIQUE}}

    def _fresh(self, used: set, low: int, high: int, scale: float) -> float:
        while True:
            value = self.rng.randrange(low, high) / scale
            if value not in used:
                used.add(value)
                return value

    def _next_round(self) -> List[str]:
        kinds = list(self.ROUND)
        self.rng.shuffle(kinds)
        if self.last_delta is None:
            # A dedup resubmits the previous delta, so one must come first.
            first_delta = kinds.index("delta")
            first_dedup = kinds.index("dedup")
            if first_dedup < first_delta:
                kinds[first_delta], kinds[first_dedup] = "dedup", "delta"
        return kinds

    # -- set-up --------------------------------------------------------------

    def _sweep(self, angles: List[float], store):
        return sweeps.run_sweep_study(
            SweepSpec.from_mapping({"max_angle_deg": angles}),
            engine="immunity", trials=self.TRIALS, seed=self.mc_seed,
            cache=store, gate=self.GATE, technique=self.TECHNIQUE)

    def prepare(self):
        self.prepared += 1
        self.store = ResultCache(self.workdir / f"store-{self.prepared}")
        self.populated = self._sweep(self.base, self.store)
        run_study("fig3", cache=self.store)
        self.server = ReproService(port=0, cache=self.store, workers=2)
        self.thread = threading.Thread(target=self.server.serve_forever,
                                       daemon=True)
        self.thread.start()
        host, port = self.server.server_address[:2]
        self.conn = http.client.HTTPConnection(host, port, timeout=60)
        status, _ = self._exchange("GET", "/health")
        if status != 200:
            raise ServiceError(f"GET /health answered {status}")

    def discard(self):
        self.conn.close()
        self.server.close()
        self.thread.join(timeout=30)
        shutil.rmtree(self.workdir / f"store-{self.prepared}",
                      ignore_errors=True)
        self.store = self.server = self.thread = self.conn = None

    def reference(self):
        reference = self._sweep(self.base, None).to_json_dict()
        self.base_records = reference["payload"]["records"]
        if digest(self.populated.to_json_dict()) != digest(reference):
            self.problems.append("the populated base sweep differs from "
                                 "the uncached reference")

    # -- the client ----------------------------------------------------------

    def _exchange(self, method: str, path: str,
                  body: Optional[Dict[str, Any]] = None) -> Tuple[int, bytes]:
        data = None if body is None else json.dumps(body).encode("utf-8")
        headers = {} if data is None else {"Content-Type":
                                           "application/json"}
        self.conn.request(method, path, body=data, headers=headers)
        response = self.conn.getresponse()
        return response.status, response.read()

    def _request(self, kind: str, body: Dict[str, Any]) -> Op:
        wall_start = time.time()
        start = time.perf_counter()
        status, raw = self._exchange("POST", "/jobs", body)
        if status not in (200, 201):
            raise ServiceError(f"POST /jobs answered {status}: {raw[:200]!r}")
        posted = json.loads(raw)
        document, polls = posted, 0
        while document["status"] not in TERMINAL_STATES:
            if time.perf_counter() - start > self.REQUEST_DEADLINE_S:
                raise ServiceError(f"job {posted['id']} did not finish")
            status, raw = self._exchange("GET", f"/jobs/{posted['id']}")
            if status != 200:
                raise ServiceError(f"GET /jobs/<id> answered {status}")
            document = json.loads(raw)
            polls += 1
        if document["status"] != "done":
            raise ServiceError(f"job {posted['id']} ended "
                               f"{document['status']}: {document['error']}")
        status, result = self._exchange("GET",
                                        f"/jobs/{posted['id']}/result")
        if status != 200:
            raise ServiceError(f"GET /jobs/<id>/result answered {status}")
        seconds = time.perf_counter() - start
        return Op(kind, seconds, {
            "body": body, "result": result, "polls": polls,
            "deduplicated": posted["deduplicated"], "job": document,
            "window": (wall_start, time.time())})

    def stage(self):
        """Plan the next round.  Each ``hit`` is the base sweep plus a
        fresh angle whose study envelope is written straight into the
        store here, untimed: the service has to read that envelope, as
        no earlier job holds the same submission to attach it to."""
        self.planned = []
        for kind in self._next_round():
            if kind in ("delta", "hit"):
                angle = self._fresh(self.used_angles, 30_000_000, 60_000_000,
                                    1e6)
                body = self._sweep_body(self.base + [angle])
                if kind == "delta":
                    self.last_delta = body
                else:
                    staged = self._sweep(self.base + [angle], self.store)
                    self.hit_digests[self._key(body)] = digest(
                        staged.to_json_dict())
                self.planned.append((kind, body, angle))
            elif kind == "dedup":
                self.planned.append((kind, self.last_delta, None))
            else:
                width = self._fresh(self.used_widths, 2000, 8000, 1e3)
                self.planned.append((kind, {"study": "fig3",
                                            "params": {"unit_width": width}},
                                     width))

    def run_pass(self):
        ops = []
        for kind, body, value in self.planned:
            try:
                op = self._request(kind, body)
            except ServiceError as error:
                op = Op(kind, float("nan"), {"error": str(error)})
            op.data["value"] = value
            ops.append(op)
        return ops

    # -- checks --------------------------------------------------------------

    def _fresh_corner(self, angle: float):
        """The delta's one executed corner, straight through the engine
        with the child seed the grid gives position 128."""
        spec = SweepSpec.from_mapping({"max_angle_deg": self.base + [angle]})
        return montecarlo.run_immunity_trials(
            assemble_cell(standard_gate(self.GATE), technique=self.TECHNIQUE),
            trials=self.TRIALS, cnts_per_trial=4, max_angle_deg=angle,
            metallic_fraction=0.0, seed=spec.seeds(self.mc_seed)[-1])

    def _check_delta(self, op: Op, envelope: Dict[str, Any]) -> None:
        records = envelope["payload"]["records"]
        if op.data["job"]["cache"] != f"partial:{len(self.base)}/" \
                                      f"{len(self.base) + 1}":
            return _fail(op, f"delta status {op.data['job']['cache']!r}")
        if records[:len(self.base)] != self.base_records:
            return _fail(op, "delta's stored corners differ from the base")
        fresh = records[-1]["fields"]
        angle = op.data["value"]
        if fresh["corner"]["fields"]["bindings"] != {
                "__tuple__": [{"__tuple__": ["max_angle_deg", angle]}]}:
            return _fail(op, "delta's fresh corner has the wrong binding")
        expected = self._fresh_corner(angle)
        served = fresh["metrics"]
        if (served["failures"], served["trials"], served["failure_rate"],
                served["immune"], served["result"]) != (
                expected.failures, expected.trials, expected.failure_rate,
                expected.immune, encode(expected)):
            return _fail(op, "delta's fresh corner differs from the engine")
        self.delta_digests[self._key(op.data["body"])] = digest(envelope)

    def check(self, op):
        if "error" in op.data:
            return _fail(op, op.data["error"])
        envelope = json.loads(op.data.pop("result"))
        op.ok = True
        kind = op.kind
        if kind == "delta":
            self._check_delta(op, envelope)
        elif kind == "hit":
            if op.data["deduplicated"]:
                _fail(op, "hit attached to an earlier job")
            elif op.data["job"]["cache"] != "hit":
                _fail(op, f"hit status {op.data['job']['cache']!r}")
            elif digest(envelope) != self.hit_digests.pop(
                    self._key(op.data["body"]), None):
                _fail(op, "hit differs from the envelope staged for it")
        elif kind == "dedup":
            if not op.data["deduplicated"]:
                _fail(op, "resubmitted delta was not deduplicated")
            elif digest(envelope) != self.delta_digests.get(
                    self._key(op.data["body"])):
                _fail(op, "dedup result differs from its delta")
        else:
            reference = run_study(
                "fig3", unit_width=op.data["value"]).to_json_dict()
            if digest(envelope) != digest(reference):
                _fail(op, "fig3 result differs from the direct run")

    # -- service-layer metrics -----------------------------------------------

    def layer_extras(self, traced, intervals):
        """Per-request service metrics from the traced rounds: handler
        time, job queue wait and run time from the job document, and the
        client latency no server-side interval covers."""
        ops = [op for op in traced if "window" in op.data]
        fresh = [op for op in ops if not op.data["deduplicated"]]
        wire = []
        for op in ops:
            low, high = op.data["window"]
            spans = [(max(a, low), min(b, high)) for a, b in intervals]
            job = op.data["job"]
            if not op.data["deduplicated"]:
                spans.append((max(job["created"], low),
                              min(job["finished"], high)))
            covered, reach = 0.0, low
            for a, b in sorted(s for s in spans if s[1] > s[0]):
                if b > reach:
                    covered += b - max(a, reach)
                    reach = b
            wire.append(max(op.seconds - covered, 0.0))

        def mean(values):
            values = list(values)
            return sum(values) / len(values) if values else 0.0

        handler_s = sum(b - a for a, b in intervals)
        return {
            "service.http_self_ms": handler_s / len(ops) * 1e3 if ops else 0.0,
            "service.queue_wait_ms": mean(
                (op.data["job"]["started"] - op.data["job"]["created"]) * 1e3
                for op in fresh),
            "service.run_ms": mean(
                (op.data["job"]["finished"] - op.data["job"]["started"]) * 1e3
                for op in fresh),
            "service.wire_wait_ms": mean(wire) * 1e3,
            "service.polls_per_request": mean(op.data["polls"] for op in ops),
            "service.dedup_ratio": mean(float(op.data["deduplicated"])
                                        for op in ops),
            "service.job_table_size": float(
                len(self.server.manager.documents())),
        }

    def summary(self, ops):
        ms = [op.seconds * 1e3 for op in ops]
        return {"request_p95_ms": (
            statistics.quantiles(ms, n=20, method="inclusive")[18], len(ms))}

    def close(self):
        if self.server is not None:
            self.discard()


WORKLOADS = {cls.name: cls for cls in (CircuitCold, SweepCold, ServiceWarm)}
