"""``repro.obs``: tracing is observation-only, end to end.

The contracts under test (PR 10):

* **observation-only** — every engine produces byte-identical
  ``StudyResult.to_json()`` output with tracing on vs off; spans record
  what happened without touching payloads, fingerprints, or seeds;
* **truthful counters** — a warm delta sweep's trace counters equal the
  planner's own accounting (``partial:<hits>/<total>`` provenance);
* **one envelope** — trace documents carry ``repro-trace/v1`` and
  validate against ``docs/repro_trace.schema.json`` with the same
  dependency-free validator CI uses;
* **service surfaces** — ``GET /metrics`` reports pool health plus the
  registry snapshot, and ``GET /jobs/<id>/trace`` serves the per-job
  trace with the usual typed-error status codes.
"""

from __future__ import annotations

import http.client
import importlib.util
import io
import json
import os
import threading
import time

import pytest

from repro.circuit import stepper
from repro.obs import (MetricsRegistry, Tracer, current_tracer, registry,
                       reset_registry, span, trace_counters)
from repro.obs import trace as obs_trace
from repro.obs.trace import TRACE_SCHEMA, summarize_trace
from repro.runtime import ResultCache
from repro.study import SweepSpec, run_sweep_study
from repro.study.cli import main as cli_main
from repro.study.registry import run_study
from repro.service import ReproService

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TRACE_SCHEMA_PATH = os.path.join(REPO_ROOT, "docs", "repro_trace.schema.json")
VALIDATOR_PATH = os.path.join(REPO_ROOT, "tools", "validate_repro_json.py")

POLL_TIMEOUT_S = 60.0


def _validate(document):
    """Violations of the trace schema, via the CI validator itself."""
    spec = importlib.util.spec_from_file_location("_validator", VALIDATOR_PATH)
    validator = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(validator)
    with open(TRACE_SCHEMA_PATH, encoding="utf-8") as handle:
        schema = json.load(handle)
    return validator.validate(document, schema)


def _traced(fn, name="test"):
    """Run ``fn`` under an active tracer; return (result, trace doc)."""
    tracer = Tracer(name)
    with tracer.activate():
        result = fn()
    return result, tracer.to_document()


def run_cli(*argv):
    stdout, stderr = io.StringIO(), io.StringIO()
    code = cli_main(list(argv), stdout=stdout, stderr=stderr)
    return code, stdout.getvalue(), stderr.getvalue()


# ---------------------------------------------------------------------------
# Tracer and registry primitives
# ---------------------------------------------------------------------------


class TestTracer:
    def test_nested_spans_record_parentage_and_attributes(self):
        tracer = Tracer("t", flavor="unit")
        with tracer.activate():
            with span("outer", layer="study") as outer:
                with span("inner") as inner:
                    obs_trace.annotate(corners=3)
                    obs_trace.add("cache.hits", 2)
                    obs_trace.event("cache.evict", key="k1")
        document = tracer.to_document()
        assert document["schema"] == TRACE_SCHEMA
        assert document["attributes"] == {"flavor": "unit"}
        spans = {entry["name"]: entry for entry in document["spans"]}
        assert spans["outer"]["parent"] == -1
        assert spans["inner"]["parent"] == spans["outer"]["id"]
        assert spans["outer"]["attributes"] == {"layer": "study"}
        assert spans["inner"]["attributes"] == {"corners": 3}
        assert spans["inner"]["counters"] == {"cache.hits": 2}
        assert [e["name"] for e in spans["inner"]["events"]] == ["cache.evict"]
        assert outer.duration_s >= inner.duration_s >= 0.0

    def test_helpers_are_noops_without_an_active_tracer(self):
        assert current_tracer() is None
        with span("nothing") as open_span:
            assert open_span is None
        obs_trace.annotate(ignored=True)
        obs_trace.add("ignored", 1)
        obs_trace.event("ignored")

    def test_trace_counters_sums_across_spans(self):
        tracer = Tracer("t")
        with tracer.activate():
            with span("a"):
                obs_trace.add("cache.hits", 2)
            with span("b"):
                obs_trace.add("cache.hits", 1)
                obs_trace.add("cache.misses", 1)
        totals = trace_counters(tracer.to_document())
        assert totals == {"cache.hits": 3, "cache.misses": 1}


class TestMetricsRegistry:
    def test_counters_and_histograms(self):
        metrics = MetricsRegistry()
        metrics.inc("jobs", 2)
        metrics.inc("jobs")
        metrics.observe("latency_s", 0.002, buckets=(0.001, 0.01, 0.1))
        metrics.observe("latency_s", 5.0, buckets=(0.001, 0.01, 0.1))
        snapshot = metrics.snapshot()
        assert snapshot["counters"] == {"jobs": 3}
        histogram = snapshot["histograms"]["latency_s"]
        assert histogram["count"] == 2
        assert histogram["sum"] == pytest.approx(5.002)
        assert sum(histogram["counts"]) == 2
        assert histogram["counts"][-1] == 1      # 5.0 overflows into +inf
        metrics.reset()
        assert metrics.snapshot() == {"counters": {}, "histograms": {}}

    def test_process_registry_is_resettable(self):
        reset_registry()
        registry().inc("probe", 7)
        assert registry().snapshot()["counters"]["probe"] == 7
        reset_registry()
        assert "probe" not in registry().snapshot()["counters"]


# ---------------------------------------------------------------------------
# Observation-only: bit-identical payloads, traced vs untraced
# ---------------------------------------------------------------------------


class TestBitIdentity:
    def test_run_study_payload_is_identical_under_tracing(self):
        untraced = run_study("fig3")
        traced, document = _traced(lambda: run_study("fig3"))
        assert traced.to_json() == untraced.to_json()
        assert any(entry["name"] == "study:fig3"
                   for entry in document["spans"])

    @pytest.mark.parametrize("engine,axes,params", [
        ("immunity", {"cnts_per_trial": (2, 4)}, {"trials": 20, "seed": 7}),
        ("transient", {"vdd": (0.9, 1.0)}, {}),
    ])
    def test_sweep_payload_is_identical_under_tracing(
            self, engine, axes, params):
        spec = SweepSpec.from_mapping(axes)
        untraced = run_sweep_study(spec, engine=engine, **params)
        traced, document = _traced(
            lambda: run_sweep_study(spec, engine=engine, **params))
        assert traced.to_json() == untraced.to_json()
        root = next(entry for entry in document["spans"]
                    if entry["name"] == f"sweep:{engine}")
        assert root["attributes"]["engine"] == engine
        kernel = [entry for entry in document["spans"]
                  if entry["name"] == "transient.integrate"]
        assert bool(kernel) == (engine == "transient")
        for entry in kernel:
            attributes = entry["attributes"]
            assert attributes.keys() >= {"batch", "nets", "devices",
                                         "substeps", "stepper"}
            assert entry["counters"] == {
                "transient.corner_steps":
                    attributes["batch"] * attributes["substeps"]}
        trials = [entry for entry in document["spans"]
                  if entry["name"] == "immunity.trials"]
        assert len(trials) == (len(spec) if engine == "immunity" else 0)
        for entry, cnts in zip(trials, (2, 4)):
            assert entry["attributes"] == {"trials": 20, "tubes": 20 * cnts,
                                           "assignments": 4}

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("engine,axes,params,call", [
        ("immunity", {"technique": ("vulnerable", "compact"),
                      "cnts_per_trial": (2, 4)},
         {"trials": 10, "seed": 7}, "_immunity_shard"),
        ("transient", {"cell": ("INV", "NAND2")}, {}, "_transient_shard"),
    ])
    def test_task_spans_name_the_shard_function(self, engine, axes, params,
                                                call, jobs):
        spec = SweepSpec.from_mapping(axes)
        _, document = _traced(lambda: run_sweep_study(
            spec, engine=engine, jobs=jobs, **params))
        (runner,) = [entry for entry in document["spans"]
                     if entry["name"] == "scheduler.run_tasks"]
        tasks = [entry for entry in document["spans"]
                 if entry["name"] == "scheduler.task"]
        assert len(tasks) == runner["attributes"]["tasks"] >= 2
        # The pool width: 1 when the tasks ran in-process.
        assert runner["attributes"]["workers"] == min(jobs, len(tasks))
        assert {entry["attributes"]["call"] for entry in tasks} == {call}

    @pytest.mark.parametrize("jobs,backend", [(1, "serial"), (2, "thread")])
    def test_compiled_stepper_is_identical_under_tracing(self, jobs,
                                                         backend):
        """The C stepper's transient sweep, serial and on ``jobs=2``
        threads, traced or not, equals the serial untraced run."""
        if stepper.find_compiler() is None:
            pytest.skip("no C compiler on PATH")
        assert stepper.resolve_stepper() is stepper.CStepper
        spec = SweepSpec.from_mapping({"vdd": (0.9, 1.0)})
        untraced = run_sweep_study(spec, engine="transient")
        parallel = run_sweep_study(spec, engine="transient", jobs=jobs)
        traced, document = _traced(lambda: run_sweep_study(
            spec, engine="transient", jobs=jobs))
        assert parallel.to_json() == untraced.to_json()
        assert traced.to_json() == untraced.to_json()
        steppers = {entry["attributes"]["stepper"]
                    for entry in document["spans"]
                    if entry["name"] == "transient.integrate"}
        # Workers do not see the parent's tracer.
        assert steppers == ({"c"} if backend == "serial" else set())

    def test_cached_sweep_is_identical_under_tracing(self, tmp_path):
        spec = SweepSpec.from_mapping({"cnts_per_trial": (2, 4)})
        kwargs = dict(engine="immunity", trials=20, seed=7)
        untraced = run_sweep_study(
            spec, cache=ResultCache(tmp_path / "plain"), **kwargs)
        traced, _ = _traced(lambda: run_sweep_study(
            spec, cache=ResultCache(tmp_path / "traced"), **kwargs))
        assert traced.to_json() == untraced.to_json()


# ---------------------------------------------------------------------------
# Truthful counters: the trace agrees with the delta planner
# ---------------------------------------------------------------------------


class TestDeltaTraceCounters:
    def test_warm_delta_counters_match_partial_provenance(self, tmp_path):
        store = ResultCache(tmp_path / "store")
        kwargs = dict(engine="immunity", trials=20, seed=7, cache=store)
        run_sweep_study(
            SweepSpec.from_mapping({"cnts_per_trial": (2, 4)}), **kwargs)

        wider = SweepSpec.from_mapping({"cnts_per_trial": (2, 4, 8)})
        delta, document = _traced(lambda: run_sweep_study(wider, **kwargs))

        assert delta.provenance.cache == "partial:2/3"
        totals = trace_counters(document)
        assert totals["cache.corner_hits"] == 2
        assert totals["cache.corner_misses"] == 1
        plan = next(entry for entry in document["spans"]
                    if entry["name"] == "sweep.plan")
        assert plan["attributes"].items() >= {
            "hits": 2, "misses": 1, "status": "partial:2/3"}.items()
        execute = next(entry for entry in document["spans"]
                       if entry["name"] == "sweep.execute")
        assert execute["attributes"]["corners"] == 1


# ---------------------------------------------------------------------------
# Envelope: schema validation and the CLI surfaces
# ---------------------------------------------------------------------------


class TestTraceEnvelope:
    def test_sweep_trace_validates_against_checked_in_schema(self):
        spec = SweepSpec.from_mapping({"cnts_per_trial": (2, 4)})
        _, document = _traced(
            lambda: run_sweep_study(spec, engine="immunity", trials=20,
                                    seed=7))
        assert _validate(document) == []

    def test_cli_trace_flag_writes_a_valid_envelope(self, tmp_path):
        target = tmp_path / "trace.json"
        code, _, err = run_cli(
            "sweep", "--engine", "immunity", "--axis", "cnts_per_trial=2,4",
            "--trials", "20", "--seed", "7", "--json", "-",
            "--trace", str(target))
        assert code == 0
        assert f"trace written: {target}" in err
        document = json.loads(target.read_text())
        assert document["schema"] == TRACE_SCHEMA
        assert document["name"] == "sweep:immunity"
        assert _validate(document) == []

    def test_cli_trace_summarize_round_trip(self, tmp_path):
        target = tmp_path / "trace.json"
        assert run_cli("run", "fig3", "--trace", str(target))[0] == 0
        code, out, _ = run_cli("trace", "summarize", str(target))
        assert code == 0
        assert "run:fig3" in out
        assert "study:fig3" in out

    def test_cli_trace_summarize_rejects_non_trace_json(self, tmp_path):
        bogus = tmp_path / "bogus.json"
        bogus.write_text(json.dumps({"schema": "something-else"}))
        code, _, err = run_cli("trace", "summarize", str(bogus))
        assert code == 2
        assert "error:" in err

    def test_summarize_trace_renders_counters(self):
        spec = SweepSpec.from_mapping({"cnts_per_trial": (2, 4)})
        _, document = _traced(
            lambda: run_sweep_study(spec, engine="immunity", trials=20,
                                    seed=7))
        rendered = summarize_trace(document)
        assert "sweep:immunity" in rendered
        assert "scheduler.task" in rendered


# ---------------------------------------------------------------------------
# Service surfaces: GET /metrics and GET /jobs/<id>/trace
# ---------------------------------------------------------------------------


class Client:
    def __init__(self, service):
        self.host, self.port = service.server_address[:2]

    def json(self, method, path, body=None):
        connection = http.client.HTTPConnection(self.host, self.port,
                                                timeout=POLL_TIMEOUT_S)
        try:
            payload = None if body is None else json.dumps(body)
            headers = {"Content-Type": "application/json"} if payload else {}
            connection.request(method, path, body=payload, headers=headers)
            response = connection.getresponse()
            return response.status, json.loads(response.read())
        finally:
            connection.close()

    def poll(self, job_id):
        deadline = time.monotonic() + POLL_TIMEOUT_S
        while True:
            status, document = self.json("GET", f"/jobs/{job_id}")
            assert status == 200
            if document["status"] in ("done", "failed", "cancelled"):
                return document
            assert time.monotonic() < deadline, \
                f"job {job_id} stuck in {document['status']}"
            time.sleep(0.02)


@pytest.fixture
def service(tmp_path):
    running = ReproService(port=0, cache=tmp_path / "cache", workers=2)
    threading.Thread(target=running.serve_forever, daemon=True).start()
    yield running
    running.close()


@pytest.fixture
def client(service):
    return Client(service)


class TestServiceObservability:
    def test_metrics_document_shape(self, client):
        status, document = client.json("GET", "/metrics")
        assert status == 200
        assert document["schema"] == "repro-metrics/v1"
        assert document["workers"] == 2
        assert document["uptime_s"] > 0
        assert 0.0 <= document["worker_utilization"] <= 1.0
        assert set(document["jobs"]) == {
            "queued", "running", "done", "failed", "cancelled"}
        assert {"counters", "histograms"} <= set(document["metrics"])

    def test_job_trace_round_trip(self, client):
        status, submitted = client.json("POST", "/jobs", {"study": "fig3"})
        assert status == 201
        job_id = submitted["id"]
        assert client.poll(job_id)["status"] == "done"

        status, document = client.json("GET", f"/jobs/{job_id}/trace")
        assert status == 200
        assert document["schema"] == TRACE_SCHEMA
        assert document["name"] == f"job:{job_id}"
        assert document["attributes"]["job"] == job_id
        names = [entry["name"] for entry in document["spans"]]
        assert "job.run" in names
        assert "study:fig3" in names
        assert _validate(document) == []

        status, metrics = client.json("GET", "/metrics")
        assert status == 200
        assert metrics["jobs"]["done"] >= 1
        latency = metrics["metrics"]["histograms"]["service.queue_latency_s"]
        assert latency["count"] >= 1

    def test_trace_of_unknown_job_is_404(self, client):
        status, document = client.json("GET", "/jobs/job-999999/trace")
        assert status == 404
        assert document["error"]["type"] == "JobNotFound"

    def test_trace_before_completion_is_409(self, client, monkeypatch):
        """Until the worker runs the job there is no trace to serve."""
        import functools

        import repro.analysis.experiments as experiments

        real = experiments.run_fig3_nand3
        release = threading.Event()

        @functools.wraps(real)
        def gated(*args, **kwargs):
            assert release.wait(POLL_TIMEOUT_S), "gate never released"
            return real(*args, **kwargs)

        monkeypatch.setattr(experiments, "run_fig3_nand3", gated)
        _, submitted = client.json("POST", "/jobs", {"study": "fig3"})
        try:
            status, document = client.json(
                "GET", f"/jobs/{submitted['id']}/trace")
            assert status == 409
            assert document["error"]["type"] == "JobStateError"
        finally:
            release.set()
        assert client.poll(submitted["id"])["status"] == "done"
        assert client.json("GET", f"/jobs/{submitted['id']}/trace")[0] == 200

    def test_job_document_does_not_inline_the_trace(self, client):
        _, submitted = client.json("POST", "/jobs", {"study": "fig3"})
        final = client.poll(submitted["id"])
        assert "trace" not in final
        assert "trace_document" not in final
