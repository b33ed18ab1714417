"""Content addresses for study invocations.

A *fingerprint* is the cache key of one study run: a stable SHA-256 hex
digest of everything that determines the typed result —

* the study name and (for sweeps) the engine,
* the caller's parameter overrides and seed (``SeedSequence`` values are
  lowered to their tagged-JSON form, so equal seeds hash equally however
  they are spelled as sequences),
* the :class:`~repro.study.spec.SweepSpec`, when one is involved,
* ``repro.__version__`` — a new package version never reuses old cache
  entries,
* the provenance ``config_hash`` of the same configuration, tying the
  key to the envelope schema version.

Hashing rides on the tagged-JSON encoder of
:mod:`repro.study.serialize` (:func:`~repro.study.serialize.
canonical_json` — sorted keys, compact separators, ``repr``
shortest-round-trip floats), so any parameter value a result envelope
can carry can also be fingerprinted, bit-exactly.

The key is **conservative**: it hashes the parameters as the caller
spelled them, so spelling a default out produces a different address
than omitting it.  A conservative key can cause a spurious miss, never a
wrong hit.

Pure *execution* parameters — worker counts, chunk sizes — are
excluded (:data:`EXECUTION_PARAMS`): the determinism
contract guarantees they cannot change the result, so they must not
change its address either.

>>> study_fingerprint("fig3") == study_fingerprint("fig3")
True
>>> study_fingerprint("fig3") != study_fingerprint("fig3", {"unit_width": 6})
True
>>> study_fingerprint("fig3", {"jobs": 4}) == study_fingerprint("fig3")
True
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, Mapping, Optional

import numpy as np

from ..study.results import (RESULT_SCHEMA, _normalize_seeds,
                             _package_version)
from ..study.serialize import canonical_json, config_hash

#: Parameters that select *how* a study executes, never *what* it
#: computes.  The scheduler's determinism contract makes results
#: invariant under all of them, so they are excluded from fingerprints.
EXECUTION_PARAMS = frozenset({"jobs", "workers", "chunk_size"})


def study_fingerprint(
    study: str,
    params: Optional[Mapping[str, Any]] = None,
    seed: Any = None,
    engine: Optional[str] = None,
    spec: Any = None,
) -> str:
    """The content address of one study invocation.

    ``params`` are the caller's explicit overrides; ``seed``/``engine``/
    ``spec`` are the sweep driver's positional configuration (``None``
    for plain registry studies, whose seed travels inside ``params``).
    """
    safe_params: Dict[str, Any] = {
        key: _normalize_seeds(value)
        for key, value in sorted((params or {}).items())
        if key not in EXECUTION_PARAMS
    }
    document = {
        "study": study,
        "engine": engine,
        "seed": _normalize_seeds(seed) if seed is not None else None,
        "params": safe_params,
        "spec": spec,
        "version": _package_version(),
        "config": config_hash(
            {"study": study, "params": safe_params, "schema": RESULT_SCHEMA}
        ),
    }
    return hashlib.sha256(
        canonical_json(document).encode("utf-8")
    ).hexdigest()


def netlist_context(netlist: Any) -> Dict[str, Any]:
    """A stable structural digest of a gate netlist for corner contexts.

    Circuit-study corners depend on the whole mapped netlist, not just
    scalar axis values; this lowers a
    :class:`~repro.circuit.netlist.GateNetlist` to a canonical plain-data
    form — sorted instances with their cell types, drives and
    connections, plus the IO declaration — so two structurally identical
    netlists address the same corners regardless of construction order,
    while any rewiring, renaming or drive change misses.
    """
    gates = sorted(
        (
            gate.name,
            gate.cell_type,
            float(gate.drive_strength),
            tuple(sorted(gate.connections.items())),
        )
        for gate in netlist.gates
    )
    return {
        "name": netlist.name,
        "inputs": tuple(netlist.inputs),
        "outputs": tuple(netlist.outputs),
        "gates": tuple(gates),
    }


def sweep_fingerprint(spec: Any, engine: str, trials: int, seed: Any,
                      fixed: Optional[Mapping[str, Any]] = None) -> str:
    """The content address of one :func:`~repro.study.sweeps.
    run_sweep_study` invocation."""
    return study_fingerprint(
        "sweep",
        params={"trials": trials, **(dict(fixed) if fixed else {})},
        seed=seed,
        engine=engine,
        spec=spec,
    )


def _plain_scalars(value: Any) -> Any:
    """Lower NumPy scalars to their Python equivalents, recursively.

    Corner parameters arrive however the caller spelled the axis —
    ``np.float64(0.9)`` from a ``linspace``, plain ``0.9`` from the CLI.
    Both select the same corner, so both must hash to the same address.
    (Arrays are left alone: the tagged encoder already canonicalises
    them, and an array-valued parameter *is* a different value.)
    """
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, dict):
        return {key: _plain_scalars(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return type(value)(_plain_scalars(item) for item in value)
    return value


def corner_fingerprint(
    engine: str,
    params: Mapping[str, Any],
    seed: Any = None,
    trials: Optional[int] = None,
    context: Any = None,
) -> str:
    """The content address of one evaluated sweep **corner**.

    ``params`` is the corner's fully-resolved binding — every engine axis,
    swept or fixed — so the address does not depend on *which* axes were
    swept, only on the values this corner was evaluated at.  ``seed`` is
    the corner's pre-spawned child :class:`~numpy.random.SeedSequence`
    (immunity engine): it is spawned in the parent under the
    ``_SWEEP_SPAWN_KEY`` contract, so hashing its *value* makes the
    address independent of sharding while still forcing a recompute
    whenever a grid reshape reassigns seeds.  ``context`` carries
    engine-specific shared state the corner's result depends on beyond
    its own parameters — for the transient engine, the per-cell shared
    time base — so a grid extension that shifts that state correctly
    misses.

    Like :func:`study_fingerprint`, the address folds in
    ``repro.__version__`` and the envelope config hash, and is
    conservative: a spurious miss is possible, a wrong hit is not.

    >>> corner_fingerprint("immunity", {"gate": "NAND2"}, trials=10) \\
    ...     == corner_fingerprint("immunity", {"gate": "NAND2"}, trials=10)
    True
    >>> import numpy as np
    >>> corner_fingerprint("transient", {"vdd": np.float64(0.9)}) \\
    ...     == corner_fingerprint("transient", {"vdd": 0.9})
    True
    """
    safe_params: Dict[str, Any] = {
        key: _normalize_seeds(_plain_scalars(value))
        for key, value in sorted(params.items())
        if key not in EXECUTION_PARAMS
    }
    # canonical_json of the address document and of its config, joined
    # from fragments (sorted keys, compact separators) so the params are
    # encoded once for both.
    engine_text = canonical_json(engine)
    params_text = canonical_json(safe_params)
    config = hashlib.sha256((
        '{"engine":' + engine_text + ',"kind":"sweep-corner","params":'
        + params_text + ',"schema":' + canonical_json(RESULT_SCHEMA) + "}"
    ).encode("utf-8")).hexdigest()[:16]
    document = "".join((
        '{"config":"', config,
        '","context":', canonical_json(_plain_scalars(context)),
        ',"engine":', engine_text,
        ',"kind":"sweep-corner","params":', params_text,
        ',"seed":', canonical_json(
            _normalize_seeds(seed) if seed is not None else None),
        ',"trials":', canonical_json(trials),
        ',"version":', canonical_json(_package_version()),
        "}",
    ))
    return hashlib.sha256(document.encode("utf-8")).hexdigest()
