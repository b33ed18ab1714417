"""The encoder and the corner address against their plain references.

:func:`repro.study.serialize.encode` dispatches on exact types before it
falls back to a chain of ``isinstance`` checks, and
:func:`repro.runtime.fingerprint.corner_fingerprint` joins one encoding
of a corner's params into both its config and its address document.
Both must give exactly what the plain forms in ``tests/reference.py``
give: the same tree, value *and* type at every node (``True`` is not
``1``, ``-0.0`` is not ``0.0``), and the same address for every corner
every engine plans.
"""

from __future__ import annotations

import enum
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.circuit_study.study as circuit_study
import repro.runtime.fingerprint as fingerprint
from reference import (reference_canonical_json, reference_corner_fingerprint,
                       reference_encode)
from repro.errors import StudyError
from repro.runtime.manifest import ManifestOutcome
from repro.study.results import Provenance
from repro.study.serialize import _TAGS, canonical_json, encode
from test_sweep_engines import SCENARIOS, planned_keys


class Level(enum.IntEnum):
    LOW = 0
    HIGH = 1


class Ratio(float):
    pass


class Count(int):
    pass


class Label(str):
    pass


def typed(tree):
    """``tree`` with every node paired with its exact type, floats by
    ``repr`` (so NaN equals NaN and ``-0.0`` differs from ``0.0``)."""
    if isinstance(tree, dict):
        return ("dict", [(typed(key), typed(value))
                         for key, value in tree.items()])
    if isinstance(tree, (list, tuple)):
        return (type(tree).__name__, [typed(item) for item in tree])
    if isinstance(tree, float):
        return (type(tree).__name__, repr(tree))
    return (type(tree).__name__, tree)


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

floats = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan]),
)
small_ints = st.integers(-2 ** 40, 2 ** 40)

plain = st.one_of(st.none(), st.booleans(), st.integers(), floats,
                  st.text(max_size=8))

numpy_scalars = st.one_of(
    floats.map(np.float64),
    small_ints.map(np.int64),
    st.booleans().map(np.bool_),
    st.floats(width=32).map(np.float32),
)

subclassed = st.one_of(
    st.sampled_from(list(Level)),
    floats.map(Ratio),
    st.integers().map(Count),
    st.text(max_size=4).map(Label),
)

arrays = st.one_of(
    st.lists(floats, max_size=6).map(np.array),
    st.lists(small_ints, max_size=6).map(
        lambda items: np.array(items, dtype=np.int64).reshape(-1, 1)),
    st.lists(st.booleans(), max_size=4).map(
        lambda items: np.array(items, dtype=bool)),
)

raw_bytes = st.one_of(st.binary(max_size=8),
                      st.binary(max_size=8).map(bytearray))

seed_sequences = st.builds(
    np.random.SeedSequence,
    entropy=st.integers(0, 2 ** 64),
    spawn_key=st.lists(st.integers(0, 2 ** 31), max_size=3).map(tuple),
)

dataclasses_ = st.one_of(
    st.builds(ManifestOutcome, index=st.integers(0, 9),
              study=st.text(max_size=4), fingerprint=st.text(max_size=4),
              status=st.sampled_from(["hit", "miss", "partial:1/2"])),
    st.builds(lambda params, seed: Provenance.capture("fig3", params=params,
                                                      seed=seed),
              st.dictionaries(st.text(max_size=4), plain, max_size=2),
              st.one_of(st.none(), st.integers(0, 99))),
)

leaves = st.one_of(plain, numpy_scalars, subclassed, arrays, raw_bytes,
                   seed_sequences, dataclasses_)

#: Keys a plain dict may hold, tag names among them.
str_keys = st.one_of(st.text(max_size=6), st.sampled_from(_TAGS))
#: Keys that force the ``__map__`` escape, ``bool`` beside ``int``.
other_keys = st.one_of(st.integers(), st.booleans(), floats,
                       st.tuples(st.integers(), st.text(max_size=2)),
                       st.text(max_size=3).map(Label))


def _containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(str_keys, children, max_size=4),
        st.dictionaries(st.one_of(str_keys, other_keys), children,
                        max_size=4),
    )


values = st.recursive(leaves, _containers, max_leaves=24)


# ---------------------------------------------------------------------------
# encode
# ---------------------------------------------------------------------------

class TestEncodeMatchesReference:
    @settings(max_examples=250, deadline=None)
    @given(values)
    def test_same_tree_types_included(self, value):
        assert typed(encode(value)) == typed(reference_encode(value))

    @settings(max_examples=200, deadline=None)
    @given(values)
    def test_same_canonical_text(self, value):
        assert canonical_json(value) == reference_canonical_json(value)

    @pytest.mark.parametrize("value", [
        True, False, 1, 0, [True, 1, 0, False], {"a": True, "b": 1},
        (True, (1, (False,))), {1: True, True: 1.0},
        -0.0, [0.0, -0.0], math.nan, math.inf, -math.inf,
        np.float64(-0.0), np.int64(7), np.bool_(True), Level.HIGH,
        Ratio(2.5), Count(3), Label("x"), {Label("k"): 1},
        {"__tuple__": [1, 2]}, {"__map__": 1, "x": 2}, {"__dataclass__": 0},
        {(1, 2): "pair"}, b"\x00\xff", bytearray(b"ab"),
        np.arange(6).reshape(2, 3), np.random.SeedSequence(5, spawn_key=(1,)),
        ManifestOutcome(0, "fig3", "ab", "hit"),
    ], ids=repr)
    def test_named_cases(self, value):
        assert typed(encode(value)) == typed(reference_encode(value))
        assert canonical_json(value) == reference_canonical_json(value)

    def test_bool_and_int_stay_apart(self):
        value = {"flag": True, "count": 1, "items": (False, 0)}
        assert canonical_json(value) == \
            '{"count":1,"flag":true,"items":{"__tuple__":[false,0]}}'

    def test_unencodable_values_raise_alike(self):
        class Opaque:
            pass

        for value in (Opaque(), [1, {"x": Opaque()}], {object(): 1}):
            for encoder in (encode, reference_encode):
                with pytest.raises(StudyError):
                    encoder(value)


# ---------------------------------------------------------------------------
# corner_fingerprint
# ---------------------------------------------------------------------------

param_values = st.one_of(plain, numpy_scalars, subclassed, seed_sequences,
                         st.lists(plain, max_size=3),
                         st.lists(plain, max_size=3).map(tuple),
                         st.dictionaries(str_keys, plain, max_size=3))
params = st.dictionaries(
    st.one_of(st.text(max_size=6), st.sampled_from(_TAGS),
              st.sampled_from(sorted(fingerprint.EXECUTION_PARAMS))),
    param_values, max_size=5)
contexts = st.one_of(st.none(), values)


class TestCornerFingerprintMatchesReference:
    @settings(max_examples=200, deadline=None)
    @given(engine=st.one_of(st.sampled_from(
               ["immunity", "transient", "circuit", "circuit-cell",
                "circuit-timing"]), st.text(max_size=6)),
           params=params,
           seed=st.one_of(st.none(), st.integers(0, 2 ** 64),
                          seed_sequences),
           trials=st.one_of(st.none(), st.integers(0, 10 ** 6)),
           context=contexts)
    def test_same_address(self, engine, params, seed, trials, context):
        assert fingerprint.corner_fingerprint(
            engine, params, seed=seed, trials=trials, context=context
        ) == reference_corner_fingerprint(
            engine, params, seed=seed, trials=trials, context=context)


@pytest.fixture
def recorded(monkeypatch):
    """Every ``corner_fingerprint`` call the planners make, with the
    address it returned."""
    calls = []
    real = fingerprint.corner_fingerprint

    def recording(*args, **kwargs):
        key = real(*args, **kwargs)
        calls.append((args, kwargs, key))
        return key

    monkeypatch.setattr(fingerprint, "corner_fingerprint", recording)
    monkeypatch.setattr(circuit_study, "corner_fingerprint", recording)
    return calls


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_every_engine_plan_addresses_like_the_reference(name, recorded):
    """Immunity (seeded), transient (time-base context) and circuit
    (netlist context) plans: each corner's address is the reference's."""
    keys, _ = planned_keys(*SCENARIOS[name])
    assert [key for _, _, key in recorded] == keys
    for args, kwargs, key in recorded:
        assert reference_corner_fingerprint(*args, **kwargs) == key


def test_circuit_study_corners_address_like_the_reference(recorded):
    """The circuit study's own timing (time-base context) and per-cell
    immunity (seeded) corners."""
    circuit_study.run_circuit_study("adder:1", trials=4, draws=4)
    engines = {args[0] for args, _, _ in recorded}
    assert engines == {"circuit-timing", "circuit-cell"}
    for args, kwargs, key in recorded:
        assert reference_corner_fingerprint(*args, **kwargs) == key
