"""Tagged-JSON serialization for study results.

Study payloads mix plain Python scalars with NumPy scalars and arrays,
tuples, ``bytes``, non-string dictionary keys and (frozen) dataclasses from
across the library.  Plain :mod:`json` either rejects or silently degrades
all of those, so :func:`encode` lowers any payload to a JSON-safe tree of
tagged nodes and :func:`decode` restores it **losslessly** — round-tripping
preserves types and is bit-identical for every numeric value (JSON floats
use ``repr`` shortest-round-trip formatting, which is exact for IEEE-754
doubles).

Tags
----
``{"__tuple__": [...]}``
    a tuple (JSON has only lists);
``{"__bytes__": "<base64>"}``
    raw bytes;
``{"__npscalar__": {"dtype": ..., "value": ...}}``
    a NumPy scalar (``np.float64(3.5)``, ``np.int64(7)``, ``np.bool_``);
``{"__ndarray__": {"dtype": ..., "shape": [...], "data": [...]}}``
    a NumPy array, C-order flattened;
``{"__map__": [[key, value], ...]}``
    a dict whose keys are not all plain strings (or whose string keys look
    like tags themselves — the escape hatch that keeps encoding injective);
``{"__seedseq__": {...}}``
    a :class:`numpy.random.SeedSequence` (entropy, spawn key, pool size);
``{"__dataclass__": "module:QualName", "fields": {...}}``
    any dataclass instance defined under the ``repro`` package.  Decoding
    imports the class by name and reconstructs it field by field; only
    ``repro.*`` classes are accepted, so documents cannot instantiate
    arbitrary types.

Speed
-----
:func:`encode` runs on every envelope, stored corner and address, so it
first dispatches on the *exact* type: ``str``, ``float``, ``int``,
``bool`` and ``None`` come back as they are, and ``list``, ``tuple`` and
a ``dict`` whose keys are all exactly ``str`` and none a tag recurse at
once.  Everything else takes the original chain of ``isinstance``
checks, in its original order, which settles subclasses as it always
has: a ``float`` subclass such as ``np.float64``, an ``IntEnum`` member
or a ``str`` subclass is returned as it is, while ``np.int64`` and
``np.bool_`` (not ``int`` or ``bool`` subclasses) become
``__npscalar__`` nodes.  Both routes give the same tree for every input.

>>> import numpy as np
>>> decode(encode((1, np.float64(2.5)))) == (1, np.float64(2.5))
True
>>> decode(encode({4.0: "wide"}))
{4.0: 'wide'}
>>> bool((decode(encode(np.arange(3))) == np.arange(3)).all())
True
"""

from __future__ import annotations

import base64
import dataclasses
import hashlib
import importlib
import json
from typing import Any, Dict

import numpy as np

from ..errors import StudyError

#: Tag keys reserved by the encoder; a plain dict carrying one of these as a
#: string key is escaped through ``__map__`` so decoding stays unambiguous.
_TAGS = (
    "__tuple__", "__bytes__", "__npscalar__", "__ndarray__", "__map__",
    "__seedseq__", "__dataclass__",
)

#: The same tags as a set, for the one-pass collision check of a dict's keys.
_TAG_SET = frozenset(_TAGS)

#: Exact types :func:`encode` returns as they are.
_JSON_SCALARS = frozenset({str, float, int, bool, type(None)})


def encode(obj: Any) -> Any:
    """Lower ``obj`` to a JSON-safe tree of tagged nodes."""
    kind = type(obj)
    if kind in _JSON_SCALARS:
        return obj
    if kind is list:
        return [encode(item) for item in obj]
    if kind is tuple:
        return {"__tuple__": [encode(item) for item in obj]}
    if kind is dict and _TAG_SET.isdisjoint(obj) \
            and set(map(type, obj)) <= {str}:
        return {key: encode(value) for key, value in obj.items()}
    return _encode_any(obj)


def _encode_any(obj: Any) -> Any:
    """:func:`encode` for every object its exact-type dispatch does not
    settle: subclasses, NumPy values, bytes, seed sequences, dataclasses
    and dicts that need the ``__map__`` escape (or have ``str``-subclass
    keys), tried in a fixed order of ``isinstance`` checks."""
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, np.ndarray):
        return {"__ndarray__": {
            "dtype": str(obj.dtype),
            "shape": list(obj.shape),
            "data": obj.ravel(order="C").tolist(),
        }}
    if isinstance(obj, np.generic):
        return {"__npscalar__": {
            "dtype": obj.dtype.name,
            "value": obj.item(),
        }}
    if isinstance(obj, (bytes, bytearray)):
        return {"__bytes__": base64.b64encode(bytes(obj)).decode("ascii")}
    if isinstance(obj, tuple):
        return {"__tuple__": [encode(item) for item in obj]}
    if isinstance(obj, list):
        return [encode(item) for item in obj]
    if isinstance(obj, np.random.SeedSequence):
        return {"__seedseq__": {
            "entropy": encode(obj.entropy),
            "spawn_key": list(obj.spawn_key),
            "pool_size": obj.pool_size,
            "n_children_spawned": obj.n_children_spawned,
        }}
    if isinstance(obj, dict):
        plain_keys = all(isinstance(key, str) for key in obj)
        collides = plain_keys and any(key in _TAGS for key in obj)
        if plain_keys and not collides:
            return {key: encode(value) for key, value in obj.items()}
        return {"__map__": [[encode(key), encode(value)]
                            for key, value in obj.items()]}
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        cls = type(obj)
        module = cls.__module__
        if not (module == "repro" or module.startswith("repro.")):
            raise StudyError(
                f"Refusing to serialize non-repro dataclass {module}.{cls.__qualname__}"
            )
        fields = {
            f.name: encode(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
            if f.metadata.get("serialize", True)
        }
        return {"__dataclass__": f"{module}:{cls.__qualname__}", "fields": fields}
    raise StudyError(
        f"Cannot serialize object of type {type(obj).__name__}: {obj!r}"
    )


def decode(obj: Any) -> Any:
    """Invert :func:`encode`."""
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, list):
        return [decode(item) for item in obj]
    if isinstance(obj, dict):
        if "__tuple__" in obj:
            return tuple(decode(item) for item in obj["__tuple__"])
        if "__bytes__" in obj:
            return base64.b64decode(obj["__bytes__"])
        if "__npscalar__" in obj:
            node = obj["__npscalar__"]
            return np.dtype(node["dtype"]).type(node["value"])
        if "__ndarray__" in obj:
            node = obj["__ndarray__"]
            array = np.array(node["data"], dtype=np.dtype(node["dtype"]))
            return array.reshape(node["shape"])
        if "__map__" in obj:
            return {decode(key): decode(value) for key, value in obj["__map__"]}
        if "__seedseq__" in obj:
            node = obj["__seedseq__"]
            return np.random.SeedSequence(
                entropy=decode(node["entropy"]),
                spawn_key=tuple(node["spawn_key"]),
                pool_size=node["pool_size"],
                n_children_spawned=node.get("n_children_spawned", 0),
            )
        if "__dataclass__" in obj:
            return _decode_dataclass(obj)
        return {key: decode(value) for key, value in obj.items()}
    raise StudyError(f"Cannot decode node of type {type(obj).__name__}")


def _decode_dataclass(node: Dict[str, Any]) -> Any:
    path = node["__dataclass__"]
    module_name, _, qualname = path.partition(":")
    if not (module_name == "repro" or module_name.startswith("repro.")):
        raise StudyError(f"Refusing to decode non-repro dataclass {path!r}")
    try:
        module = importlib.import_module(module_name)
    except ImportError as error:
        raise StudyError(f"Cannot import {module_name!r} for {path!r}") from error
    target: Any = module
    for part in qualname.split("."):
        target = getattr(target, part, None)
        if target is None:
            raise StudyError(f"No class {qualname!r} in {module_name!r}")
    if not (isinstance(target, type) and dataclasses.is_dataclass(target)):
        raise StudyError(f"{path!r} is not a dataclass")
    fields = {name: decode(value) for name, value in node["fields"].items()}
    return target(**fields)


#: The one encoder behind :func:`canonical_json`; ``json.dumps`` with
#: these options would build a new one per call.
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"),
                              allow_nan=True)


def canonical_json(obj: Any) -> str:
    """Deterministic JSON text of an encoded payload (sorted keys, compact
    separators) — the input to :func:`config_hash`."""
    return _CANONICAL.encode(encode(obj))


def config_hash(obj: Any) -> str:
    """Short, git-describable content hash of a configuration payload.

    >>> config_hash({"trials": 200}) == config_hash({"trials": 200})
    True
    >>> config_hash({"trials": 200}) != config_hash({"trials": 201})
    True
    """
    digest = hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()
    return digest[:16]
