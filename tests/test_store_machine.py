"""A model-checked result store: :class:`ResultCache` against a dictionary.

Hypothesis drives one store through random sequences of study and corner
writes and reads, prunes with and without bounds, a second store object
of this process and a writer of another process on the same root,
reopening, in-place corruption of stored records, torn segment tails and
temp files, and checks every step against a model made of plain
dictionaries.  Study records and corner records live in two logs of one
segment format, and every rule applies to both:

* a read returns the model's payload or a miss, never other bytes;
* a read that meets a corrupt record counts it as ``cache.corrupt`` or
  ``cache.corner_corrupt``;
* ``stats()`` agrees with the model;
* after ``prune``, no temp file older than :data:`STALE_TEMP_S` is left.

Tier-1 runs a short machine.  ``--hypothesis-profile store-long`` (see
``tests/conftest.py``) runs the long one.
"""

import hashlib
import json
import os
import shutil
import tempfile
from pathlib import Path

from hypothesis import settings, strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize,
                                 invariant, precondition, rule)

from repro.obs import clock
from repro.runtime.cache import (CACHE_SCHEMA, CORNER_SCHEMA, STALE_TEMP_S,
                                 ResultCache)
from repro.study.results import Fig3Result, Provenance
from test_runtime import counted, isolated_store, segment_records

CORNER_KEYS = tuple(hashlib.sha256(f"corner-{index}".encode()).hexdigest()
                    for index in range(3))
STUDY_KEYS = tuple(hashlib.sha256(f"study-{index}".encode()).hexdigest()
                   for index in range(2))

#: The two logs of a store root, by directory: the keys the machine uses
#: in each, the record schema and payload field, and the read counters.
TIERS = {
    "objects": (STUDY_KEYS, CACHE_SCHEMA, "result",
                ("cache.hits", "cache.misses", "cache.corrupt")),
    "corners": (CORNER_KEYS, CORNER_SCHEMA, "payload",
                ("cache.corner_hits", "cache.corner_misses",
                 "cache.corner_corrupt")),
}

#: Every ``(tier, key)`` the machine writes.
ADDRESSES = st.sampled_from([(tier, key) for tier, (keys, *_)
                             in TIERS.items() for key in keys])


def _payload(key):
    """The one corner payload of a corner address: a content-addressed
    store never holds two different payloads under one key."""
    return {"digits": [int(key[index:index + 4], 16) for index in (0, 4, 8)],
            "key": key[:12], "ratio": int(key[:4], 16) / 7.0}


def _study(key):
    """The one study result of a study address."""
    return Fig3Result(provenance=Provenance.capture("fig3"),
                      baseline_area=float(int(key[:4], 16)))


def _value(tier, key):
    return _study(key) if tier == "objects" else _payload(key)


def _digest(payload):
    return hashlib.sha256(json.dumps(
        payload, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


def _record_line(tier, key, created):
    """The bytes of one valid ``tier`` record for ``key``."""
    if tier == "objects":
        payload, tags = _study(key).to_json_dict(), {"study": "fig3"}
    else:
        payload, tags = _payload(key), {"study": "corner",
                                        "engine": "immunity"}
    _, schema, field, _ = TIERS[tier]
    wrapper = {"schema": schema, "fingerprint": key, **tags,
               "sha256": _digest(payload), "created": created,
               field: payload}
    return (json.dumps(wrapper, sort_keys=True) + "\n").encode()


def _valid(tier, line, key):
    _, schema, field, _ = TIERS[tier]
    try:
        wrapper = json.loads(line)
    except ValueError:
        return False
    return (isinstance(wrapper, dict)
            and wrapper.get("schema") == schema
            and wrapper.get("fingerprint") == key
            and wrapper.get("sha256") == _digest(wrapper.get(field)))


def _after(line, marker):
    return line.index(marker) + len(marker)


def _flip_payload_digit(line):
    """A digit of the payload: a corner's metrics, or a study result's
    own ``payload`` (its first digit is the Fig. 3 baseline area)."""
    start = _after(line, b'"payload": ')
    at = next(index for index in range(start, len(line))
              if line[index:index + 1].isdigit())
    return at, str((int(line[at:at + 1]) + 1) % 10).encode()


def _break_fingerprint(line):
    return _after(line, b'"fingerprint": "'), b"g"


def _flip_digest_digit(line):
    at = _after(line, b'"sha256": "')
    return at, b"1" if line[at:at + 1] == b"0" else b"0"


def _break_syntax(line):
    return 0, b"["


#: In-place, same-length corruptions of one record line: each returns the
#: offset of one byte and its replacement.
CORRUPTIONS = (_flip_payload_digit, _break_fingerprint, _flip_digest_digit,
               _break_syntax)


class StoreMachine(RuleBasedStateMachine):
    """One store root, its :class:`ResultCache` and the model, per tier.

    ``models[tier]`` maps each key with a valid record on disk to the
    write time of its newest one; ``bad_on_disk[tier]`` counts each key's
    corrupt records; ``bad_view[tier]`` says whether the store object must
    (``live``) or may (``maybe``) meet one of them on its next read of the
    key.  Write times come from a clock the machine advances by one second
    per write, so every age and recency bound has one right answer.
    """

    def __init__(self):
        super().__init__()
        self.root = Path(tempfile.mkdtemp(prefix="store-machine-"))
        self.real_wall_time = clock.wall_time
        self.now = self.real_wall_time()
        clock.wall_time = lambda: self.now
        self.store = ResultCache(self.root)
        self.other = None
        self.models = {tier: {} for tier in TIERS}
        self.bad_on_disk = {tier: {} for tier in TIERS}
        self.bad_view = {tier: {} for tier in TIERS}
        self.temps = []
        self.writes = 0

    def teardown(self):
        clock.wall_time = self.real_wall_time
        shutil.rmtree(self.root, ignore_errors=True)

    @initialize(addresses=st.sets(ADDRESSES))
    def populate(self, addresses):
        """Start from a store that holds some studies and corners."""
        for tier, key in sorted(addresses):
            self._write(self.store, tier, key)

    # -- writes ----------------------------------------------------------------

    def _write(self, store, tier, key):
        self.now += 1.0
        if tier == "objects":
            store.put(key, _study(key))
        else:
            store.put_corner(key, _payload(key), "immunity")
        self.models[tier][key] = self.now

    @rule(address=ADDRESSES)
    def put(self, address):
        self._write(self.store, *address)

    @rule(address=ADDRESSES)
    def put_alias(self, address):
        """Another store object of this process on the root writes."""
        self._write(ResultCache(self.root), *address)

    @rule(address=ADDRESSES)
    def put_elsewhere(self, address):
        """A store with its own indexes and segments, as another process
        would hold, writes."""
        if self.other is None:
            self.other = isolated_store(self.root)
        self._write(self.other, *address)

    # -- reads -----------------------------------------------------------------

    def _read(self, tier, keys):
        """Read ``keys`` of ``tier`` through the store and check the
        values and counters against the model."""
        store = self.store
        if tier == "objects":
            (key,) = keys
            value, counts = counted(lambda: store.get(key))
            found = {} if value is None else {key: value}
        else:
            found, counts = counted(lambda: store.get_corners(keys))
        model, bad_view = self.models[tier], self.bad_view[tier]
        hits_name, misses_name, corrupt_name = TIERS[tier][3]
        distinct = set(keys)
        assert found == {key: _value(tier, key) for key in distinct
                         if key in model}
        hits = sum(1 for key in keys if key in model)
        assert counts.get(hits_name, 0) == hits
        assert counts.get(misses_name, 0) == len(keys) - hits
        must = sum(1 for key in distinct if key not in model
                   and bad_view.get(key) == "live")
        may = sum(1 for key in distinct if key in bad_view)
        assert must <= counts.get(corrupt_name, 0) <= may
        for key in distinct & set(bad_view):
            if key in model:
                bad_view[key] = "maybe"
            else:
                del bad_view[key]

    @rule(key=st.sampled_from(STUDY_KEYS))
    def get(self, key):
        self._read("objects", [key])

    @rule(keys=st.lists(st.sampled_from(CORNER_KEYS), max_size=6))
    def get_corners(self, keys):
        self._read("corners", keys)

    # -- damage ----------------------------------------------------------------

    @precondition(lambda self: any(self.models.values()))
    @rule(data=st.data(), corruption=st.sampled_from(CORRUPTIONS),
          read_now=st.booleans())
    def corrupt(self, data, corruption, read_now):
        """Damage every valid stored record of one stored key in place,
        and maybe read the key back at once."""
        tier = data.draw(st.sampled_from(
            [tier for tier in TIERS if self.models[tier]]))
        key = data.draw(st.sampled_from(sorted(self.models[tier])))
        spans = [(path, offset, line)
                 for path, offset, line in segment_records(self.root, tier)
                 if _valid(tier, line, key)]
        assert spans
        for path, offset, line in spans:
            at, byte = corruption(line)
            with open(path, "r+b") as stream:
                stream.seek(offset + at)
                stream.write(byte)
        del self.models[tier][key]
        bad_on_disk, bad_view = self.bad_on_disk[tier], self.bad_view[tier]
        bad_on_disk[key] = bad_on_disk.get(key, 0) + len(spans)
        # A store that has not indexed the record yet cannot attribute it
        # to the key once its fingerprint or syntax is broken.
        attributable = corruption not in (_break_fingerprint, _break_syntax)
        if attributable or bad_view.get(key) == "live":
            bad_view[key] = "live"
        else:
            bad_view[key] = "maybe"
        if read_now:
            self._read(tier, [key])

    @rule(address=ADDRESSES, cut=st.floats(0.1, 0.95))
    def torn_tail(self, address, cut):
        """A writer killed mid-append leaves a segment that ends in part
        of a record."""
        tier, key = address
        directory = self.root / tier
        directory.mkdir(parents=True, exist_ok=True)
        line = _record_line(tier, key, self.now)
        self.writes += 1
        path = directory / f"killed-{self.writes}.seg"
        path.write_bytes(line[:int(len(line) * cut)])

    @rule(tier=st.sampled_from(sorted(TIERS)), stale=st.booleans())
    def temp_file(self, tier, stale):
        """A compaction's temp file: a killed one's (stale) or a live
        one's."""
        directory = self.root / tier
        directory.mkdir(parents=True, exist_ok=True)
        self.writes += 1
        path = directory / f".tmp-{self.writes}"
        path.write_text('{"study": "fig3", "cre')
        if stale:
            killed_at = self.now - STALE_TEMP_S - 60.0
            os.utime(path, (killed_at, killed_at))
        self.temps.append((path, stale))

    @rule()
    def reopen(self):
        """A fresh store on the root, as a new process would open: it
        meets every corrupt record still on disk, or none it cannot
        attribute to a key."""
        self.store = isolated_store(self.root)
        self.bad_view = {tier: {key: "maybe" for key in self.bad_on_disk[tier]}
                         for tier in TIERS}

    # -- maintenance -----------------------------------------------------------

    @staticmethod
    def _bound(model, cutoff, max_entries):
        """Remove from ``model`` what ``prune`` bounds remove; return the
        count."""
        if cutoff is None and max_entries is None:
            doomed = set(model)
        else:
            doomed = set()
            if cutoff is not None:
                doomed.update(key for key in model if model[key] < cutoff)
            if max_entries is not None:
                survivors = sorted((key for key in model if key not in doomed),
                                   key=model.get, reverse=True)
                doomed.update(survivors[max_entries:])
        for key in doomed:
            del model[key]
        return len(doomed)

    @rule(study=st.sampled_from((None, "corner", "fig3", "table1")),
          max_age_s=st.none() | st.integers(0, 20),
          max_entries=st.none() | st.integers(0, 5))
    def prune(self, study, max_age_s, max_entries):
        removed = self.store.prune(study=study, max_age_s=max_age_s,
                                   max_entries=max_entries)
        cutoff = None if max_age_s is None else self.now - max_age_s
        expected = 0
        # Every filter but the corner pseudo-study compacts the study log,
        # and a compaction drops every corrupt record of its log; the
        # bounds reach only the keys of the filter's study.
        for tier, compacted, bounded in (
                ("objects", study != "corner", study in (None, "fig3")),
                ("corners", study in (None, "corner"),
                 study in (None, "corner"))):
            if bounded:
                expected += self._bound(self.models[tier], cutoff,
                                        max_entries)
            if compacted:
                expected += sum(self.bad_on_disk[tier].values())
                self.bad_on_disk[tier].clear()
                self.bad_view[tier].clear()
        assert removed == expected
        for path in self.root.rglob(".tmp-*"):
            assert path.stat().st_mtime >= self.now - STALE_TEMP_S
        for path, stale in self.temps:
            assert path.exists() is not stale
        self.temps = [(path, stale) for path, stale in self.temps
                      if not stale]

    @invariant()
    def a_new_reader_sees_the_model(self):
        reader = isolated_store(self.root)
        assert reader.get_corners(CORNER_KEYS) == {
            key: _payload(key) for key in self.models["corners"]}
        assert {key: reader.get(key) for key in STUDY_KEYS} == {
            key: _study(key) if key in self.models["objects"] else None
            for key in STUDY_KEYS}

    @invariant()
    def stats_agree(self):
        stats = self.store.stats()
        studies = len(self.models["objects"])
        assert stats.corner_entries == len(self.models["corners"])
        assert stats.entries == studies
        assert stats.by_study == ({"fig3": studies} if studies else {})


TestStoreMachine = StoreMachine.TestCase
if settings.get_current_profile_name() != "store-long":
    TestStoreMachine.settings = settings(max_examples=100,
                                         stateful_step_count=50,
                                         deadline=None)
