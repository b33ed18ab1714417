"""A model-checked result store: :class:`ResultCache` against a dictionary.

Hypothesis drives one store through random sequences of study and corner
writes and reads, prunes with and without bounds, a second store object
of this process and a writer of another process on the same root,
reopening, in-place corruption of stored corner records, torn
segment tails and temp files, and checks every step against a model made
of plain dictionaries:

* a read returns the model's payload or a miss, never other bytes;
* a read that meets a corrupt record counts it as ``cache.corner_corrupt``;
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
from repro.runtime.cache import CORNER_SCHEMA, STALE_TEMP_S, ResultCache
from repro.study.results import Fig3Result, Provenance
from test_runtime import corner_records, counted, isolated_store

CORNER_KEYS = tuple(hashlib.sha256(f"corner-{index}".encode()).hexdigest()
                    for index in range(3))
STUDY_KEYS = tuple(hashlib.sha256(f"study-{index}".encode()).hexdigest()
                   for index in range(2))


def _payload(key):
    """The one payload of a corner address: a content-addressed store
    never holds two different payloads under one key."""
    return {"digits": [int(key[index:index + 4], 16) for index in (0, 4, 8)],
            "key": key[:12], "ratio": int(key[:4], 16) / 7.0}


def _digest(payload):
    return hashlib.sha256(json.dumps(
        payload, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


def _record_line(key, created):
    """The bytes of one valid corner record for ``key``."""
    payload = _payload(key)
    wrapper = {"schema": CORNER_SCHEMA, "fingerprint": key,
               "study": "corner", "engine": "immunity",
               "sha256": _digest(payload), "created": created,
               "payload": payload}
    return (json.dumps(wrapper, sort_keys=True) + "\n").encode()


def _valid(line, key):
    try:
        wrapper = json.loads(line)
    except ValueError:
        return False
    return (isinstance(wrapper, dict)
            and wrapper.get("schema") == CORNER_SCHEMA
            and wrapper.get("fingerprint") == key
            and wrapper.get("sha256") == _digest(wrapper.get("payload")))


def _after(line, marker):
    return line.index(marker) + len(marker)


def _flip_payload_digit(line):
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
    """One store root, its :class:`ResultCache` and the model.

    ``corners`` maps each key with a valid record on disk to the write
    time of its newest one; ``bad_on_disk`` counts each key's corrupt
    records; ``bad_view`` says whether the store object must (``live``)
    or may (``maybe``) meet one of them on its next read of the key.
    Write times come from a clock the machine advances by one second per
    write, so every age and recency bound has one right answer.
    """

    def __init__(self):
        super().__init__()
        self.root = Path(tempfile.mkdtemp(prefix="store-machine-"))
        self.real_wall_time = clock.wall_time
        self.now = self.real_wall_time()
        clock.wall_time = lambda: self.now
        self.store = ResultCache(self.root)
        self.other = None
        self.studies = {}
        self.corners = {}
        self.bad_on_disk = {}
        self.bad_view = {}
        self.temps = []
        self.writes = 0

    def teardown(self):
        clock.wall_time = self.real_wall_time
        shutil.rmtree(self.root, ignore_errors=True)

    @initialize(keys=st.sets(st.sampled_from(CORNER_KEYS)))
    def populate(self, keys):
        """Start from a store that holds some corners."""
        for key in sorted(keys):
            self.put_corner(key, "immunity")

    # -- study entries ---------------------------------------------------------

    @rule(key=st.sampled_from(STUDY_KEYS),
          area=st.integers(0, 999).map(float))
    def put(self, key, area):
        self.now += 1.0
        result = Fig3Result(provenance=Provenance.capture("fig3"),
                            baseline_area=area)
        self.store.put(key, result)
        self.studies[key] = (result, self.now)

    @rule(key=st.sampled_from(STUDY_KEYS))
    def get(self, key):
        value = self.store.get(key)
        if key in self.studies:
            assert value == self.studies[key][0]
        else:
            assert value is None

    # -- corner entries --------------------------------------------------------

    @rule(key=st.sampled_from(CORNER_KEYS),
          engine=st.sampled_from(("immunity", "transient")))
    def put_corner(self, key, engine):
        self.now += 1.0
        self.store.put_corner(key, _payload(key), engine)
        self.corners[key] = self.now

    @rule(key=st.sampled_from(CORNER_KEYS))
    def put_corner_alias(self, key):
        """Another store object of this process on the root writes a
        corner."""
        self.now += 1.0
        ResultCache(self.root).put_corner(key, _payload(key), "transient")
        self.corners[key] = self.now

    @rule(key=st.sampled_from(CORNER_KEYS))
    def put_corner_elsewhere(self, key):
        """A store with its own index and segment, as another process
        would hold, writes a corner."""
        if self.other is None:
            self.other = isolated_store(self.root)
        self.now += 1.0
        self.other.put_corner(key, _payload(key), "immunity")
        self.corners[key] = self.now

    @rule(keys=st.lists(st.sampled_from(CORNER_KEYS), max_size=6))
    def get_corners(self, keys):
        found, counts = counted(lambda: self.store.get_corners(keys))
        distinct = set(keys)
        assert found == {key: _payload(key) for key in distinct
                         if key in self.corners}
        hits = sum(1 for key in keys if key in self.corners)
        assert counts.get("cache.corner_hits", 0) == hits
        assert counts.get("cache.corner_misses", 0) == len(keys) - hits
        must = sum(1 for key in distinct if key not in self.corners
                   and self.bad_view.get(key) == "live")
        may = sum(1 for key in distinct if key in self.bad_view)
        assert must <= counts.get("cache.corner_corrupt", 0) <= may
        for key in distinct & set(self.bad_view):
            if key in self.corners:
                self.bad_view[key] = "maybe"
            else:
                del self.bad_view[key]

    @precondition(lambda self: self.corners)
    @rule(data=st.data(), corruption=st.sampled_from(CORRUPTIONS),
          read_now=st.booleans())
    def corrupt_corner(self, data, corruption, read_now):
        """Damage every valid stored record of one stored key in place,
        and maybe read the key back at once."""
        key = data.draw(st.sampled_from(sorted(self.corners)))
        spans = [(path, offset, line)
                 for path, offset, line in corner_records(self.root)
                 if _valid(line, key)]
        assert spans
        for path, offset, line in spans:
            at, byte = corruption(line)
            with open(path, "r+b") as stream:
                stream.seek(offset + at)
                stream.write(byte)
        del self.corners[key]
        self.bad_on_disk[key] = self.bad_on_disk.get(key, 0) + len(spans)
        # A store that has not indexed the record yet cannot attribute it
        # to the key once its fingerprint or syntax is broken.
        attributable = corruption not in (_break_fingerprint, _break_syntax)
        if attributable or self.bad_view.get(key) == "live":
            self.bad_view[key] = "live"
        else:
            self.bad_view[key] = "maybe"
        if read_now:
            self.get_corners([key])

    @rule(key=st.sampled_from(CORNER_KEYS), cut=st.floats(0.1, 0.95))
    def torn_tail(self, key, cut):
        """A writer killed mid-append leaves a segment that ends in part
        of a record."""
        corners = self.root / "corners"
        corners.mkdir(parents=True, exist_ok=True)
        line = _record_line(key, self.now)
        self.writes += 1
        path = corners / f"killed-{self.writes}.seg"
        path.write_bytes(line[:int(len(line) * cut)])

    @rule(tier=st.sampled_from(("objects/ab", "corners")),
          stale=st.booleans())
    def temp_file(self, tier, stale):
        """A writer's temp file: a killed one's (stale) or a live one's."""
        directory = self.root / tier
        directory.mkdir(parents=True, exist_ok=True)
        self.writes += 1
        path = directory / f".tmp-{self.writes}.json"
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
        self.bad_view = {key: "maybe" for key in self.bad_on_disk}

    # -- maintenance -----------------------------------------------------------

    @staticmethod
    def _bound(model, created_of, cutoff, max_entries):
        """Remove from ``model`` what ``prune`` bounds remove; return the
        count."""
        if cutoff is None and max_entries is None:
            doomed = set(model)
        else:
            doomed = set()
            if cutoff is not None:
                doomed.update(key for key in model
                              if created_of(model[key]) < cutoff)
            if max_entries is not None:
                survivors = sorted((key for key in model if key not in doomed),
                                   key=lambda key: created_of(model[key]),
                                   reverse=True)
                doomed.update(survivors[max_entries:])
        for key in doomed:
            del model[key]
        return len(doomed)

    @rule(study=st.sampled_from((None, "corner", "fig3")),
          max_age_s=st.none() | st.integers(0, 20),
          max_entries=st.none() | st.integers(0, 5))
    def prune(self, study, max_age_s, max_entries):
        removed = self.store.prune(study=study, max_age_s=max_age_s,
                                   max_entries=max_entries)
        cutoff = None if max_age_s is None else self.now - max_age_s
        expected = 0
        if study in (None, "fig3"):
            expected += self._bound(self.studies, lambda entry: entry[1],
                                    cutoff, max_entries)
        if study in (None, "corner"):
            expected += self._bound(self.corners, lambda created: created,
                                    cutoff, max_entries)
            expected += sum(self.bad_on_disk.values())
            self.bad_on_disk.clear()
            self.bad_view.clear()
        assert removed == expected
        for path in self.root.rglob(".tmp-*"):
            assert path.stat().st_mtime >= self.now - STALE_TEMP_S
        for path, stale in self.temps:
            assert path.exists() is not stale
        self.temps = [(path, stale) for path, stale in self.temps
                      if not stale]

    @invariant()
    def a_new_reader_sees_the_model(self):
        assert isolated_store(self.root).get_corners(CORNER_KEYS) == {
            key: _payload(key) for key in self.corners}

    @invariant()
    def stats_agree(self):
        stats = self.store.stats()
        assert stats.corner_entries == len(self.corners)
        assert stats.entries == len(self.studies)
        assert stats.by_study == ({"fig3": len(self.studies)}
                                  if self.studies else {})


TestStoreMachine = StoreMachine.TestCase
if settings.get_current_profile_name() != "store-long":
    TestStoreMachine.settings = settings(max_examples=100,
                                         stateful_step_count=50,
                                         deadline=None)
