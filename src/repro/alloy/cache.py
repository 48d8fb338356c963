"""Structural-hash CNF compilation cache for the SAT oracle.

Compiling a litmus test's relational problem to CNF (translator + Tseitin)
is the fixed cost the incremental oracle pays once per test.  Symmetric
and re-visited tests share that cost through this cache: compiled
problems (:class:`repro.relational.solve.CompiledProblem` snapshots) are
keyed by a structural hash of *(model fingerprint, exact test form)* and
served from a bounded in-memory LRU, optionally backed by an on-disk
directory so the cost amortizes across worker processes and across runs.

The key uses the test's **exact** structural form, not its canonical
form: the snapshot embeds per-event tuple-variable numbering, so loading
it for a merely-symmetric variant would decode executions against the
wrong events.  Within a synthesis run the enumerator dedups by canonical
form upstream, so exact keying loses nothing there; the disk layer wins
across runs and across shard workers that revisit equal forms.

Disk entries are self-describing JSON (``schema`` + ``model`` fields), so
the :mod:`repro.analysis` pipeline lints can detect directories that mix
incompatible model fingerprints or stale schema versions.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from collections import OrderedDict

from repro.litmus.test import LitmusTest
from repro.relational.solve import CompiledProblem

__all__ = ["CNFCache", "CACHE_SCHEMA", "cache_key", "entry_to_dict", "entry_from_dict"]

#: bump when CompiledProblem's serialized shape changes
CACHE_SCHEMA = 3


def cache_key(model_fingerprint: str, test: LitmusTest, with_sc: bool) -> str:
    """Structural hash identifying one compiled problem.

    Content-derived (no salted ``hash()``), so keys agree across worker
    processes and across runs.  Deps sort under an explicit key:
    ``DepKind`` members are unordered, and two edges on the same
    (src, dst) pair differing only in kind would otherwise make
    ``sorted`` fall through to comparing kinds.  The address map is part
    of the key — the compiled ``loc``/``co`` constraints depend on it.
    """
    payload = repr(
        (
            CACHE_SCHEMA,
            model_fingerprint,
            test.threads,
            sorted(test.rmw),
            sorted(test.deps, key=lambda d: (d.src, d.dst, d.kind.value)),
            test.scopes,
            test.addr_map,
            with_sc,
        )
    )
    return hashlib.blake2b(payload.encode(), digest_size=16).hexdigest()


def entry_to_dict(model_fingerprint: str, compiled: CompiledProblem) -> dict:
    """JSON-ready form of one cache entry (self-describing for lints)."""
    return {
        "schema": CACHE_SCHEMA,
        "model": model_fingerprint,
        "num_vars": compiled.num_vars,
        "units": list(compiled.units),
        "clauses": [list(c) for c in compiled.clauses],
        "tuple_vars": [
            [name, list(t), var] for name, t, var in compiled.tuple_vars
        ],
        "roots": [[label, lit] for label, lit in compiled.roots],
        "unsat": compiled.unsat,
    }


def entry_from_dict(data: dict) -> CompiledProblem:
    return CompiledProblem(
        num_vars=data["num_vars"],
        units=tuple(data["units"]),
        clauses=tuple(tuple(c) for c in data["clauses"]),
        tuple_vars=tuple(
            (name, tuple(t), var) for name, t, var in data["tuple_vars"]
        ),
        roots=tuple((label, lit) for label, lit in data["roots"]),
        unsat=data["unsat"],
    )


class CNFCache:
    """Bounded LRU of compiled problems, with an optional disk layer.

    ``capacity`` bounds the in-memory layer only; the disk layer (when
    ``disk_dir`` is set) is unbounded and shared — writes go through an
    atomic ``tmp + rename`` so concurrent workers never observe partial
    entries.  ``capacity=0`` disables the memory layer (every lookup goes
    to disk, or misses); the analysis lints flag configurations where
    that happens silently.
    """

    def __init__(
        self,
        model_fingerprint: str,
        capacity: int = 256,
        disk_dir: str | None = None,
    ):
        self.model_fingerprint = model_fingerprint
        self.capacity = capacity
        self.disk_dir = disk_dir
        self._memory: OrderedDict[str, CompiledProblem] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.disk_hits = 0
        self.stores = 0
        #: entries already present in the disk layer when this cache was
        #: built — a freshly (re)started process over a populated
        #: directory is *warm*, and the SAT009 lint flags warm runs
        #: whose compile_hit_rate still reads 0.0 (the signature of a
        #: mis-pointed or fingerprint-mismatched cache directory).
        self.warm_entries = 0
        if disk_dir is not None:
            os.makedirs(disk_dir, exist_ok=True)
            self.warm_entries = sum(
                1
                for name in os.listdir(disk_dir)
                if name.endswith(".json") and not name.startswith(".")
            )

    def key(self, test: LitmusTest, with_sc: bool) -> str:
        return cache_key(self.model_fingerprint, test, with_sc)

    def _path(self, key: str) -> str:
        assert self.disk_dir is not None
        return os.path.join(self.disk_dir, f"{key}.json")

    def get(self, key: str) -> CompiledProblem | None:
        cached = self._memory.get(key)
        if cached is not None:
            self._memory.move_to_end(key)
            self.hits += 1
            return cached
        if self.disk_dir is not None:
            try:
                with open(self._path(key), encoding="utf-8") as fh:
                    data = json.load(fh)
            except (OSError, ValueError):
                data = None
            if (
                data is not None
                and data.get("schema") == CACHE_SCHEMA
                and data.get("model") == self.model_fingerprint
            ):
                compiled = entry_from_dict(data)
                self._remember(key, compiled)
                self.disk_hits += 1
                self.hits += 1
                return compiled
        self.misses += 1
        return None

    def put(self, key: str, compiled: CompiledProblem) -> None:
        self._remember(key, compiled)
        self.stores += 1
        if self.disk_dir is not None:
            path = self._path(key)
            if not os.path.exists(path):
                payload = json.dumps(
                    entry_to_dict(self.model_fingerprint, compiled),
                    separators=(",", ":"),
                )
                fd, tmp = tempfile.mkstemp(
                    dir=self.disk_dir, prefix=".tmp-", suffix=".json"
                )
                try:
                    with os.fdopen(fd, "w", encoding="utf-8") as fh:
                        fh.write(payload)
                    os.replace(tmp, path)
                except OSError:
                    try:
                        os.unlink(tmp)
                    except OSError:
                        pass

    def _remember(self, key: str, compiled: CompiledProblem) -> None:
        if self.capacity <= 0:
            return
        self._memory[key] = compiled
        self._memory.move_to_end(key)
        while len(self._memory) > self.capacity:
            self._memory.popitem(last=False)

    def as_metrics(self) -> dict[str, int]:
        """The :class:`repro.obs.Stats` protocol: raw summable counters.

        ``compile_warm_entries`` is a gauge, not a counter: deltas keep
        it and merges take the maximum (:mod:`repro.obs.metrics`), so a
        merged nonzero value means at least one worker started warm.
        """
        return {
            "compile_hits": self.hits,
            "compile_misses": self.misses,
            "compile_disk_hits": self.disk_hits,
            "compile_stores": self.stores,
            "compile_warm_entries": self.warm_entries,
        }
