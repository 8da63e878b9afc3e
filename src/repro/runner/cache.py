"""Content-addressed on-disk cache for sweep-point results.

Every point result is stored as JSON under ``<root>/<experiment>/
<key>.json`` where ``key`` is the SHA-256 of the canonical JSON of

* the experiment id and the point's params,
* the *entire* canonicalized :class:`MachineConfig`, and
* a fingerprint of the ``repro`` package's source code,

so any change to a config field, a sweep parameter, or the model code
yields a different key — stale entries are simply never addressed.
Corrupted or truncated entries are treated as misses (removed and
recomputed), never as errors.

Hit/miss/store/corrupt events are counted on the instance (for run
reports) and mirrored into :mod:`repro.observability.metrics` whenever a
registry is active (``runner.cache.hits`` etc.).
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from ..config.runner import DEFAULT_CACHE_DIR
from ..observability.metrics import metric_counter
from .canonical import canonical_json

#: Bump when the entry schema changes; old entries become misses.
CACHE_VERSION = 1

_FINGERPRINT: str | None = None


def code_fingerprint(refresh: bool = False) -> str:
    """SHA-256 over every ``.py`` file of the installed ``repro`` package.

    Memoized per process: the sources cannot change under a running
    simulation, and hashing ~200 files per point would dominate cheap
    points.
    """
    global _FINGERPRINT
    if _FINGERPRINT is None or refresh:
        import repro

        root = Path(repro.__file__).resolve().parent
        digest = hashlib.sha256()
        for path in sorted(root.rglob("*.py")):
            digest.update(path.relative_to(root).as_posix().encode())
            digest.update(b"\x00")
            digest.update(path.read_bytes())
            digest.update(b"\x00")
        _FINGERPRINT = digest.hexdigest()
    return _FINGERPRINT


def key_prefix(
    experiment_id: str, machine: Any, code: str | None = None
) -> Any:
    """The SHA-256 state after every key byte that precedes the params.

    Top-level keys sort as ``cache_version, code, experiment, machine,
    params``, so a run canonicalizes its machine once here and
    :func:`cache_key` hashes each point's params on a copy.
    """
    head = canonical_json(
        {
            "cache_version": CACHE_VERSION,
            "experiment": experiment_id,
            "machine": machine,
            "params": None,
            "code": code if code is not None else code_fingerprint(),
        }
    )
    return hashlib.sha256(head.removesuffix("null}").encode())


def cache_key(prefix: Any, params: dict[str, Any]) -> str:
    """The content address of one sweep point's result: the SHA-256 of
    the whole payload's canonical JSON, ``prefix`` from :func:`key_prefix`."""
    digest = prefix.copy()
    digest.update(canonical_json(params).encode() + b"}")
    return digest.hexdigest()


@dataclass
class CacheCounters:
    """Per-instance event counts (mirrored into observability metrics)."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    corrupt: int = 0


class ResultCache:
    """JSON point results under ``root``, addressed by :func:`cache_key`."""

    def __init__(self, root: str | Path = DEFAULT_CACHE_DIR) -> None:
        self.root = Path(root)
        self.counters = CacheCounters()

    def path_for(self, experiment_id: str, key: str) -> Path:
        return self.root / experiment_id / f"{key}.json"

    def get(self, experiment_id: str, key: str) -> tuple[bool, Any]:
        """``(hit, value)``; corrupt entries are dropped and miss."""
        path = self.path_for(experiment_id, key)
        try:
            raw = path.read_text()
        except OSError:
            return False, self._miss()
        try:
            entry = json.loads(raw)
            if (
                entry["cache_version"] != CACHE_VERSION
                or entry["key"] != key
            ):
                raise KeyError("entry does not match its address")
            value = entry["value"]
        except (ValueError, KeyError, TypeError):
            self.counters.corrupt += 1
            metric_counter("runner.cache.corrupt").inc()
            try:
                path.unlink()
            except OSError:
                pass
            return False, self._miss()
        self.counters.hits += 1
        metric_counter("runner.cache.hits").inc()
        return True, value

    def put(
        self,
        experiment_id: str,
        key: str,
        value: Any,
        params: dict[str, Any] | None = None,
    ) -> Path:
        """Persist one point result atomically (write + rename)."""
        path = self.path_for(experiment_id, key)
        path.parent.mkdir(parents=True, exist_ok=True)
        entry = {
            "cache_version": CACHE_VERSION,
            "experiment": experiment_id,
            "key": key,
            "params": params if params is not None else {},
            "value": value,
        }
        tmp = path.with_name(f".{key}.{os.getpid()}.tmp")
        tmp.write_text(json.dumps(entry, indent=1) + "\n")
        os.replace(tmp, path)
        self.counters.stores += 1
        metric_counter("runner.cache.stores").inc()
        return path

    def _miss(self) -> None:
        self.counters.misses += 1
        metric_counter("runner.cache.misses").inc()
        return None

    def clear(self) -> int:
        """Remove the whole cache tree; returns the entry count removed."""
        removed = sum(1 for _ in self.root.glob("*/*.json"))
        shutil.rmtree(self.root, ignore_errors=True)
        return removed

    def stats(self) -> dict[str, Any]:
        """On-disk shape of the cache: entries and bytes per experiment."""
        experiments: dict[str, dict[str, int]] = {}
        total_entries = 0
        total_bytes = 0
        if self.root.is_dir():
            for exp_dir in sorted(p for p in self.root.iterdir() if p.is_dir()):
                entries = 0
                nbytes = 0
                for entry in exp_dir.glob("*.json"):
                    entries += 1
                    nbytes += entry.stat().st_size
                if entries:
                    experiments[exp_dir.name] = {
                        "entries": entries,
                        "bytes": nbytes,
                    }
                    total_entries += entries
                    total_bytes += nbytes
        return {
            "root": str(self.root),
            "experiments": experiments,
            "entries": total_entries,
            "bytes": total_bytes,
        }
