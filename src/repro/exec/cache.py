"""On-disk result cache for sweep points.

Finished point results are stored as :mod:`repro.exec.codec` bytes
(memo-free pickle) under ``<root>/<code fingerprint>/<spec>/<key>.res``
where the key hashes the point's config and the sweep's base seed, and
the fingerprint hashes the ``repro`` package sources.  Any code change
therefore invalidates the whole cache (stale results can never be
served), while re-runs and re-renders of an unchanged sweep are
near-instant.  Entries written by older code -- including the older
``.pkl`` and ``RXC1`` formats -- live under rotated fingerprints and
are swept away by :meth:`ResultCache.evict_stale`.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import os
import shutil
import tempfile
from pathlib import Path
from typing import Any, Callable, Iterator, List, Mapping, Optional, Tuple

from repro.exec.codec import CodecError, decode_result, encode_result
from repro.exec.seeding import config_blob

#: Suffix of one stored point result (codec-encoded; the pre-codec
#: pickle format used ``.pkl``, which the iteration API ignores).
ENTRY_SUFFIX = ".res"


@functools.lru_cache(maxsize=1)
def code_fingerprint() -> str:
    """Hash of every ``.py`` source in the ``repro`` package.

    Computed once per process; cheap relative to any simulation run.
    """
    import repro

    package_root = Path(repro.__file__).resolve().parent
    digest = hashlib.sha256()
    for path in sorted(package_root.rglob("*.py")):
        digest.update(str(path.relative_to(package_root)).encode("utf-8"))
        digest.update(b"\x00")
        digest.update(path.read_bytes())
        digest.update(b"\x00")
    return digest.hexdigest()[:16]


def function_fingerprint(fn: Callable) -> str:
    """Hash of a point function's identity and source.

    Point functions may live outside the ``repro`` package (a user's
    sweep script), where :func:`code_fingerprint` can't see edits; this
    folds the function's own source into the cache key so stale results
    are never served for those either.
    """
    try:
        source = inspect.getsource(fn)
    except (OSError, TypeError):
        source = ""
    identity = (
        f"{getattr(fn, '__module__', '')}."
        f"{getattr(fn, '__qualname__', repr(fn))}"
    )
    digest = hashlib.sha256(
        identity.encode("utf-8") + b"\x00" + source.encode("utf-8")
    )
    return digest.hexdigest()[:16]


class ResultCache:
    """Entry-per-point cache keyed by config hash + code version.

    Entries are codec-encoded (:mod:`repro.exec.codec`), so the bytes a
    sweep leaves on disk are identical whether the results were computed
    in process or by the hub's workers -- the cache-key-equality half of
    the parity guarantee.
    """

    def __init__(self, root: os.PathLike, fingerprint: Optional[str] = None):
        self.root = Path(root)
        self.fingerprint = fingerprint or code_fingerprint()
        self.hits = 0
        self.misses = 0
        self.writes = 0

    def _path(self, spec_name: str, base_seed: int,
              config: Mapping[str, Any], fn_key: str = "",
              point_seed: int = 0) -> Path:
        # point_seed is in the key because two seeding modes (paired vs
        # per-point) can assign the same (name, base_seed, config)
        # different seeds; their results must never alias.
        key = hashlib.sha256(
            b"\x00".join([
                spec_name.encode("utf-8"),
                str(int(base_seed)).encode("ascii"),
                config_blob(config),
                fn_key.encode("ascii"),
                str(int(point_seed)).encode("ascii"),
            ])
        ).hexdigest()
        safe_name = "".join(
            ch if ch.isalnum() or ch in "-_." else "_" for ch in spec_name
        )
        return (self.root / self.fingerprint / safe_name
                / f"{key}{ENTRY_SUFFIX}")

    def has(self, spec_name: str, base_seed: int,
            config: Mapping[str, Any], fn_key: str = "",
            point_seed: int = 0) -> bool:
        """Whether an entry exists, without unpickling it.

        A pure existence probe (no counters move): coverage reporting
        over a large grid should not deserialize every stored result.
        """
        return self._path(spec_name, base_seed, config, fn_key,
                          point_seed).is_file()

    def get(self, spec_name: str, base_seed: int,
            config: Mapping[str, Any], fn_key: str = "",
            point_seed: int = 0) -> Tuple[bool, Any]:
        """``(True, value)`` on a hit, ``(False, None)`` otherwise.

        A corrupt, unreadable or wrong-format entry counts as a miss
        and is recomputed.
        """
        path = self._path(spec_name, base_seed, config, fn_key, point_seed)
        try:
            blob = path.read_bytes()
            value = decode_result(blob)
        except (OSError, CodecError):
            self.misses += 1
            return False, None
        self.hits += 1
        return True, value

    def put(self, spec_name: str, base_seed: int,
            config: Mapping[str, Any], value: Any,
            fn_key: str = "", point_seed: int = 0) -> None:
        """Store one finished point result (codec-encoded, atomic rename)."""
        self.put_encoded(spec_name, base_seed, config, encode_result(value),
                         fn_key, point_seed=point_seed)

    def put_encoded(self, spec_name: str, base_seed: int,
                    config: Mapping[str, Any], blob: bytes,
                    fn_key: str = "", point_seed: int = 0) -> None:
        """Store one already-encoded point result (atomic rename).

        This is the hub path's write: the worker already produced the
        canonical codec bytes, so they flow from its digest-checked
        result frame to disk without being encoded a second time.
        Because encoding is deterministic, the entry is byte-identical
        to what :meth:`put` would have written.
        """
        path = self._path(spec_name, base_seed, config, fn_key, point_seed)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(
            dir=str(path.parent), suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(blob)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        self.writes += 1

    # -- introspection --------------------------------------------------------

    def spec_names(self) -> List[str]:
        """Sweep names with at least one entry under the current code.

        Names come back as their filesystem-safe forms (the cache never
        stores the raw name), sorted for deterministic output.
        """
        tree = self.root / self.fingerprint
        if not tree.is_dir():
            return []
        return sorted(
            entry.name for entry in tree.iterdir()
            if entry.is_dir() and any(entry.glob(f"*{ENTRY_SUFFIX}"))
        )

    def iter_entries(self, spec_name: Optional[str] = None
                     ) -> Iterator[Tuple[str, Path]]:
        """Yield ``(spec name, entry path)`` for current-code entries.

        ``spec_name`` (filesystem-safe form) restricts iteration to one
        sweep.  Entries under other code fingerprints are never yielded:
        they can never be served again.  Order is deterministic (sorted
        by name then path).
        """
        for name in self.spec_names():
            if spec_name is not None and name != spec_name:
                continue
            for path in sorted((self.root / self.fingerprint / name)
                               .glob(f"*{ENTRY_SUFFIX}")):
                yield name, path

    def entry_count(self, spec_name: Optional[str] = None) -> int:
        """Number of current-code entries (optionally for one sweep)."""
        return sum(1 for _ in self.iter_entries(spec_name))

    # -- maintenance ----------------------------------------------------------

    def evict_stale(self) -> int:
        """Remove cache trees written under *other* code fingerprints.

        Every edit to the ``repro`` sources rotates the fingerprint, so
        the old trees can never be read again; without eviction they
        accumulate as dead weight.  Returns the number of fingerprint
        directories removed.  Entries under the current fingerprint are
        untouched.
        """
        if not self.root.is_dir():
            return 0
        removed = 0
        for entry in sorted(self.root.iterdir()):
            if not entry.is_dir() or entry.name == self.fingerprint:
                continue
            shutil.rmtree(entry, ignore_errors=True)
            removed += 1
        return removed

    def clear(self) -> int:
        """Remove every cached entry (all fingerprints, all specs).

        Returns the number of top-level entries removed.  The root
        directory itself is kept so a running sweep can repopulate it.
        """
        if not self.root.is_dir():
            return 0
        removed = 0
        for entry in sorted(self.root.iterdir()):
            if entry.is_dir():
                shutil.rmtree(entry, ignore_errors=True)
            else:
                entry.unlink(missing_ok=True)
            removed += 1
        return removed
