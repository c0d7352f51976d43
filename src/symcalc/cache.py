"""Optional persistent cache for memoized coefficient tables.

One JSON file per (kind, key), with a format-version header and a sha256
checksum of the payload; corrupted or stale entries are detected, logged
and recomputed.  A read checksums the payload text as ``put`` stored it,
with sorted keys, so a file in another layout is unreadable.  Writes are
atomic (temp file + rename), so concurrent readers on the same directory
are safe.  All IO failures degrade to in-memory operation.

Warnings go to the ``symcalc.cache`` logger.  ``logging`` loads on the
first warning, ``json``, ``tempfile`` and sha256 on the first IO.  The
sha256 is CPython's built-in module, as ``random`` takes its sha512:
``hashlib``, the fallback, loads OpenSSL (3 MB and 4 ms a process).
"""

from __future__ import annotations

import os

FORMAT_VERSION = 1

_active: "PersistentCache | None" = None
_new_sha256 = None  # the sha256 constructor, bound by the first checksum


def set_cache_dir(path) -> "PersistentCache | None":
    """Install a process-wide cache directory (None disables)."""
    global _active
    _active = PersistentCache(path) if path else None
    return _active


def _checksum(payload_text: str) -> str:
    global _new_sha256
    if _new_sha256 is None:
        try:
            from _sha256 import sha256  # Python 3.10, 3.11
        except ImportError:
            try:
                from _sha2 import sha256  # Python 3.12+
            except ImportError:
                from hashlib import sha256
        _new_sha256 = sha256
    return _new_sha256(payload_text.encode("utf-8")).hexdigest()


def _warn(msg: str, *args) -> None:
    """Log a warning on ``symcalc.cache``.  As ``logging.warning()`` does,
    give the root logger a stderr handler first if it has none."""
    import logging
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
    logging.getLogger("symcalc.cache").warning(msg, *args)


class PersistentCache:
    def __init__(self, directory):
        self.directory = str(directory)
        try:
            os.makedirs(self.directory, exist_ok=True)
            self.usable = True
        except OSError as exc:
            _warn("cache directory unusable (%s); using memory only", exc)
            self.usable = False

    def _path(self, kind: str, key: str) -> str:
        safe = key.replace(",", "_").replace(" ", "")
        return os.path.join(self.directory, f"{kind}-{safe}.json")

    def get(self, kind: str, key: str):
        """Return the stored payload, or None if absent or corrupted."""
        if not self.usable:
            return None
        import json
        path = self._path(kind, key)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
            # put's layout: {"payload": ..., "sha256": "...", "version": ...}
            head, sep, tail = text.rpartition(', "sha256": "')
            payload_text = head.removeprefix('{"payload": ')
            if not sep or payload_text == head:
                raise ValueError("not a JSON object in the stored layout")
            payload = json.loads(payload_text)
            doc = json.loads('{"sha256": "' + tail)
        except FileNotFoundError:
            return None
        except (OSError, ValueError) as exc:  # UnicodeDecodeError too
            _warn("cache entry %s unreadable (%s); recomputing", path, exc)
            return None
        if doc.get("version") != FORMAT_VERSION:
            _warn("cache entry %s has wrong version; recomputing", path)
            return None
        if doc.get("sha256") != _checksum(payload_text):
            _warn("cache entry %s failed checksum; recomputing", path)
            return None
        return payload

    def put(self, kind: str, key: str, payload) -> None:
        if not self.usable:
            return
        import json
        import tempfile
        path = self._path(kind, key)
        payload_text = json.dumps(payload, sort_keys=True)
        doc = {"version": FORMAT_VERSION, "sha256": _checksum(payload_text),
               "payload": payload}
        try:
            fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(doc, fh, sort_keys=True)
            os.replace(tmp, path)
        except OSError as exc:
            _warn("cache write to %s failed (%s); continuing", path, exc)


def cached_table(kind: str, key: str, compute, encode, decode):
    """Fetch (kind,key) from the active cache or compute-and-store."""
    cache = _active
    if cache is not None:
        payload = cache.get(kind, key)
        if payload is not None:
            return decode(payload)
    value = compute()
    if cache is not None:
        cache.put(kind, key, encode(value))
    return value
