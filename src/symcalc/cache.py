"""Optional persistent cache for memoized coefficient tables and for the
CLI's answers.

One JSON file per (kind, key), with a format-version header and a sha256
checksum of the payload; corrupted, stale or malformed entries are logged
and recomputed.  A read checksums the payload text as ``put`` stored it,
with sorted keys, so a file in another layout is unreadable.  Writes are
atomic (temp file + rename), so concurrent readers on the same directory
are safe.  All IO failures degrade to in-memory operation.

Kind ``answer`` holds the stdout and stderr of one CLI command that
exited 0 and the digest of this package's ``.py`` files that computed
them, under ``answer_key``, the sha256 of its parsed arguments.  An answer
from other sources is a miss, and the command's next answer replaces it,
so a directory keeps one answer per command.

Warnings go to the ``symcalc.cache`` logger.  ``logging`` loads on the
first warning, ``json`` and sha256 on the first IO or key, ``tempfile``
on the first write.  The sha256 is CPython's built-in module, as
``random`` takes its sha512: ``hashlib``, the fallback, loads OpenSSL
(3 MB and 4 ms a process).
"""

from __future__ import annotations

import os

FORMAT_VERSION = 1
# an entry is {"payload": <payload text>, "sha256": "<hex>", "version": 1}
_HEAD, _SUM = '{"payload": ', ', "sha256": "'

_active: "PersistentCache | None" = None
_new_sha256 = None  # the sha256 constructor, bound by the first checksum
_sources = None  # digest of the package's sources; "" when unreadable


def set_cache_dir(path) -> "PersistentCache | None":
    """Install a process-wide cache directory (None disables)."""
    global _active
    _active = PersistentCache(path) if path else None
    return _active


def _sha256(data: bytes) -> str:
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
    return _new_sha256(data).hexdigest()


def _checksum(payload_text: str) -> str:
    return _sha256(payload_text.encode("utf-8"))


def answer_key(command: dict) -> "str | None":
    """The key of a command's stored answer, or None when no usable
    directory is active or the package's sources cannot be read."""
    global _sources
    if _active is None or not _active.usable:
        return None
    if _sources is None:
        here, files = os.path.dirname(os.path.abspath(__file__)), []
        try:
            for name in sorted(os.listdir(here)):
                if name.endswith(".py"):
                    with open(os.path.join(here, name), "rb") as fh:
                        files += [name.encode(), fh.read()]
            _sources = _sha256(b"\0".join(files))
        except OSError:
            _sources = ""
    if not _sources:
        return None
    import json
    return _checksum(json.dumps(command, sort_keys=True))


def _load(kind: str, key: str, decode):
    """decode(payload) of the active directory's entry; None if absent,
    corrupted or malformed (decode raised Arithmetic/Lookup/ValueError)."""
    payload = _active.get(kind, key)
    try:
        return None if payload is None else decode(payload)
    except (ArithmeticError, LookupError, ValueError):
        _warn("cache entry %s malformed; recomputing",
              _active._path(kind, key))


def _answer(payload) -> dict:
    if isinstance(payload, dict) and all(
            isinstance(payload.get(k), str)
            for k in ("sources", "stdout", "stderr")):
        return payload
    raise ValueError("not an answer")


def stored_answer(key: str) -> "dict | None":
    """The active directory's answer under ``key`` if these sources stored
    it; a malformed one warns."""
    answer = _load("answer", key, _answer)
    return answer if answer and answer["sources"] == _sources else None


def store_answer(key: str, answer: dict) -> None:
    """Store ``answer`` under ``key``, with the digest of these sources."""
    _active.put("answer", key, dict(answer, sources=_sources))


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
            head, sep, tail = text.rpartition(_SUM)
            payload_text = head.removeprefix(_HEAD)
            if not sep or payload_text == head:
                raise ValueError("not a JSON object in the stored layout")
            payload = json.loads(payload_text)
            doc = json.loads("{" + _SUM[2:] + tail)
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
        text = (f'{_HEAD}{payload_text}{_SUM}{_checksum(payload_text)}", '
                f'"version": {FORMAT_VERSION}}}')
        tmp = None
        try:
            fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except OSError as exc:
            _warn("cache write to %s failed (%s); continuing", path, exc)
            if tmp is not None:
                try:
                    os.remove(tmp)
                except OSError:
                    pass


def cached_table(kind: str, key: str, compute, encode, decode):
    """Fetch (kind,key) from the active cache or compute-and-store; a
    malformed entry (see ``_load``) is recomputed and stored again."""
    value = None if _active is None else _load(kind, key, decode)
    if value is None:
        value = compute()
        if _active is not None:
            _active.put(kind, key, encode(value))
    return value
