"""On-disk trial result cache.

Results are keyed by ``(spec fingerprint, code version)``: the
fingerprint pins the trial inputs, the code version pins the simulator
that produced them.  The code version is a content hash of every
``repro`` source file, so *any* source edit invalidates the whole cache
— conservative, but it can never serve a stale result, and a full
re-run is exactly what the parallel runner makes cheap.

One JSON file per spec (named by fingerprint).  A version mismatch is a
miss and the file is overwritten on the next store, so the cache does
not grow across code edits.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Optional

from repro.runtime.result import TrialResult

#: Default cache location (relative to the working directory).
DEFAULT_CACHE_DIR = ".repro-cache"

_CODE_VERSION: Optional[str] = None


def code_version() -> str:
    """Content hash of the installed ``repro`` package sources.

    Computed once per process (the package is ~60 small files).
    """
    global _CODE_VERSION
    if _CODE_VERSION is None:
        import repro
        root = Path(repro.__file__).resolve().parent
        digest = hashlib.sha256()
        for path in sorted(root.rglob("*.py")):
            digest.update(str(path.relative_to(root)).encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
            digest.update(b"\0")
        _CODE_VERSION = digest.hexdigest()
    return _CODE_VERSION


class TrialCache:
    """A directory of ``<fingerprint>.json`` result files."""

    def __init__(self, root: str = DEFAULT_CACHE_DIR,
                 version: Optional[str] = None) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.version = version if version is not None else code_version()

    def _path(self, fingerprint: str) -> Path:
        return self.root / f"{fingerprint}.json"

    def get(self, fingerprint: str) -> Optional[TrialResult]:
        """The cached result for ``fingerprint``, or None on a miss
        (absent, unreadable, or produced by different code)."""
        try:
            doc = json.loads(self._path(fingerprint).read_text())
            if doc["code_version"] != self.version:
                return None
            return TrialResult.from_json(json.dumps(doc["result"]))
        except (OSError, ValueError, KeyError, TypeError):
            # TypeError: valid JSON that is not an object ([], null).
            return None

    def put(self, result: TrialResult) -> None:
        """Store ``result`` atomically (write-temp + rename), so a
        killed run never leaves a truncated entry behind."""
        doc = {"code_version": self.version,
               "result": json.loads(result.to_json())}
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(doc, handle)
            os.replace(tmp, self._path(result.fingerprint))
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*.json"))
