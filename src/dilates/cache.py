"""Content-addressed result cache.

Layout: <cache_dir>/<kind>/<key>.json holds the canonical JSON outputs
of one experiment; a .meta.json sidecar holds timestamps and tool version
so the outputs themselves stay byte-identical across reruns.  The cache
directory defaults to ./dilates_cache and is overridden by the
DILATES_CACHE_DIR environment variable.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import subprocess
import sys
import tempfile
import time
from hashlib import sha256
from pathlib import Path

ENV_CACHE_DIR = "DILATES_CACHE_DIR"
KINDS = ("construct", "verify", "search", "sweep", "gap")

# os.umask can only be read by setting it; do that once, at import.
_UMASK = os.umask(0)
os.umask(_UMASK)


def default_cache_dir() -> Path:
    return Path(os.environ.get(ENV_CACHE_DIR, "dilates_cache"))


# one encoder for every call: json.dumps would build a new one each time,
# which costs more than the encoding of a search task itself
_compact_json = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def canonical_json(obj) -> bytes:
    """Stable byte encoding: sorted keys, no whitespace, trailing newline."""
    return (_compact_json(obj) + "\n").encode()


def key(inputs) -> str:
    """The cache key of an experiment: the SHA-256 of its inputs' compact,
    key-sorted JSON, without canonical_json's trailing newline, so search
    entries keep the names they were first written under."""
    return sha256(_compact_json(inputs).encode()).hexdigest()


def atomic_write(path: Path, data: bytes) -> None:
    """Write to a fresh temp file in the target's directory, then rename.

    Each writer gets its own temp name (ending in .tmp, so never *.json),
    so concurrent writers of one path never share a temp file; the last
    rename wins.  The file gets the mode a plain write would: 0o666 less
    the process umask.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=f".{path.name}.", suffix=".tmp", dir=path.parent)
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(data)
        os.chmod(tmp, 0o666 & ~_UMASK)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


@functools.cache
def git_describe() -> str:
    """`git describe` of the package's checkout, resolved once per process."""
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty"],
                             capture_output=True, text=True, timeout=5,
                             cwd=Path(__file__).resolve().parent)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def store_experiment(cache_dir, kind: str, inputs_digest: str, outputs) -> Path:
    """Write outputs (byte-stable) plus a metadata sidecar with timestamps
    and versions; returns the outputs path."""
    if kind not in KINDS:
        raise ValueError(f"unknown experiment kind {kind!r}")
    from . import __version__
    root = Path(cache_dir) / kind
    out_path = root / f"{inputs_digest}.json"
    atomic_write(out_path, canonical_json(outputs))
    meta = {
        "kind": kind,
        "inputs_digest": inputs_digest,
        "created_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "tool_version": __version__,
        "git_describe": git_describe(),
    }
    atomic_write(root / f"{inputs_digest}.meta.json", canonical_json(meta))
    return out_path


def _read_entry(path: Path, decode):
    """decode() of the JSON in path, or None (with a line on stderr) if
    either step fails: a file truncated by a crash or a full disk, or an
    entry whose shape decode does not accept."""
    try:
        return decode(json.loads(path.read_text()))
    except (AttributeError, ArithmeticError, LookupError, TypeError, ValueError):
        print(f"cache: ignoring undecodable entry {path}", file=sys.stderr)
        return None


def load_outputs(cache_dir, kind: str, inputs_digest: str, decode):
    """decode(outputs) for a digest, or None on a miss.  An undecodable
    entry is a miss too; the caller's next store overwrites it."""
    path = Path(cache_dir) / kind / f"{inputs_digest}.json"
    if not path.is_file():
        return None
    return _read_entry(path, decode)


def list_outputs(cache_dir, kind: str, decode) -> list[tuple[str, object]]:
    """(digest, decode(outputs)) for every entry of one kind that decodes,
    sorted by digest."""
    root = Path(cache_dir) / kind
    if not root.is_dir():
        return []
    pairs = []
    for path in sorted(root.glob("*.json")):
        if path.name.endswith(".meta.json"):
            continue
        outputs = _read_entry(path, decode)
        if outputs is not None:
            pairs.append((path.stem, outputs))
    return pairs
