"""Content-addressed result cache.

Layout: <cache_dir>/<kind>/<key>.json holds the canonical JSON outputs
of one experiment, byte-identical across reruns; a .meta.json sidecar,
written with its entry or when it is missing, records when (created_at)
and by which checkout (git_describe) the entry was written.  The cache
directory defaults to ./dilates_cache and is overridden by the
DILATES_CACHE_DIR environment variable.  atomic_write leaves a target
that already holds the same bytes untouched, so a rerun that changes no
entry writes no file.  A reader decodes an entry with the key it is
filed under; an entry its decoder refuses is a miss, named on stderr.
Paths are plain str and I/O is plain os calls, so a hit costs about its
system calls: one open and read of its entry, whose task search hashes once.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import os
import subprocess
import sys
import time
from hashlib import sha256
from pathlib import Path

ENV_CACHE_DIR = "DILATES_CACHE_DIR"
KINDS = ("construct", "verify", "search", "sweep", "gap")

# O_EXCL makes the open fail rather than reuse a name another writer (or
# a crashed one) holds; the counter is process-wide, so threads that share
# the pid still draw distinct temp names
_CREATE = os.O_WRONLY | os.O_CREAT | os.O_EXCL | os.O_CLOEXEC
_tmp_numbers = itertools.count()


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


def _holds(path: str | Path, data: bytes) -> bool:
    """Whether path is a readable file holding exactly data.  The size
    from fstat settles most differing files without reading them."""
    try:
        fd = os.open(path, os.O_RDONLY | os.O_CLOEXEC)
    except OSError:
        return False
    try:
        return os.fstat(fd).st_size == len(data) and os.read(fd, len(data)) == data
    except OSError:
        return False
    finally:
        os.close(fd)


def _create_temp(path: str | Path) -> tuple[str, int]:
    """A new temp file `.<name>.<pid>.<n>.tmp` beside path, opened for
    writing: its name and descriptor.  A name that exists already (left
    by a crashed writer) is skipped for the next n; the directory is made
    only when the open finds it missing."""
    parent, name = os.path.split(path)
    made_dir = False
    while True:
        tmp = os.path.join(parent, f".{name}.{os.getpid()}.{next(_tmp_numbers)}.tmp")
        try:
            return tmp, os.open(tmp, _CREATE, 0o666)
        except FileExistsError:
            continue
        except FileNotFoundError:
            if made_dir:
                raise
            os.makedirs(parent, exist_ok=True)
            made_dir = True


def atomic_write(path: str | Path, data: bytes) -> bool:
    """Make path hold data, so that readers see the old file or the new;
    returns whether it wrote.

    A target that already holds exactly data is left untouched: no write,
    and its mtime and inode stay.  Otherwise data goes to a fresh temp
    file in the target's directory (ending in .tmp, so never *.json),
    which is then renamed over the target.  Each writer gets its own temp
    name, so concurrent writers of one path never share a temp file; the
    last rename wins.  The temp file is created with mode 0o666, which
    the kernel masks by the umask in force at that moment, so the file
    gets the mode a plain write would.
    """
    if _holds(path, data):
        return False
    tmp, fd = _create_temp(path)
    try:
        try:
            rest = memoryview(data)
            while rest:  # a write may take only part of its bytes
                rest = rest[os.write(fd, rest):]
        finally:
            os.close(fd)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise
    return True


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
    """Write outputs (byte-stable), and a metadata sidecar with timestamps
    and versions whenever the outputs are written or the sidecar is
    missing; returns the outputs path.  outputs may also be given as its
    canonical_json bytes, so a caller that has them encodes once."""
    if kind not in KINDS:
        raise ValueError(f"unknown experiment kind {kind!r}")
    from . import __version__
    stem = os.path.join(cache_dir, kind, inputs_digest)
    data = outputs if isinstance(outputs, bytes) else canonical_json(outputs)
    if atomic_write(stem + ".json", data) or not os.path.exists(stem + ".meta.json"):
        meta = {
            "kind": kind,
            "inputs_digest": inputs_digest,
            "created_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "tool_version": __version__,
            "git_describe": git_describe(),
        }
        atomic_write(stem + ".meta.json", canonical_json(meta))
    return Path(stem + ".json")


def _read_entry(path: str, key: str, decode):
    """decode(JSON in path, key), or None: silently if no file is there
    (never written, or deleted since it was listed), and with a line on
    stderr if either step fails: a file truncated by a crash or a full
    disk, or an entry decode does not accept, in its shape or under key."""
    try:
        with open(path, "rb") as f:
            data = f.read()
    except FileNotFoundError:
        return None
    try:
        # strict UTF-8: json.loads of bytes would take UTF-16 or a BOM too
        return decode(json.loads(data.decode()), key)
    except (AttributeError, ArithmeticError, LookupError, TypeError, ValueError):
        print(f"cache: ignoring undecodable entry {Path(path)}", file=sys.stderr)
        return None


def load_outputs(cache_dir, kind: str, inputs_digest: str, decode):
    """decode(outputs, inputs_digest) for a digest, or None on a miss.  An
    undecodable entry is a miss too; the caller's next store overwrites it."""
    path = os.path.join(cache_dir, kind, inputs_digest + ".json")
    return _read_entry(path, inputs_digest, decode)


def list_outputs(cache_dir, kind: str, decode) -> list[tuple[str, object]]:
    """(digest, decode(outputs, digest)) for every entry of one kind that
    decodes, sorted by digest; an entry deleted after the listing is skipped.
    Every name ending in .json is an entry, dot-prefixed ones too, but .meta.json."""
    root = os.path.join(cache_dir, kind)
    try:
        names = sorted(os.listdir(root))
    except OSError:
        return []
    pairs = []
    for name in names:
        if not name.endswith(".json") or name.endswith(".meta.json"):
            continue
        digest = name[:-5] or name  # Path(".json").stem is ".json"
        outputs = _read_entry(os.path.join(root, name), digest, decode)
        if outputs is not None:
            pairs.append((digest, outputs))
    return pairs
