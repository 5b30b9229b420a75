"""Wisdom (FFTW-style): a persistent store of the kernel tuner's winners.

The paper's "we use radix 8 and 16, case by case" (§5.2.4) is an
empirical statement: the best radix decomposition depends on the size and
the machine.  :mod:`repro.fft.autotune` owns the search that measures it;
this module owns only the record of what won and its versioned JSON
format.

The store holds one kind of entry, **kernel** entries: ``(n, sign,
dtype, machine)`` -> (strategy, radices).  No library code reads them
back — the plan cache (:func:`repro.fft.plan.get_plan`) plans by rule —
so a store records what the tuner measured, not what a transform runs.
Entry kinds the store no longer records are dropped on read, without a
warning, and never written back: ``"radix"`` entries (the v1 bare-list
format, and v2 entries with no ``kind``) from the first tuner, and
``"soi"`` entries from when the tuner also searched SOI geometries.

Entries are keyed by a :func:`machine_fingerprint` so wisdom files are
portable: an exact-machine entry wins, but a foreign machine's entry is
still a *valid* plan (just possibly not optimal) and is used as a
fallback — the AccFFT portability argument.  Lookups publish
``repro_fft_wisdom_{hits,misses}_total`` counters on the default metrics
registry.

Persistence is crash- and fork-safe: :meth:`Wisdom.save` merges with the
on-disk store under a lock file and replaces atomically, and
:meth:`Wisdom.load` falls back to an empty store (with a warning) on
truncated, garbled, or version-bumped files — bad wisdom must never take
a service down, only slow it to defaults.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import threading
import time
import warnings
from pathlib import Path

import numpy as np

__all__ = ["WISDOM_VERSION", "Wisdom", "machine_fingerprint"]

#: Schema version of the serialized store.  Readers reject newer files
#: (a future format may not be interpretable); :meth:`Wisdom.load` turns
#: that rejection into a warning-plus-empty-store fallback.
WISDOM_VERSION = 2

#: Strategies a kernel entry may name (must stay in sync with
#: repro.fft.plan's dispatch).
KERNEL_STRATEGIES = ("stockham", "bluestein")


def machine_fingerprint() -> str:
    """Short stable fingerprint of the executing machine/toolchain.

    Wisdom is keyed by this so a store tuned on one machine never
    silently masquerades as tuned-for-here, while still being portable
    (foreign entries are used as fallbacks by :meth:`Wisdom.lookup_kernel`).
    """
    parts = (platform.machine(), platform.system(),
             platform.python_implementation(),
             ".".join(platform.python_version_tuple()[:2]),
             np.__version__, str(os.cpu_count() or 0))
    return hashlib.sha256("|".join(parts).encode()).hexdigest()[:12]


def _metrics():
    from repro.telemetry.metrics import get_registry
    return get_registry()


def _validate_kernel(entry: dict) -> dict:
    n = int(entry["n"])
    strategy = entry["strategy"]
    if strategy not in KERNEL_STRATEGIES:
        raise ValueError(f"corrupt wisdom: unknown strategy {strategy!r}")
    radices = [int(r) for r in entry.get("radices") or []]
    if strategy == "stockham" and int(np.prod(radices)) != n:
        raise ValueError(f"corrupt wisdom kernel entry for n={n}: radices "
                         f"{radices} do not multiply to n")
    return {"kind": "kernel", "n": n, "sign": int(entry["sign"]),
            "dtype": str(entry["dtype"]), "machine": str(entry["machine"]),
            "strategy": strategy, "radices": radices,
            "tuned_s": entry.get("tuned_s"),
            "default_s": entry.get("default_s")}


class Wisdom:
    """Persistent store of the kernel tuner's plan choices.

    Thread- and fork-safe: every entry sits behind one lock, which is
    replaced (never shared) when the instance crosses a fork or a pickle
    boundary.  One lock is enough because nothing looks wisdom up on a
    serving thread: the plan cache never consults it."""

    def __init__(self) -> None:
        #: (n, sign, dtype, machine) -> kernel entry dict.
        self._kernels: dict[tuple[int, int, str, str], dict] = {}
        self.hits = self.misses = 0
        self._lock = threading.Lock()
        self._pid = os.getpid()

    def _guard(self) -> threading.Lock:
        """The store's lock, PID-guarded."""
        # a forked child may inherit the lock in a locked state; give
        # each process its own
        if self._pid != os.getpid():
            self._lock = threading.Lock()
            self._pid = os.getpid()
        return self._lock

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["_lock"]  # locks do not pickle
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()
        self._pid = os.getpid()

    def __len__(self) -> int:
        return len(self._kernels)

    # -- autotuner entries -------------------------------------------------

    def record_kernel(self, n: int, sign: int, dtype, machine: str,
                      strategy: str, radices=None, *,
                      tuned_s: float | None = None,
                      default_s: float | None = None) -> dict:
        """Remember an autotuned kernel plan choice."""
        entry = _validate_kernel({
            "n": n, "sign": sign, "dtype": np.dtype(dtype).name,
            "machine": machine, "strategy": strategy,
            "radices": list(radices or []),
            "tuned_s": tuned_s, "default_s": default_s})
        with self._guard():
            self._kernels[(entry["n"], entry["sign"], entry["dtype"],
                           entry["machine"])] = entry
        return entry

    def lookup_kernel(self, n: int, sign: int, dtype,
                      machine: str | None = None) -> dict | None:
        """Tuned kernel entry for (n, sign, dtype), preferring *machine*.

        Exact-machine entries win; otherwise any machine's entry for the
        same problem is returned (a valid, if possibly sub-optimal, plan).
        Publishes hit/miss counters.
        """
        dtype_name = np.dtype(dtype).name
        with self._guard():
            entry = None
            if machine is not None:
                entry = self._kernels.get((n, sign, dtype_name, machine))
            if entry is None:
                for (kn, ks, kd, _km), e in self._kernels.items():
                    if (kn, ks, kd) == (n, sign, dtype_name):
                        entry = e
                        break
            if entry is not None:
                self.hits += 1
            else:
                self.misses += 1
        m = _metrics()
        if entry is not None:
            m.counter("repro_fft_wisdom_hits_total",
                      "plan lookups answered from wisdom").inc()
        else:
            m.counter("repro_fft_wisdom_misses_total",
                      "plan lookups that fell back to defaults").inc()
        return entry

    def _snapshot(self) -> dict:
        """A copy of the kernel map, taken under the lock."""
        with self._guard():
            return dict(self._kernels)

    def merge(self, other: "Wisdom") -> "Wisdom":
        """Fold *other*'s entries into this store (ours win on conflict)."""
        # snapshot first: holding both locks at once could deadlock two
        # stores merging into each other (or one merging into itself)
        kernels = other._snapshot()
        with self._guard():
            for key, val in kernels.items():
                self._kernels.setdefault(key, val)
        return self

    # -- serialization -----------------------------------------------------

    def to_json(self) -> str:
        kernels = self._snapshot()
        entries = [kernels[k] for k in sorted(kernels)]
        return json.dumps({"version": WISDOM_VERSION, "entries": entries},
                          indent=2)

    @classmethod
    def from_json(cls, text: str) -> "Wisdom":
        """Parse a store; raises ``ValueError`` on any corruption.

        Accepts both the v1 bare-list format and the current versioned
        envelope.  Entries of a kind the store no longer records (all of
        a v1 list) are dropped.  Use :meth:`load` for the tolerant
        warn-and-fall-back behavior.
        """
        payload = json.loads(text)
        w = cls()
        if isinstance(payload, list):  # v1: radix entries only
            entries = []
        elif isinstance(payload, dict):
            version = payload.get("version")
            if not isinstance(version, int) or version > WISDOM_VERSION:
                raise ValueError(f"unsupported wisdom version {version!r} "
                                 f"(this build reads <= {WISDOM_VERSION})")
            entries = payload.get("entries", [])
        else:
            raise ValueError("wisdom payload must be a list or object")
        for entry in entries:
            # an entry with no kind is a radix entry of the first tuner
            kind = entry.get("kind", "radix")
            if kind == "kernel":
                e = _validate_kernel(entry)
                w._kernels[(e["n"], e["sign"], e["dtype"], e["machine"])] = e
            elif kind in ("radix", "soi"):
                continue  # a kind the store no longer records
            else:
                raise ValueError(f"corrupt wisdom: unknown entry kind "
                                 f"{kind!r}")
        return w

    # -- file persistence --------------------------------------------------

    def save(self, path, merge: bool = True) -> Path:
        """Persist to *path*: lock, merge with the on-disk store, replace.

        The write is atomic (temp file + ``os.replace``) so readers never
        see a torn file; the lock file serializes concurrent writers (from
        forked or spawned processes) so merges do not lose entries.  A
        corrupt on-disk store is overwritten rather than crashed on.
        """
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        lock = path.with_suffix(path.suffix + ".lock")
        fd = _acquire_lockfile(lock)
        try:
            snapshot = Wisdom()
            snapshot.merge(self)
            if merge and path.exists():
                try:
                    snapshot.merge(Wisdom.from_json(
                        path.read_text(encoding="utf-8")))
                except (OSError, ValueError):
                    pass  # unreadable store: our entries replace it
            tmp = path.with_suffix(path.suffix + f".tmp.{os.getpid()}")
            tmp.write_text(snapshot.to_json() + "\n", encoding="utf-8")
            os.replace(tmp, path)
        finally:
            _release_lockfile(lock, fd)
        return path

    @classmethod
    def load(cls, path, strict: bool = False) -> "Wisdom":
        """Read a store from disk, tolerating damage.

        A missing, truncated, garbled, or version-bumped file yields an
        empty store with a :class:`UserWarning` (defaults are always a
        correct answer; crashing on bad wisdom is not).  ``strict=True``
        re-raises instead.
        """
        path = Path(path)
        try:
            return cls.from_json(path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            if strict:
                raise
            return cls()
        except (OSError, ValueError, UnicodeDecodeError) as exc:
            if strict:
                raise
            warnings.warn(f"ignoring unusable wisdom file {path}: {exc}; "
                          f"falling back to default plans", UserWarning,
                          stacklevel=2)
            return cls()


def _acquire_lockfile(lock: Path, timeout: float = 5.0,
                      stale_after: float = 30.0) -> int | None:
    """O_EXCL lock-file loop (portable; no fcntl dependence).

    Returns the open fd, or None if the lock could not be taken before
    *timeout* — the caller proceeds unlocked (atomic replace still keeps
    the store un-torn; only merge completeness is at risk).  A lock older
    than *stale_after* seconds is considered abandoned and broken.
    """
    deadline = time.monotonic() + timeout
    while True:
        try:
            fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            os.write(fd, str(os.getpid()).encode())
            return fd
        except FileExistsError:
            try:
                if time.time() - lock.stat().st_mtime > stale_after:
                    lock.unlink(missing_ok=True)
                    continue
            except OSError:
                pass
            if time.monotonic() >= deadline:
                return None
            time.sleep(0.005)


def _release_lockfile(lock: Path, fd: int | None) -> None:
    if fd is None:
        return
    try:
        os.close(fd)
    finally:
        lock.unlink(missing_ok=True)
