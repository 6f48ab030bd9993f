"""Fault injection for the durability layer.

The proof obligation of write-ahead logging is not "it usually recovers" but
"*every* prefix of the I/O stream recovers to a consistent state".  This
module provides the machinery to prove it mechanically:

* :class:`FaultInjector` numbers every primitive I/O operation the
  durability layer performs (each file write, fsync, truncate, rename,
  directory sync) and can be armed to misbehave at exactly one of them --
  simulate a process kill (optionally mid-write, landing only a prefix of
  the bytes), raise ``ENOSPC``, or fail an fsync.  Separately,
  :meth:`FaultInjector.lose_power` simulates an OS crash or power loss:
  every file it opened drops the bytes written since its last successful
  fsync.
* :class:`FaultyFileFactory` / :class:`FaultyFile` are drop-in replacements
  for the real :class:`~repro.storage.wal.FileFactory` surface that route
  every operation through the injector.
* :func:`count_io_points` dry-runs a workload to learn how many I/O points
  it performs, so a sweep can then crash at each one in turn.

:class:`CrashError` deliberately derives from ``BaseException``: a simulated
``kill -9`` must not be swallowed by ``except Exception`` handlers anywhere
in the stack (the serving REPL has one, and a caught "crash" would let the
process keep appending to a log it believes is dead).
"""

from __future__ import annotations

import errno
import os

from repro.storage.wal import FileFactory, OsFile


class CrashError(BaseException):
    """A simulated process kill at an injected I/O point.

    Derives from ``BaseException`` (like ``KeyboardInterrupt``) so ordinary
    ``except Exception`` blocks cannot absorb it; the test harness catches it
    explicitly, discards the crashed database object, and reopens the data
    directory through recovery -- exactly what a supervisor restarting a
    killed process would do.
    """


class FaultInjector:
    """Counts I/O points and misbehaves at a chosen one.

    Exactly one fault is armed per injector:

    * ``crash_at=n`` -- at point ``n`` raise :class:`CrashError`; if the
      point is a write, first land ``partial_bytes`` of it (a torn write).
    * ``error_at=n`` -- at point ``n`` raise ``error`` (default: ``ENOSPC``);
      for writes, ``partial_bytes`` of the data still land first, matching
      how a real disk-full write can partially succeed.

    With neither armed the injector only counts, which is how a dry run
    measures the total number of points of a workload.
    """

    def __init__(
        self,
        crash_at: int | None = None,
        partial_bytes: int = 0,
        error_at: int | None = None,
        error: OSError | None = None,
    ) -> None:
        self.crash_at = crash_at
        self.partial_bytes = partial_bytes
        self.error_at = error_at
        self.error = error
        self.ops = 0
        self.log: list[str] = []
        self.opened: list[FaultyFile] = []

    def files(self) -> "FaultyFileFactory":
        """A file factory routing every I/O point through this injector."""
        return FaultyFileFactory(self)

    def point(self, kind: str, size: int = 0) -> int | None:
        """Register one I/O point; returns a byte budget for torn writes.

        ``None`` means the operation proceeds untouched.  A non-``None``
        return is only produced for ``write`` points about to crash: the
        caller must write that many bytes and then call :meth:`crash`.
        """
        index = self.ops
        self.ops += 1
        self.log.append(f"{index}:{kind}({size})")
        if index == self.error_at:
            error = self.error or OSError(errno.ENOSPC, "no space left on device")
            if kind == "write" and self.partial_bytes:
                return min(self.partial_bytes, size)
            raise error
        if index == self.crash_at:
            if kind == "write":
                return min(self.partial_bytes, size)
            raise CrashError(f"injected crash at I/O point {index} ({kind})")
        return None

    def lose_power(self) -> None:
        """Simulate an OS crash or power loss, after the fact.

        Every file opened through this injector is cut back to what its
        last successful ``sync`` made durable (its length when opened, if
        it was never synced).  Only file contents are modelled: renames,
        removals and directory syncs count as durable once they returned.
        """
        for handle in self.opened:
            handle.lose_unsynced()

    def crash(self, kind: str) -> None:
        """Raise the armed fault after a partial write landed."""
        if self.ops - 1 == self.error_at:
            raise self.error or OSError(errno.ENOSPC, "no space left on device")
        raise CrashError(f"injected crash at I/O point {self.ops - 1} ({kind})")


class FaultyFile:
    """A WAL-protocol file that consults a :class:`FaultInjector` per op."""

    def __init__(self, inner: OsFile, injector: FaultInjector, path: str) -> None:
        self._inner = inner
        self._injector = injector
        self._path = path
        # Length of the file as written, and the part of it a sync made
        # durable (what :meth:`lose_unsynced` keeps).
        self._size = self._synced = os.path.getsize(path)

    def write(self, data: bytes) -> int:
        budget = self._injector.point("write", len(data))
        if budget is None:
            written = self._inner.write(data)
            self._size = max(self._size, self._inner.tell())
            return written
        if budget:
            self._inner.write(data[:budget])
            self._size = max(self._size, self._inner.tell())
        self._injector.crash("write")
        raise AssertionError("unreachable")  # pragma: no cover

    def flush(self) -> None:
        self._inner.flush()

    def sync(self) -> None:
        self._injector.point("sync")
        self._inner.sync()
        self._synced = self._size

    def truncate(self, size: int) -> None:
        self._injector.point("truncate")
        self._inner.truncate(size)
        self._size = size
        self._synced = min(self._synced, size)

    def lose_unsynced(self) -> None:
        """Drop the bytes written since the last successful sync."""
        if self._size > self._synced:
            os.truncate(self._path, self._synced)
            self._size = self._synced

    def seek(self, offset: int) -> None:
        self._inner.seek(offset)

    def tell(self) -> int:
        return self._inner.tell()

    def close(self) -> None:
        self._inner.close()


class FaultyFileFactory(FileFactory):
    """A :class:`FileFactory` whose every operation is injectable.

    File opens themselves are not fault points (opening neither writes nor
    loses data), but every mutation -- writes, syncs, truncates, renames,
    removals, directory syncs -- is.
    """

    def __init__(self, injector: FaultInjector) -> None:
        self.injector = injector

    def open(self, path: str) -> FaultyFile:
        handle = FaultyFile(super().open(path), self.injector, path)
        self.injector.opened.append(handle)
        return handle

    def replace(self, source: str, destination: str) -> None:
        self.injector.point("replace")
        super().replace(source, destination)

    def remove(self, path: str) -> None:
        self.injector.point("remove")
        super().remove(path)

    def sync_dir(self, path: str) -> None:
        self.injector.point("sync_dir")
        super().sync_dir(path)


def count_io_points(workload) -> int:
    """Dry-run ``workload(files)`` with a counting injector; return the count.

    ``workload`` receives a :class:`FaultyFileFactory` with no fault armed
    and must perform the exact I/O sequence the sweep will later crash at
    every point of.
    """
    injector = FaultInjector()
    workload(injector.files())
    return injector.ops
