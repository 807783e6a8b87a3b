"""Lifecycle of the system under test, and proof that none of it leaks.

:class:`ServingStack` is the whole serving path in one OS process — a
durable 4-shard primary, a log shipper listening on loopback TCP, one
replica following over that socket, and an RPC server in front of the
primary — started in dependency order and closed in reverse, every close
attempted even when an earlier one raises.

:class:`LeakCheck` and :class:`Watchdog` exist because an earlier attempt
at this benchmark was rejected for leaving a process behind: after each
workload nothing the run started may still be alive, and a wedged run
must die loudly rather than hang.
"""

from __future__ import annotations

import faulthandler
import multiprocessing
import os
import shutil
import socket
import sys
import threading
import time
from pathlib import Path

from repro.replication import LogShipper, ReplicaService, connect_tcp
from repro.rpc import RpcServer
from repro.service import KokoService

_now = time.perf_counter

SHARDS = 4


def create_primary(storage_dir: Path) -> KokoService:
    """A fresh durable primary as the ledger always configures it.

    Tracing off (``trace_sample_rate=0.0``); everything else the default:
    ``wal_sync=True``, ``sync_interval=0.0``, default ``CheckpointPolicy``
    (background checkpoints on).
    """
    return KokoService(shards=SHARDS, storage_dir=storage_dir, trace_sample_rate=0.0)


def reopen_primary(storage_dir: Path) -> KokoService:
    """Restart from what is on disk (the persisted shard count wins)."""
    return KokoService.open(storage_dir, trace_sample_rate=0.0)


class ServingStack:
    """Primary + shipper + TCP replica + RPC server, all on threads here."""

    def __init__(self, storage_dir: Path, name: str) -> None:
        self.storage_dir = Path(storage_dir)
        self.name = name
        self.primary: KokoService | None = None
        self.shipper: LogShipper | None = None
        self.replica: ReplicaService | None = None
        self.server: RpcServer | None = None
        self.rpc_address: tuple[str, int] | None = None
        self.ship_address: tuple[str, int] | None = None
        self.load_seconds = 0.0
        self.bootstrap_seconds = 0.0
        #: read-your-writes token of the loaded corpus (the replica has reached it)
        self.loaded_token = None

    def start(self, load) -> "ServingStack":
        """Bring everything up; ``load(primary)`` fills the primary first.

        Returns once the replica has applied everything the primary holds,
        so the timed section starts from a caught-up follower.
        """
        try:
            self.primary = create_primary(self.storage_dir)
            started = _now()
            load(self.primary)
            self.load_seconds = _now() - started
            self.shipper = LogShipper(self.primary)
            self.ship_address = self.shipper.listen()
            started = _now()
            self.replica = ReplicaService(
                connect_tcp(*self.ship_address),
                name=f"{self.name}-replica",
                trace_sample_rate=0.0,
            )
            self.loaded_token = self.primary.wal_position()
            if not self.replica.wait_caught_up(self.loaded_token, timeout=60.0):
                raise RuntimeError("replica did not catch up during set-up")
            self.bootstrap_seconds = _now() - started
            self.server = RpcServer(self.primary, max_workers=SHARDS, name=self.name)
            self.rpc_address = self.server.start()
        except BaseException:
            self.close()  # a half-started stack must not leak its parts
            raise
        return self

    def stop_serving(self) -> None:
        """Close server, replica and shipper (reverse start order).

        The primary stays open — the durability cycles need it alone.
        """
        self._wait_for_disconnects()
        errors: list[BaseException] = []
        for attr in ("server", "replica", "shipper"):
            part = getattr(self, attr)
            setattr(self, attr, None)
            if part is None:
                continue
            try:
                part.close()
            except Exception as exc:  # keep closing the rest, report after
                errors.append(exc)
        if errors:
            raise errors[0]

    def _wait_for_disconnects(self, timeout: float = 1.0) -> None:
        """Let the server notice that the clients hung up before it stops.

        Stopping the event loop under a connection that is half-way through
        closing is harmless but makes asyncio print a CancelledError
        traceback; the open-connections gauge says when it is quiet.
        """
        if self.server is None or self.primary is None:
            return
        deadline = time.monotonic() + timeout
        while self._metric("koko_rpc_open_connections") > 0 and time.monotonic() < deadline:
            time.sleep(0.005)

    def _metric(self, name: str) -> float:
        """One unlabelled registry value read by *name*; 0 when it is not registered."""
        instrument = self.primary.metrics.get(name)
        return float(getattr(instrument, "value", 0.0))

    def background_work(self, token) -> tuple[float, bool]:
        """``(checkpoints completed, busy)``: what runs without a client asking.

        Busy means a checkpoint is in progress or the replica has not yet
        applied the write *token* stands for (the last one acknowledged).
        """
        busy = self._metric("koko_checkpoint_in_progress") > 0 or (
            self.replica is not None and not self.replica.caught_up_to(token)
        )
        return self._metric("koko_checkpoints_completed_total"), busy

    def close(self) -> None:
        """Close everything that is still open; idempotent."""
        try:
            self.stop_serving()
        finally:
            primary, self.primary = self.primary, None
            if primary is not None:
                primary.close()

    def addresses(self) -> list[tuple[str, int]]:
        """Every port this stack listened on (for the refusal check)."""
        return [a for a in (self.rpc_address, self.ship_address) if a is not None]


def directory_bytes(root: Path) -> dict[str, int]:
    """Bytes under *root*, in total and by top-level subdirectory."""
    sizes = {"total": 0}
    for folder, _, files in os.walk(root):
        top = Path(folder).relative_to(root).parts[:1]
        for name in files:
            try:
                size = os.path.getsize(os.path.join(folder, name))
            except OSError:  # pruned between listing and stat
                continue
            sizes["total"] += size
            if top:
                sizes[top[0]] = sizes.get(top[0], 0) + size
    return sizes


def rss_megabytes() -> float:
    """Resident set size of this process, from ``/proc/self/statm``."""
    with open("/proc/self/statm", encoding="ascii") as handle:
        pages = int(handle.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / (1024.0 * 1024.0)


# ----------------------------------------------------------------------
# leak census
# ----------------------------------------------------------------------
def _os_thread_ids() -> set[int]:
    return {int(entry) for entry in os.listdir("/proc/self/task")}


class LeakCheck:
    """Snapshot before a workload; after it, nothing new may remain.

    Checks, in the order a leak would hurt: child processes
    (``multiprocessing.active_children()``), OS threads (``/proc/self/task``
    against the snapshot, so native pool threads count too) and Python
    threads (only the main thread and the daemon threads named in
    ``allowed_threads``), listening ports (a connect must be refused), and
    the temporary storage directories (must be gone).
    """

    def __init__(self, allowed_threads: tuple[str, ...] = ()) -> None:
        self.allowed_threads = set(allowed_threads)
        self.baseline_tasks = _os_thread_ids()

    def _stray_threads(self) -> list[str]:
        return [
            thread.name
            for thread in threading.enumerate()
            if thread is not threading.main_thread()
            and not (thread.daemon and thread.name in self.allowed_threads)
        ]

    def problems(
        self,
        addresses: list[tuple[str, int]],
        directories: list[Path],
        settle_seconds: float = 5.0,
    ) -> list[str]:
        """Every leak found, as text; an empty list means a clean exit.

        Executor threads end asynchronously after ``shutdown(wait=False)``,
        so threads get *settle_seconds* to finish before they count.
        """
        deadline = time.monotonic() + settle_seconds
        while time.monotonic() < deadline:
            if not self._stray_threads() and _os_thread_ids() <= self.baseline_tasks:
                break
            time.sleep(0.02)
        found: list[str] = []
        children = multiprocessing.active_children()
        if children:
            found.append(f"child processes still alive: {[c.pid for c in children]}")
        stray = self._stray_threads()
        if stray:
            found.append(f"threads still alive: {sorted(stray)}")
        extra = _os_thread_ids() - self.baseline_tasks
        if extra:
            found.append(f"{len(extra)} OS thread(s) outlived the workload")
        for host, port in addresses:
            try:
                socket.create_connection((host, port), timeout=0.5).close()
            except OSError:
                continue  # refused, as it must be
            found.append(f"port {host}:{port} still accepts connections")
        for directory in directories:
            if Path(directory).exists():
                found.append(f"temporary directory {directory} still exists")
        return found


# ----------------------------------------------------------------------
# watchdog
# ----------------------------------------------------------------------
WATCHDOG_THREAD = "ledger-watchdog"
WATCHDOG_EXIT_CODE = 3


class Watchdog:
    """Fail loudly instead of hanging.

    If :meth:`cancel` has not been called *limit_seconds* after
    :meth:`start`, every thread's traceback is dumped to stderr, the
    temporary directories are removed, and the process ends with
    ``os._exit(3)`` — taking every thread with it (there are no child
    processes to orphan).  ``faulthandler.dump_traceback_later`` is armed a
    little later as a backstop that works even if the interpreter lock is
    wedged.  *on_expire* exists so the test can observe an expiry without
    dying.
    """

    def __init__(self, limit_seconds: float, cleanup_dirs=(), on_expire=None) -> None:
        self.limit_seconds = limit_seconds
        self.cleanup_dirs = list(cleanup_dirs)
        self._fatal = on_expire is None
        self._on_expire = self._die if on_expire is None else on_expire
        self._cancelled = threading.Event()
        self._thread = threading.Thread(target=self._wait, name=WATCHDOG_THREAD, daemon=True)

    def start(self) -> "Watchdog":
        if self._fatal:
            try:
                faulthandler.dump_traceback_later(self.limit_seconds + 5.0, exit=True, file=sys.__stderr__)
            except (AttributeError, OSError, ValueError):
                pass  # no real stderr (captured or closed): the thread below still ends the run
        self._thread.start()
        return self

    def cancel(self) -> None:
        self._cancelled.set()
        faulthandler.cancel_dump_traceback_later()
        if self._thread.is_alive():
            self._thread.join(timeout=1.0)

    def _wait(self) -> None:
        if not self._cancelled.wait(self.limit_seconds):
            self._on_expire()

    def _die(self) -> None:
        sys.stderr.write(f"ledger watchdog: no result after {self.limit_seconds:.0f}s, aborting\n")
        try:
            faulthandler.dump_traceback(file=sys.__stderr__, all_threads=True)
        except (AttributeError, OSError, ValueError):
            pass
        for directory in self.cleanup_dirs:
            shutil.rmtree(directory, ignore_errors=True)
        sys.stderr.flush()
        os._exit(WATCHDOG_EXIT_CODE)
