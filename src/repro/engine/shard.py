"""Row shards: half of a large round's rows on one helper process.

The sparse engines' expensive stages are *row-independent*: a node's
k-order dominating region depends only on its own position and the
sites inside its Lemma-1 disk, never on another row's state, and the
kernels (``clip_cells_batch``, the grid queries) compute each row from
that row's inputs alone.  So a large stage can run as two halves — rows
``[0, cut)`` here, rows ``[cut, count)`` on a second core — and the
halves concatenated in row order are bitwise the one-call result.

:func:`submit` starts a call's tail rows on the helper and lets the
caller work until it collects them; :func:`split_rows` is the plain
two-halves form over it.  The helper process is:

* **one per process, started lazily** on the first call of at least
  :data:`_MIN_ROWS` rows, and only where it can help: two or more
  usable cores, not a ``multiprocessing`` daemon (the sweep's pool
  workers) and not the helper itself.  It is a plain ``python -c``
  child running :func:`_serve` (``-m`` would run this module a second
  time beside the copy the package import loads), talking
  :class:`~multiprocessing.connection.Connection` frames over its
  stdin/stdout pipes — no ``multiprocessing`` start method, so nothing
  re-runs the caller's ``__main__`` and no threaded parent is forked;
* **ready before used:** it imports the engines and then sends a ready
  frame; until that frame has arrived every call runs inline, so no
  call waits on the import;
* **stateless:** every call carries its full inputs, so checkpoints,
  restores and evictions need nothing from it;
* **optional:** a call that finds it busy (another thread holds it)
  runs inline, and any failure — EOF on its pipe, an exception sent
  back, a failed spawn — recomputes the helper's half here, marks the
  helper dead and counts ``repro_shard_fallbacks_total``; the result is
  the same bits either way.  An error in the caller's own work while a
  request is outstanding retires the helper too (its reply is never
  read);
* **never orphaned:** it exits on EOF of its stdin (the parent closes
  the pipe at exit, and the kernel closes it when the parent dies) and
  also when its parent pid changes.

DESIGN.md "Row shards on one helper process" has the measured threshold.
"""

from __future__ import annotations

import atexit
import contextlib
import importlib
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
from multiprocessing.connection import Connection
from typing import Any, Callable, Iterator, List, Optional

from repro.obs import metrics as _metrics
from repro.obs import trace as _trace

__all__ = ["Request", "split_rows", "submit"]

#: Rows at or above which a call is split across the helper.  Below it
#: the helper's fixed cost (pickling the inputs and outputs, and one
#: more set of per-level numpy passes) eats the second core's gain;
#: DESIGN.md "Row shards on one helper process" has the crossover.
_MIN_ROWS = 700

#: How often an idle helper checks that its parent is still the one
#: that started it (seconds).
_PARENT_POLL_S = 0.5

_ROWS = _metrics.counter(
    "repro_shard_rows_total",
    "Rows of sharded calls, by the side that computed them",
    labelnames=("side",),
)
_ROWS_BY_SIDE = {side: _ROWS.labels(side) for side in ("local", "helper")}
_FALLBACKS = _metrics.counter(
    "repro_shard_fallbacks_total",
    "Helper halves recomputed inline after a helper failure",
)

#: True inside the helper process: a helper never starts a helper.
_IN_HELPER = False

#: Guards the helper: taken without blocking, so a concurrent caller
#: runs inline instead of waiting.
_LOCK = threading.Lock()
_HELPER: Optional["_Helper"] = None


def _usable_cores() -> int:
    """Cores this process may run on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def _eligible() -> bool:
    """Whether this process may start a helper at all.

    POSIX only: the frames travel over inherited pipe file descriptors.
    """
    return (
        os.name == "posix"
        and not _IN_HELPER
        and _usable_cores() >= 2
        and not multiprocessing.current_process().daemon
    )


def _address(fn: Callable) -> tuple:
    """``fn`` by import path: a wrapper that copied ``fn``'s name (as
    ``functools.wraps`` does) resolves to the plain function there."""
    return fn.__module__, fn.__qualname__


def _resolve(address: tuple) -> Callable:
    module, qualname = address
    target: Any = importlib.import_module(module)
    for part in qualname.split("."):
        target = getattr(target, part)
    return target


class _Helper:
    """The parent's handle on one helper process."""

    def __init__(self) -> None:
        import repro

        self.ready = False
        self.dead = False
        self.proc = None
        root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env = dict(os.environ)
        # The caller may have found ``repro`` through ``sys.path`` edits
        # the child would not see: put its import root first.
        env["PYTHONPATH"] = os.pathsep.join(
            part for part in (root, env.get("PYTHONPATH")) if part
        )
        try:
            self.proc = subprocess.Popen(
                [sys.executable, "-c", "from repro.engine.shard import _serve; _serve()"],
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                env=env,
            )
        except OSError:
            _FALLBACKS.inc()
            self.dead = True
            return
        self._send = Connection(os.dup(self.proc.stdin.fileno()), readable=False)
        self._recv = Connection(os.dup(self.proc.stdout.fileno()), writable=False)
        self.proc.stdin.close()
        self.proc.stdout.close()

    def poll_ready(self) -> bool:
        """Whether the helper is alive and its ready frame in (never blocks)."""
        if not self.ready and not self.dead:
            try:
                if self._recv.poll(0):
                    self._recv.recv()
                    self.ready = True
            except (EOFError, OSError):
                self.fail()
        return self.ready and not self.dead

    def _reply(self):
        """``(result, helper seconds)``, or ``None`` if the helper failed."""
        try:
            status, *payload = self._recv.recv()
        except (EOFError, OSError):
            return None
        if status != "ok":
            return None
        return payload

    def fail(self) -> None:
        """Mark the helper dead and make sure its process is gone."""
        self.dead = True
        self.close(timeout=0.0)

    def close(self, timeout: float = 1.0) -> None:
        """Close the pipes (the helper exits on EOF) and reap it."""
        if self.proc is None:
            return
        for conn in (self._send, self._recv):
            conn.close()
        try:
            self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def _claim(count: int) -> Optional[_Helper]:
    """The ready helper with :data:`_LOCK` held, or ``None`` (lock free)."""
    global _HELPER
    if count < _MIN_ROWS or not _LOCK.acquire(blocking=False):
        return None
    if _HELPER is None and _eligible():
        # Start the import now; this call and the next ones run inline
        # until the ready frame is in.
        _HELPER = _Helper()
    elif _HELPER is not None and _HELPER.poll_ready():
        return _HELPER
    _LOCK.release()
    return None


class Request:
    """Rows ``[cut, count)`` of one :func:`submit` call, on the helper.

    The caller computes rows ``[0, cut)`` itself meanwhile, then takes
    the helper's rows with :meth:`collect`.
    """

    def __init__(self, helper: _Helper, fn: Callable, args: tuple, cut: int, count: int):
        self.cut = cut
        self._helper = helper
        self._fn = fn
        self._args = args
        self._count = count
        self.collected = False
        try:
            helper._send.send((_address(fn), args))
            self._sent = True
        except OSError:
            self._sent = False

    def collect(self) -> Any:
        """``fn`` over rows ``[cut, count)``: the helper's reply, or, if
        the helper failed, the same rows recomputed here."""
        waited = time.perf_counter()
        reply = self._helper._reply() if self._sent else None
        waited = time.perf_counter() - waited
        self.collected = True
        local_rows, helper_rows = self.cut, self._count - self.cut
        if reply is None:
            self._helper.fail()
            _FALLBACKS.inc()
            result = self._fn(*self._args)
            local_rows, helper_rows, helper_s = self._count, 0, 0.0
        else:
            result, helper_s = reply
        _trace.annotate(helper_s=helper_s, wait_s=waited)
        _ROWS_BY_SIDE["local"].inc(local_rows)
        _ROWS_BY_SIDE["helper"].inc(helper_rows)
        return result


@contextlib.contextmanager
def submit(
    fn: Callable, count: int, args_for: Callable, cut: Optional[int] = None
) -> Iterator[Optional[Request]]:
    """Rows ``[cut, count)`` of ``fn`` started on the helper, for a ``with`` block.

    ``args_for(start, stop)`` builds ``fn``'s arguments for rows
    ``[start, stop)``; ``fn`` must be a module-level function whose
    result for a row range depends on those rows alone.  At
    :data:`_MIN_ROWS` rows and more, with the helper ready and free,
    yields a :class:`Request` whose rows ``[cut, count)`` (``cut``
    defaults to ``count // 2``) the helper computes while the block
    runs; the block computes rows ``[0, cut)`` and calls
    :meth:`Request.collect`.  Otherwise yields ``None`` and the block
    computes every row itself.

    The helper stays claimed until the block ends.  A block left before
    its request was collected (an exception in the caller's own work)
    retires the helper: its reply is never read, and a later call must
    not take it for its own.
    """
    helper = _claim(count)
    if helper is None:
        yield None
        return
    try:
        cut = count // 2 if cut is None else min(max(cut, 0), count)
        with _trace.span(
            "shard", fn=fn.__qualname__, local_rows=cut, helper_rows=count - cut
        ):
            request = Request(helper, fn, args_for(cut, count), cut, count)
            try:
                yield request
            finally:
                if not request.collected:
                    helper.fail()
    finally:
        _LOCK.release()


def split_rows(
    fn: Callable, count: int, args_for: Callable, cut: Optional[int] = None
) -> List[Any]:
    """``fn`` over rows ``[0, count)``, as one call or as two halves at once.

    Arguments as for :func:`submit`.  Returns ``[fn(*args_for(0,
    count))]`` inline, or ``[fn(*args_for(0, cut)), fn(*args_for(cut,
    count))]``, the second computed on the helper while the first runs
    here.
    """
    with submit(fn, count, args_for, cut) as request:
        if request is None:
            return [fn(*args_for(0, count))]
        local = fn(*args_for(0, request.cut))
        return [local, request.collect()]


def _shutdown() -> None:
    """Close this process's helper (at exit; tests call it between cases)."""
    global _HELPER
    helper, _HELPER = _HELPER, None
    if helper is not None and not helper.dead:
        helper.dead = True
        helper.close()


atexit.register(_shutdown)


def _forget_after_fork() -> None:
    # A forked child must not talk over its parent's pipes: drop its
    # copies so the helper still sees EOF when the parent goes.
    global _HELPER, _LOCK
    helper, _HELPER = _HELPER, None
    _LOCK = threading.Lock()
    if helper is not None and helper.proc is not None:
        for conn in (helper._send, helper._recv):
            conn.close()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_after_fork)


# ----------------------------------------------------------------------
# The helper's side
# ----------------------------------------------------------------------
def _serve() -> None:
    """Answer ``(function address, args)`` frames on stdin until EOF."""
    global _IN_HELPER
    _IN_HELPER = True
    parent = os.getppid()
    # Ctrl-C reaches the whole process group; the parent decides.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    recv = Connection(os.dup(0), writable=False)
    send = Connection(os.dup(1), readable=False)
    # Stray prints must not corrupt the frames: fd 1 becomes stderr.
    os.dup2(2, 1)
    devnull = os.open(os.devnull, os.O_RDONLY)
    os.dup2(devnull, 0)
    os.close(devnull)

    import repro.engine.sparse  # noqa: F401  (the callers' modules)
    import repro.runtime.sparse  # noqa: F401

    send.send(("ready",))
    while True:
        if not recv.poll(_PARENT_POLL_S):
            if os.getppid() != parent:
                return
            continue
        try:
            address, args = recv.recv()
        except (EOFError, OSError):
            return
        start = time.perf_counter()
        try:
            result = _resolve(address)(*args)
        except Exception as exc:  # sent back; the parent recomputes
            try:
                send.send(("error", exc))
            except Exception:
                send.send(("error", repr(exc)))
            continue
        send.send(("ok", result, time.perf_counter() - start))
