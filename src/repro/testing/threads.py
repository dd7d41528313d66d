"""The threaded carrier: one OS thread per machine.

:class:`~repro.testing.runtime.BugFindingRuntime` runs every machine on
one thread, as handlers compiled into coroutines.  Two things cannot run
that way, and run here instead:

* handler shapes the coroutine compiler refuses
  (:mod:`repro.core.continuations` lists them; each refusal names this
  class as ``runtime_factory=ThreadedRuntime``);
* :class:`~repro.chess.ChessRuntime`, which schedules inside field-access
  hooks — from plain attribute reads and writes deep in user frames,
  where a generator cannot suspend.

What changes is only the control transfer.  Each machine's thread drives
the same :meth:`~BugFindingRuntime._machine_body` generator; handlers
run plain, and their ``send`` / ``create_machine`` reach the same
scheduling point (:meth:`~BugFindingRuntime._point`) through
:meth:`ThreadedRuntime._schedule`, which parks the thread when the
strategy picked another machine.  The paper's ``Schedule``, literally:
it "blocks the current thread and releases another thread" (Section
6.2).  Decisions, their order and so the traces are the inline
carrier's, bit for bit.

Threads live for one execution: :meth:`ThreadedRuntime.execute` starts
one per machine as it is created and joins them all before returning.
A thread still running ``_retire_timeout`` seconds after its execution
ended (user code that does not terminate) *taints* the runtime, and the
campaign loop builds a fresh one rather than let the straggler touch the
next execution.
"""

from __future__ import annotations

import threading
import time

from ..core.machine import Machine
from ..errors import ExecutionCanceled, PSharpError
from .runtime import _NEW, BugFindingRuntime


class _ThreadSeat:
    """A machine's seat with the thread that carries it.  ``signal`` is
    a raw lock used as a binary semaphore, created taken: releasing it
    is how the machine is scheduled, the first time and every time."""

    __slots__ = ("machine", "mid", "state", "gen", "signal", "thread")

    def __init__(self, runtime: "ThreadedRuntime", machine: Machine) -> None:
        self.machine = machine
        self.mid = machine.id
        self.state = _NEW
        self.gen = runtime._machine_body(self)
        self.signal = threading.Lock()
        self.signal.acquire()
        self.thread = threading.Thread(
            target=runtime._drive, args=(self,), daemon=True, name=f"sct-{machine.id}"
        )
        self.thread.start()


class ThreadedRuntime(BugFindingRuntime):
    """:class:`~repro.testing.runtime.BugFindingRuntime` with each
    machine carried by its own OS thread; the constructor is the same.
    Use it as ``TestConfig(runtime_factory=ThreadedRuntime)``."""

    carrier = "threads"
    _Seat = _ThreadSeat

    # How long execute() waits for the machines' threads to unwind at the
    # end of an execution before declaring the runtime tainted.
    _retire_timeout = 5.0

    def reset(self) -> None:
        if self.tainted:
            raise PSharpError(
                "runtime is tainted: a machine thread from a previous "
                "execution never unwound; construct a fresh runtime"
            )
        # What execute() waits on: released by the thread that ends the
        # execution, once it has left the user's frames (see _drive).
        self._done = threading.Lock()
        self._done.acquire()
        super().reset()

    def _prepare(self, machine_cls: type) -> None:
        """Plain handlers: nothing to compile."""

    def _run(self, first: _ThreadSeat) -> None:
        """Schedule the main machine and wait for the execution to end;
        then wake each parked thread into :class:`ExecutionCanceled` and
        join it, one at a time in seat order — the order in which the
        inline carrier unwinds its suspended machines, so user
        ``finally`` blocks never run concurrently."""
        first.signal.release()
        self._done.acquire()
        self._canceled = True
        deadline = time.monotonic() + self._retire_timeout
        for seat in self._worker_list:
            try:
                seat.signal.release()
            except RuntimeError:
                pass  # it holds a wake it has not consumed yet
            seat.thread.join(max(0.0, deadline - time.monotonic()))
            if seat.thread.is_alive():
                self.tainted = True

    def _drive(self, seat: _ThreadSeat) -> None:
        """A machine's thread: wait to be scheduled, then run its body,
        switching wherever the body yields the next machine."""
        seat.signal.acquire()
        if self._canceled:
            return  # the execution ended before this machine ever ran
        self._current = seat.mid
        body = seat.gen
        try:
            while True:
                self._switch(seat, body.send(None))
        except StopIteration as done:
            if done.value is not None:  # done: pass the turn on for good
                self._worker_list[done.value.value].signal.release()
                return
        except ExecutionCanceled:
            if self._canceled:
                return  # woken by the end of the execution, unwound
        except BaseException as exc:  # noqa: BLE001 - classified
            self._report_worker_exception(seat.machine, exc)
        # This thread ended the execution and is out of the user's frames.
        self._done.release()

    def _schedule(self, current, target=None, event=None) -> None:
        """The scheduling point a plain handler reaches, then this thread
        parked if another machine was picked."""
        choice = self._point(current, target, event)
        if choice is not None:
            self._switch(self._worker_list[current.value], choice)

    def _switch(self, seat: _ThreadSeat, choice) -> None:
        """One OS hand-off: wake ``choice``'s thread and park this one
        until the schedule (or the end of the execution) wakes it."""
        self._worker_list[choice.value].signal.release()
        seat.signal.acquire()
        if self._canceled:
            raise ExecutionCanceled()
        self._current = seat.mid
