"""A CHESS-style systematic concurrency testing baseline (Section 7.2.2).

CHESS [19] "uses dynamic instrumentation to intercept memory accesses and
synchronizing operations" and "inserts scheduling points before several
synchronization operations (e.g. runtime locks), whereas the P# scheduler
only needs to schedule before send and create-machine operations, which
greatly reduces the schedule space".  Table 2 quantifies the consequence:
CHESS explores far fewer schedules per second, and its optional data race
detector costs another 4-7.5x.

This baseline reproduces both structural properties on top of the same
cooperative-thread engine as the P# runtime:

* scheduling points at every *visible operation* — every machine field
  write (intercepted by the ``Machine.__setattr__`` that
  :class:`ChessRuntime` installs for each execution), every queue
  enqueue / dequeue (the runtime's blocking-queue lock operations), in
  addition to sends and machine creations;
* an optional happens-before race detector (``race_detection=True``, the
  RD-on configuration): the core calculus's
  :class:`~repro.lang.interp.RaceDetector`, with vector clocks per
  machine and edges at send/receive/create, checked on every intercepted
  field write.

The detector sees machine fields only, keyed by the machine that owns
them, and only that machine writes them: so, as the paper reports, it
finds no races while still charging its bookkeeping to every access.
P# programs are not race-free by construction, though.  A machine that
keeps writing an object it sent races with the receiver (Section 5); the
static analysis reports that, but payload objects are not instrumented,
so this detector does not (``tests/test_chess.py::TestWriteAfterSend``).
"""

from .runtime import ChessRuntime, chess_campaign

__all__ = ["ChessRuntime", "chess_campaign"]
