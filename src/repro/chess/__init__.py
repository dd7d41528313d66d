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
  write (intercepted via ``Machine.__setattr__``), every queue enqueue /
  dequeue (the runtime's blocking-queue lock operations), in addition to
  sends and machine creations;
* an optional happens-before race detector (``race_detection=True``, the
  RD-on configuration): vector clocks per machine with edges at
  send/receive/create, checked on every intercepted field access.

P# programs are race-free by construction of the machine-local state
model, so — exactly as the paper reports — the detector finds no races
while still charging its bookkeeping to every access.
"""

from .runtime import ChessRuntime, chess_campaign

__all__ = ["ChessRuntime", "chess_campaign"]
