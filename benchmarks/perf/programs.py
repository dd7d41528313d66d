"""Benchmark-owned machine programs the inline compiler rejects.

Both are defined by a property of the *input* — where the ``send`` sits
in the handler's source — not by ``workers="pool"``: today the AST
reshape refuses a ``send`` inside a comprehension or a lambda, so
``workers="auto"`` resolves these to the pooled thread carrier.  If a
later change makes the inline carrier universal they keep running (and
get faster) with no edit here.  Used only for
``runtime.threads_ns_per_step``; target them as
``"benchmarks.perf.programs:FanOutCoordinator"`` /
``"benchmarks.perf.programs:LambdaRelay"``.
"""

from __future__ import annotations

from repro import Event, Halt, Machine, State

WORKERS = 4
ROUNDS = 6
HOPS = 24


class EWork(Event):
    """Coordinator -> worker: (coordinator id, round)."""


class EAck(Event):
    """Worker -> coordinator: round acknowledged."""


class FanOutWorker(Machine):
    class Serving(State):
        initial = True
        actions = {EWork: "on_work"}

    def on_work(self):
        coordinator, round_no = self.payload
        self.send(coordinator, EAck(round_no))


class FanOutCoordinator(Machine):
    """Fans each round out to every worker from inside a comprehension."""

    class Init(State):
        initial = True
        entry = "setup"
        actions = {EAck: "on_ack"}

    def setup(self):
        self.round = 0
        self.acks = 0
        self.workers = [self.create_machine(FanOutWorker) for _ in range(WORKERS)]
        self.fan_out()

    def fan_out(self):
        self.round += 1
        self.acks = 0
        [self.send(w, EWork((self.id, self.round))) for w in self.workers]

    def on_ack(self):
        self.acks += 1
        if self.acks < WORKERS:
            return
        if self.round < ROUNDS:
            self.fan_out()
        else:
            [self.send(w, Halt()) for w in self.workers]
            self.halt()


class EPing(Event):
    """(reply-to id, hops left)."""


class LambdaEcho(Machine):
    class Serving(State):
        initial = True
        actions = {EPing: "on_ping"}

    def on_ping(self):
        reply_to, hops = self.payload
        self.send(reply_to, EPing((self.id, hops)))


class LambdaRelay(Machine):
    """Bounces a ping off an echo machine, sending from a lambda."""

    class Init(State):
        initial = True
        entry = "setup"
        actions = {EPing: "on_ping"}

    def setup(self):
        self.echo = self.create_machine(LambdaEcho)
        self.forward = lambda hops: self.send(self.echo, EPing((self.id, hops)))
        self.forward(HOPS)

    def on_ping(self):
        _, hops = self.payload
        if hops > 1:
            self.forward(hops - 1)
        else:
            self.send(self.echo, Halt())
            self.halt()
