"""Pass times at a fixed reference speed of the host.

The benchmark runs on a few vCPUs of a shared host.  Their speed swings by
up to ~1.8x within seconds and drifts over minutes as other tenants load
the machine, and the guest sees none of it as steal time, so CPU time
swings as much as wall time.  No statistic over one run's pass times takes
that out: two runs of the same code minutes apart differ by up to 30%.

``PassTimer`` therefore runs two fixed probes, a pure-Python loop and a
loop of small complex numpy products (the two kinds of work pilotseq's
passes are made of), every ``INTERVAL_S`` while a pass runs, from a
SIGALRM handler in the same thread.  A probe slows down with the host.  A
pass's time at the reference speed is its wall time times the mean of
``REF_S / probe time`` over its probes (the host's mean speed relative to
one on which each probe takes ``REF_S``), averaged over the two probe kinds.
The probes' own time is left out of the pass time.  The probes are fixed
code of the benchmark, so a change to pilotseq moves only the pass time.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.03
REF_S = 1e-3  # the reference speed: a host on which each probe takes 1 ms
INTERPRETER_ITERS = 10_000
NUMPY_ITERS = 130

_rng = np.random.default_rng(0)
_X = (_rng.standard_normal((8, 8)) + 1j * _rng.standard_normal((8, 8))) / 8


def interpreter_probe() -> int:
    s = 0
    for i in range(INTERPRETER_ITERS):
        s += i * i % 7
    return s


def numpy_probe() -> np.ndarray:
    y = _X
    for _ in range(NUMPY_ITERS):
        y = (y @ _X) * 0.1 + _X.conj()
    return y


PROBES = (interpreter_probe, numpy_probe)


class PassTimer:
    """Times passes in wall seconds and in seconds at the reference speed."""

    def __init__(self):
        self.samples: list[list[float]] = [[] for _ in PROBES]
        self.spent = 0.0  # seconds spent in probes so far
        self.calls = 0
        self.armed = False
        self.busy = False
        # installed for good: a tick still pending when a pass ends finds
        # the timer disarmed and returns, instead of meeting SIG_DFL
        signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, *_):
        # a tick that lands inside a slow probe is dropped
        if self.armed and not self.busy:
            self._probe()

    def _probe(self):
        self.busy = True
        kind = self.calls % len(PROBES)
        t0 = time.perf_counter()
        PROBES[kind]()
        dt = time.perf_counter() - t0
        self.samples[kind].append(dt)
        self.spent += dt
        self.calls += 1
        self.busy = False

    def speed(self) -> float:
        """The host's speed relative to the reference over the last pass."""
        return statistics.fmean(statistics.fmean(REF_S / t for t in s) for s in self.samples)

    def __call__(self, fn):
        """Run fn() under the probes; return (result, wall_s, ref_s).

        wall_s is the pass's wall time without the probes; ref_s is wall_s
        at the reference speed.
        """
        self.samples = [[] for _ in PROBES]
        for _ in PROBES:  # one sample of each kind even for a short pass
            self._probe()
        spent0 = self.spent
        self.armed = True
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        t0 = time.perf_counter()
        try:
            result = fn()
        finally:
            self.armed = False
            wall = time.perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0)
        wall -= self.spent - spent0
        return result, wall, wall * self.speed()
