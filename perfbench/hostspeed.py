"""The host's speed, sampled while the workload runs.

The benchmark runs on a few cores of a shared host.  Other tenants on the
same cores and caches slow every instruction down, by up to about 1.8x,
and the share of time they do so changes over seconds to minutes.  Rounds
of the same code then differ by 15-30 % between runs a few minutes apart,
in wall time and in CPU time alike.

A ``Sampler`` measures that slowdown in the workload's own thread.  A
SIGALRM timer interrupts the thread every ``PERIOD_S``; at the next
bytecode the handler runs one probe, a fixed piece of work, twice, and
records how long the second run took.  The first run brings the probe's
code and data back into the caches, so the time does not depend on what
the workload left there.  The probes take turns:

- ``py``: a pure-Python loop (interpreter speed);
- ``fft``: four numpy FFTs of 2048 points (cache-resident numerics);
- ``mem``: the sum of a 4 MB array (more than a core's L2 cache);
- ``big``: the sum of every 16th value of a 16 MB array (a strided walk
  through the shared last-level cache).

Each workload names the kinds that follow its own rounds best
(``Workload.probes``).  ``factor()`` is the mean over the probe kinds of their mean time divided
by the kind's reference time (its typical time on a 2-core Xeon VM at
normal load).  It is 1 on a host at that speed and 1.5 on a host 1.5x
slower.  A round's wall time divided by the factor is its time at the
reference speed.  The probes cost about 2 % of a round, on every commit
alike.
"""

from __future__ import annotations

import signal
import time

PERIOD_S = 0.01
REFERENCE_S = {"py": 110e-6, "fft": 160e-6, "mem": 470e-6, "big": 1090e-6}


def _probe_py() -> None:
    x = 0
    for i in range(1500):
        x += i * i


class Sampler:
    def __init__(self, kinds=("py", "fft", "mem")):
        self.probes = {"py": _probe_py}
        if set(kinds) - {"py"}:
            import numpy as np

            rng = np.random.default_rng(1)
            f = rng.standard_normal(2048) + 1j * rng.standard_normal(2048)
            m = rng.standard_normal(1 << 19)
            b = rng.standard_normal(1 << 21)[::16]

            def probe_fft():
                for _ in range(4):
                    np.fft.fft(f)

            self.probes.update(fft=probe_fft, mem=m.sum, big=b.sum)
        self.kinds = tuple(kinds)
        self.times = {k: [] for k in self.kinds}
        self._turn = 0

    def _handler(self, signum, frame) -> None:
        kind = self.kinds[self._turn % len(self.kinds)]
        self._turn += 1
        self.probes[kind]()
        t = time.perf_counter()
        self.probes[kind]()
        self.times[kind].append(time.perf_counter() - t)

    def start(self) -> "Sampler":
        signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def reset(self) -> None:
        for v in self.times.values():
            v.clear()

    def samples(self) -> int:
        return sum(len(v) for v in self.times.values())

    def factor(self) -> float:
        """Slowdown against the reference speed since the last reset; 1.0
        when no probe has run yet."""
        ratios = [sum(v) / len(v) / REFERENCE_S[k] for k, v in self.times.items() if v]
        return sum(ratios) / len(ratios) if ratios else 1.0
