"""Speed-normalised timing for the benchmark's untraced repetitions.

The benchmark's host is a few cores of a shared machine whose speed drifts
with its neighbours' load: the same smt repetition takes anywhere from
5.6 s to 9.3 s within a few minutes, and a whole minute can run 1.4x slow.
A time taken on it measures the neighbours as much as the program.

The clock therefore runs a fixed calibration kernel, ``probe``, every
``PROBE_EVERY_S`` of the timed phase, from marks that ``install`` places at
the entry and exit of calls that split the three workloads into short
pieces: ``poly_roots`` (smt), the integrand handed to ``adaptive_circle``
(sweep, and smt's quadrature), the vectorised evaluations of
``RationalFromDivisor`` (census's Newton pass) and the map
``AlgebraicMap.__call__`` and value re-check of the census's matching loop.
The program's time between two probes, with the probes' own time left
out, is scaled by ``PROBE_REF_S`` over the mean of the two probes' CPU
times: it becomes the time that stretch would take on a host where the
probe runs in ``PROBE_REF_S``.  The probe mixes what nevlab spends its time on:
Horner and Aberth steps on small complex arrays (smt), a vectorised
integrand pass (sweep), a log-modulus sum over a 512 x 16 grid like a
rational's evaluation (census) and a little pure Python.  Each workload's
time follows the probe's to within 2-4% per repetition across the host's
slow and fast spells.  The probe is the benchmark's own code, so no change
to the program changes it.
"""

from __future__ import annotations

import sys
from time import perf_counter, process_time

import numpy as np

from tracing import rebind

# The probe's CPU time on an idle core of the 2-vCPU host the benchmark was
# written on (its fastest of some 20,000 runs there).
PROBE_REF_S = 137e-6
PROBE_EVERY_S = 0.005

_Z = np.exp(1j * np.linspace(0.1, 6.0, 12)) * 1.3
_C = np.linspace(1.0, 2.0, 13) + 0.5j
_T = np.linspace(0.0, 6.2, 256)
_ZB = np.exp(1j * np.linspace(0.0, 6.2, 512))[:, None] * 1.7
_PB = np.exp(1j * np.linspace(0.3, 5.9, 16))[None, :] * 1.1


def probe() -> float:
    z = _Z
    for _ in range(3):
        pv = np.full(12, _C[-1], dtype=np.complex128)
        for c in _C[-2::-1]:
            pv = pv * z + c
        diff = z[:, None] - z[None, :]
        np.fill_diagonal(diff, np.inf)
        z = z - 1e-3 * pv / (1.0 + np.sum(1.0 / diff, axis=1))
    s = float(np.log1p(np.abs(np.exp(1j * _T) * 2.0 - 1.0)).sum())
    s += float(np.log(np.abs(_ZB - _PB)).sum())
    for i in range(100):
        s += i * 0.5
    return s


def speed(n: int = 100) -> float:
    """Mean CPU time of ``n`` probes run back to back."""
    c0 = process_time()
    for _ in range(n):
        probe()
    return (process_time() - c0) / n


class Clock:
    """Program time of one timed phase, normalised.

    ``start`` and ``stop`` bracket the phase with probes; ``mark`` runs one
    more whenever ``PROBE_EVERY_S`` has passed since the last.  Probes are
    timed in CPU time, and the wall time between them loses what
    ``run_delay()`` (seconds this process has waited for a CPU) grew by:
    time the process spent off the CPU, runnable, is the neighbours' and
    not the program's.
    """

    def __init__(self, run_delay):
        self.run_delay = run_delay
        self.wall = self.cpu = 0.0  # normalised
        self.raw_wall = self.waited = 0.0
        self.probes = 0
        self.probe_s = 0.0
        self._last = 0.0
        self._next = 0.0
        self._t = self._c = self._d = 0.0

    def start(self) -> None:
        self._last = self._probe()
        self._resume()

    def mark(self) -> None:
        if perf_counter() >= self._next:
            self._interval()

    def stop(self) -> None:
        self._interval()

    def _resume(self) -> None:
        self._t, self._c, self._d = perf_counter(), process_time(), self.run_delay()
        self._next = self._t + PROBE_EVERY_S

    def _probe(self) -> float:
        probe()  # untimed: brings the probe back into the caches
        c0 = process_time()
        probe()
        p = process_time() - c0
        self.probes += 1
        self.probe_s += p
        return p

    def _interval(self) -> None:
        wall, cpu = perf_counter() - self._t, process_time() - self._c
        waited = self.run_delay() - self._d
        p = self._probe()
        scale = PROBE_REF_S / (0.5 * (self._last + p))
        self.raw_wall += wall
        self.waited += waited
        self.wall += (wall - waited) * scale
        self.cpu += cpu * scale
        self._last = p
        self._resume()

    def wrap(self, fn):
        def marked(*args, **kwargs):
            self.mark()
            try:
                return fn(*args, **kwargs)
            finally:
                self.mark()

        return marked


def install(clock: Clock) -> None:
    """Put the clock's marks into nevlab; call after nevlab is imported."""
    fnmodel = sys.modules["nevlab.fnmodel"]
    quadrature = sys.modules["nevlab.quadrature"]
    algmap = sys.modules["nevlab.algmap"]

    for mod, name in ((fnmodel, "poly_roots"), (algmap, "_image_hits_value")):
        original = getattr(mod, name)
        rebind(original, clock.wrap(original))

    adaptive_circle = quadrature.adaptive_circle

    def marked_quadrature(f, *args, **kwargs):  # every caller passes the integrand first
        return adaptive_circle(clock.wrap(f), *args, **kwargs)

    rebind(adaptive_circle, marked_quadrature)

    for cls, name in ((fnmodel.RationalFromDivisor, "_log_parts"),
                      (fnmodel.RationalFromDivisor, "_logderivs"),
                      (algmap.AlgebraicMap, "__call__")):
        setattr(cls, name, clock.wrap(getattr(cls, name)))
