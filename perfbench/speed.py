"""Machine-speed calibration: scales measured times to a reference speed.

The benchmark runs on shared machines whose speed drifts by tens of percent
within seconds to minutes, because neighbouring work contends for the same
cores and caches.  The drift slows every computation alike, so a fixed
calibration kernel tracks it.  A time is multiplied by REFERENCE_S / (kernel
time measured next to it), which turns it into seconds at the speed where the
kernel takes REFERENCE_S.

The kernel mirrors the program's hot loops: many small numpy operations on a
201-element complex array driven from Python, then plain Python arithmetic.
(A plain-Python kernel alone does not track the drift: it kept its idle
speed while the program ran 1.5 times slower.)  The iteration's process runs
the kernel once (a probe) before the import of the program, after it, after
`main`, and every PROBE_INTERVAL_S in between from a SIGALRM handler (not
while tracing).  Each stretch of program time between two probes is scaled by
the mean kernel time of the two.
"""

from __future__ import annotations

import numpy as np

REFERENCE_S = 0.016  # about the kernel's fastest time on an idle 2 GHz Xeon vCPU
PROBE_INTERVAL_S = 0.5  # probes then cost about 4% of the iteration's time
_Z = np.exp(1j * np.linspace(0.0, 1.0, 201))


def kernel() -> complex:
    acc = 0j
    for i in range(3000):
        acc += (_Z * (1.0 + 1e-3 * i)).sum()
    s = 0
    for i in range(120_000):
        s += i * i
    return acc + s


def program_time(probes: list) -> tuple[float, float, float, float]:
    """Wall and CPU time from the first to the last probe, outside the probes.

    A probe is (wall start, wall end, CPU start, CPU end) of one kernel run.
    Returns (wall, cpu, wall scaled, cpu scaled).
    """
    wall = cpu = wall_ref = cpu_ref = 0.0
    for (w0, w1, c0, c1), (v0, v1, d0, d1) in zip(probes, probes[1:]):
        f = REFERENCE_S / (0.5 * ((w1 - w0) + (v1 - v0)))
        wall += v0 - w1
        cpu += d0 - c1
        wall_ref += (v0 - w1) * f
        cpu_ref += (d0 - c1) * f
    return wall, cpu, wall_ref, cpu_ref
