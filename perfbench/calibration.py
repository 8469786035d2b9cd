"""Measures how fast the host is right now.

The host this benchmark was sized on (a 2-core x86-64 container) ran
the same campaign anywhere between 2.9 s and 5.4 s within three
minutes, as its neighbours loaded the machine.  A pure-arithmetic
loop hardly followed that drift; random lookups in a dictionary much
larger than the caches, timed in the same process, followed about
half of it.  So the benchmark times such lookups right before each
operation and after the last one, and scales each operation's time
by ``REFERENCE_S`` over the mean of the two samples around it.

A helper process on the other core did not follow the drift, so the
dictionary lives in the benchmark process.  It is built first, the
kernel's resident-memory high-water mark is reset after it, and
``program_peak_bytes`` leaves the dictionary out of the peak.
"""

import time

# seconds one calibration takes on the reference host (see above)
REFERENCE_S = 0.1

_KEYS = 1 << 20
_ROUNDS = 150_000


def _status_bytes(field: str) -> int:
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith(field + ":"):
                return int(line.split()[1]) * 1024
    raise LookupError(field)


class Calibrator:
    """A dictionary of ``_KEYS`` entries and a timer over it."""

    def __init__(self):
        before = _status_bytes("VmRSS")
        self._table = {key: key for key in range(_KEYS)}
        self._resident = _status_bytes("VmRSS") - before
        # forget the peak of building the dictionary (Linux >= 4.0)
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")

    def program_peak_bytes(self) -> int:
        """Peak resident memory since construction, without the
        dictionary."""
        return _status_bytes("VmHWM") - self._resident

    def sample(self) -> float:
        """Seconds one round of random lookups takes now."""
        table = self._table
        began = time.perf_counter()
        total, key = 0, 12345
        for _ in range(_ROUNDS):
            key = (key * 1103515245 + 12345) & (_KEYS - 1)
            total += table[key]
        return time.perf_counter() - began


def scaled(seconds: float, *samples: float) -> float:
    """``seconds`` at the reference host's speed."""
    return seconds * REFERENCE_S * len(samples) / sum(samples)
