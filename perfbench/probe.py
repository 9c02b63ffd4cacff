"""Speed probe: benchmark-owned pure-Python work shaped like the library's
inner loops (tuple-keyed dict lookups, big-int masks).

Its time moves with the machine's speed and not with the library's code, so
dividing a measured time by the probe time of the same moment cancels the
machine's own speed swings (README.md, "Machine-speed scaling").  This module
imports nothing from the library; ``run.py`` uses it in the timed loop and
the set-up children import it after their timed import.
"""
from __future__ import annotations

import time

REF_PROBE_S = 0.002  # nominal probe time; scaled times are seconds at this probe speed

_KEYS = [(str(i % 61), str(i % 17)) for i in range(1037)]
_DICT = {k: i for i, k in enumerate(_KEYS)}
_MASKS = [((1 << 256) - 1) ^ (i * 0x9E3779B97F4A7C15) for i in range(64)]


def _probe_once() -> int:
    d, masks, acc = _DICT, _MASKS, 0
    for _ in range(6):
        for key in _KEYS:
            v = d[key]
            acc += (masks[v & 63] & masks[(v >> 6) & 63]) >> (v & 255) & 1
    return acc


def speed_probe() -> float:
    """Seconds for one probe run, after an untimed run that warms its data."""
    _probe_once()
    t0 = time.perf_counter()
    _probe_once()
    return time.perf_counter() - t0
