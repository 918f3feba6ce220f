"""The package's one clock: every time z2schur reports is read here."""

from __future__ import annotations

import time


def timed(fn, *args, **kwargs):
    """fn(*args, **kwargs) and the seconds it took."""
    t0 = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - t0
