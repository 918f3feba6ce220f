"""Time the orbit, ring and autocorrelation layers' kernels at fixed sizes.

    python tools/bench_layers.py [--src DIR]

Each kernel is timed REPEAT times in this process: canonical_array(24, "C"),
census at (24, "C"), (24, "HC") and (24, "D") and at the orbit-census
sizes (20, "C"), (19, "HC") and (18, "HDC"), invariance_check(24),
square_freeness_check(23), square_freeness_check(21) (the orbit-census
size), verify_ring(14), verify_identities(14) (criterion 7's largest),
verify_identities(16) and random_identity_trials(64, 1000, 0).  The minor page faults of each of
these repeats (the getrusage ru_minflt delta of this process) are stored
next to its times.  The first classify at (256, "HDC") fills the group
caches, so it is timed in REPEAT fresh processes, the call alone without
the import.  Every repeat's time is stored, with the best and the median:
on a host whose speed drifts, one best time can mislead.

--src names the source tree to import (default: the src/ next to this
script), so a checkout of another commit is measured into the same file,
BENCH_layers.json at the repository root.  The run is stored under the
commit of that tree, with the Python and numpy versions and the host,
and replaces an earlier run of the same commit; the runs of other
commits stay in the file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "BENCH_layers.json"
REPEAT = 5

FIRST_CLASSIFY = """
import random, time
from z2schur.orbits import classify
from z2schur.sequences import BinarySequence
x = BinarySequence(256, random.Random(0).getrandbits(256))
t0 = time.perf_counter()
classify(x, "HDC")
print(time.perf_counter() - t0)
"""


def minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def repeat_times(fn) -> tuple[list[float], list[int]]:
    """The seconds and the minor page faults of each of REPEAT calls."""
    times, faults = [], []
    for _ in range(REPEAT):
        f0, t0 = minor_faults(), time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
        faults.append(minor_faults() - f0)
    return times, faults


def first_classify(src: Path) -> list[float]:
    env = dict(os.environ, PYTHONPATH=str(src))
    return [float(subprocess.run([sys.executable, "-c", FIRST_CLASSIFY], env=env,
                                 check=True, capture_output=True, text=True).stdout)
            for _ in range(REPEAT)]


def commit_of(src: Path) -> dict:
    def git(*args: str) -> str:
        return subprocess.run(["git", "-C", str(src), *args], check=True,
                              capture_output=True, text=True).stdout.strip()

    return {"git_sha": git("rev-parse", "HEAD"),
            "dirty": bool(git("status", "--porcelain", "--", "."))}


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src")
    args = parser.parse_args(argv)
    src = args.src.resolve()
    sys.path.insert(0, str(src))
    # One thread per numerical pool, set before numpy is imported, as in perfbench.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    import numpy as np
    from z2schur import autocorr, orbits, weight_ring

    kernels = {
        'canonical_array(24, "C")': lambda: orbits.canonical_array(24, "C"),
        **{f'census({n}, "{g}")': (lambda n=n, g=g: orbits.census(n, g))
           for n, g in ((24, "C"), (24, "HC"), (24, "D"), (20, "C"), (19, "HC"), (18, "HDC"))},
        "invariance_check(24)": lambda: orbits.invariance_check(24),
        "square_freeness_check(23)": lambda: orbits.square_freeness_check(23),
        "square_freeness_check(21)": lambda: orbits.square_freeness_check(21),
        "verify_ring(14)": lambda: weight_ring.verify_ring(14),
        "verify_identities(14)": lambda: autocorr.verify_identities(14),
        "verify_identities(16)": lambda: autocorr.verify_identities(16),
        "random_identity_trials(64, 1000, 0)":
            lambda: autocorr.random_identity_trials(64, 1000, 0),
    }
    measured = {name: repeat_times(fn) for name, fn in kernels.items()}
    times_s = {name: times for name, (times, _) in measured.items()}
    times_s['first classify(256, "HDC")'] = first_classify(src)
    run = {
        **commit_of(src),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "host": f"{platform.machine()}, {os.cpu_count()} CPUs",
        "repeat": REPEAT,
        "best_s": {name: round(min(t), 4) for name, t in times_s.items()},
        "median_s": {name: round(statistics.median(t), 4) for name, t in times_s.items()},
        "times_s": {name: [round(x, 4) for x in t] for name, t in times_s.items()},
        "minor_faults": {name: faults for name, (_, faults) in measured.items()},
    }
    runs = json.loads(OUT.read_text())["runs"] if OUT.exists() else []
    runs = [r for r in runs if r["git_sha"] != run["git_sha"]] + [run]
    OUT.write_text(json.dumps({"runs": runs}, indent=2) + "\n")
    print(json.dumps(run, indent=2))


if __name__ == "__main__":
    main()
