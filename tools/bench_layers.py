"""Time the orbit, ring and autocorrelation layers' kernels at fixed sizes.

    python tools/bench_layers.py [--src DIR] [--src DIR]

Each kernel is timed REPEAT times: canonical_array(24, "C"), census at
(24, "C"), (24, "HC") and (24, "D") and at the orbit-census sizes
(20, "C"), (19, "HC") and (18, "HDC"), invariance_check(24) and (18)
(the orbit-census size), square_freeness_check(23),
square_freeness_check(21) (the orbit-census size), verify_ring(14),
verify_ring(16) (the oracle's cap), verify_identities(14) (criterion 7's
largest), verify_identities(16), random_identity_trials(32, 1000, 0) and
(64, 1000, 0) (criterion 7's two), criterion_partition_verdicts(16)
(criterion 11's sweep, thousands of small one-shift rotations), and warm
classify over seeded words: the 300 words of the orbit-census workload
at (18, "HDC") and seed 1, and 10 words at (256, "HDC"), each set one
call, its caches filled before the first repeat.  The minor page
faults of each of these repeats (the getrusage ru_minflt delta of the
process that ran it) are stored next to its times.  They depend on what
the worker's heap went through before, so each kernel is also run once
more, untimed, under tracemalloc, after its repeats: its traced peak, in
MiB, counts what the kernel itself holds at once.  The first classify at
(256, "HDC") fills the group caches, so it is timed in REPEAT fresh
processes, the call alone without the import.  Every repeat's time is
stored, with the best and the median: on a host whose speed drifts, one
best time can mislead.

--src names a source tree to import (default: the src/ next to this
script); give it twice to measure two trees, say a parent commit and a
change, side by side.  Each tree runs in a worker process of its own,
which imports that tree once, and the repeats of every kernel alternate
between the workers, the first tree first on even repeats and the second
on odd ones; the fresh classify processes alternate the same way.  So a
change of the host's speed during the run reaches both trees alike,
where two runs one after the other can straddle it and show a gain or a
regression that is not there.

Every tree's run is stored in BENCH_layers.json at the repository root,
under the commit of that tree, with the Python and numpy versions, the
host, and the commit it alternated with; it replaces an earlier run of
the same commit and dirty state, and the runs of other commits stay in
the file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "BENCH_layers.json"
REPEAT = 5
# One thread per numerical pool, set before numpy is imported, as in perfbench.
THREADS = {var: "1" for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}

# (n, group, count) of the seeded words that a classify kernel runs through;
# the first is the orbit-census workload's set at seed 1.
CLASSIFY_WORDS = ((18, "HDC", 300), (256, "HDC", 10))
# Each name is the call itself, evaluated in a worker against `NAMESPACE`
# and `classify_words`.
KERNELS = (
    'canonical_array(24, "C")',
    *(f'census({n}, "{g}")'
      for n, g in ((24, "C"), (24, "HC"), (24, "D"), (20, "C"), (19, "HC"), (18, "HDC"))),
    "invariance_check(24)",
    "invariance_check(18)",
    "square_freeness_check(23)",
    "square_freeness_check(21)",
    "verify_ring(14)",
    "verify_ring(16)",
    "verify_identities(14)",
    "verify_identities(16)",
    "random_identity_trials(32, 1000, 0)",
    "random_identity_trials(64, 1000, 0)",
    "criterion_partition_verdicts(16)",
    *(f'classify_words({n}, "{g}", {count})' for n, g, count in CLASSIFY_WORDS),
)
NAMESPACE = {
    "orbits": ("canonical_array", "census", "classify", "invariance_check",
               "square_freeness_check"),
    "weight_ring": ("verify_ring",),
    "autocorr": ("verify_identities", "random_identity_trials"),
    "reproduce": ("criterion_partition_verdicts",),
}

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


def serve(src: Path) -> None:
    """Worker side: import the tree at src, seed the classify words and
    warm classify on them, report the numpy version, then run each kernel
    named on stdin once and answer with its seconds and minor page faults,
    or, for a name prefixed with "peak ", with its traced peak alone, one
    JSON line per call."""
    sys.path.insert(0, str(src))
    import importlib

    import numpy as np

    from z2schur.sequences import BinarySequence

    names = {}
    for module, functions in NAMESPACE.items():
        mod = importlib.import_module(f"z2schur.{module}")
        names.update({f: getattr(mod, f) for f in functions})
    words = {}
    for n, group, count in CLASSIFY_WORDS:
        rng = random.Random(1)
        words[n, group, count] = [BinarySequence(n, rng.getrandbits(n)) for _ in range(count)]
        names["classify"](words[n, group, count][0], group)

    def classify_words(n: int, group: str, count: int) -> None:
        for x in words[n, group, count]:
            names["classify"](x, group)

    names["classify_words"] = classify_words
    print(json.dumps({"numpy": np.__version__}), flush=True)
    for line in sys.stdin:
        name = line.strip()
        if name.startswith("peak "):
            tracemalloc.start()
            try:
                eval(name.removeprefix("peak "), {"__builtins__": {}}, names)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            print(json.dumps({"peak_mb": peak / 2**20}), flush=True)
            continue
        f0, t0 = minor_faults(), time.perf_counter()
        eval(name, {"__builtins__": {}}, names)
        seconds = time.perf_counter() - t0
        print(json.dumps({"s": seconds, "faults": minor_faults() - f0}), flush=True)


class Worker:
    """One tree's worker process, which keeps its imports between calls."""

    def __init__(self, src: Path):
        self.src = src
        self.proc = subprocess.Popen(
            [sys.executable, __file__, "--serve", str(src)], env=dict(os.environ, **THREADS),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.numpy = self._reply()["numpy"]

    def _reply(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"the worker for {self.src} exited with {self.proc.wait()}")
        return json.loads(line)

    def run(self, name: str) -> dict:
        self.proc.stdin.write(name + "\n")
        self.proc.stdin.flush()
        return self._reply()

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait(timeout=60)


def first_classify(src: Path) -> float:
    env = dict(os.environ, PYTHONPATH=str(src), **THREADS)
    return float(subprocess.run([sys.executable, "-c", FIRST_CLASSIFY], env=env,
                                check=True, capture_output=True, text=True).stdout)


def alternating(count: int, repeat: int):
    """The tree of each call in the order they run: every tree once per
    repeat, in reverse order on odd repeats."""
    for r in range(repeat):
        yield from reversed(range(count)) if r % 2 else range(count)


def commit_of(src: Path) -> dict:
    def git(*args: str) -> str:
        return subprocess.run(["git", "-C", str(src), *args], check=True,
                              capture_output=True, text=True).stdout.strip()

    return {"git_sha": git("rev-parse", "HEAD"),
            "dirty": bool(git("status", "--porcelain", "--", "."))}


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, action="append",
                        help="a source tree to measure; at most two (default: src/)")
    parser.add_argument("--serve", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.serve:
        serve(args.serve)
        return
    srcs = [s.resolve() for s in args.src or [ROOT / "src"]]
    if len(srcs) > 2:
        parser.error("give --src at most twice")
    commits = [commit_of(src) for src in srcs]
    times = [{name: [] for name in KERNELS} for _ in srcs]
    faults = [{name: [] for name in KERNELS} for _ in srcs]
    peaks = [{} for _ in srcs]
    workers = []
    try:
        workers += [Worker(src) for src in srcs]
        for name in KERNELS:
            for i in alternating(len(srcs), REPEAT):
                reply = workers[i].run(name)
                times[i][name].append(reply["s"])
                faults[i][name].append(reply["faults"])
            for i, worker in enumerate(workers):
                peaks[i][name] = round(worker.run(f"peak {name}")["peak_mb"], 3)
    finally:
        for worker in workers:
            worker.close()
    classify_name = 'first classify(256, "HDC")'
    for t in times:
        t[classify_name] = []
    for i in alternating(len(srcs), REPEAT):
        times[i][classify_name].append(first_classify(srcs[i]))
    runs = []
    for i, worker in enumerate(workers):
        other = commits[1 - i]["git_sha"] if len(srcs) == 2 else None
        runs.append({
            **commits[i],
            "python": platform.python_version(),
            "numpy": worker.numpy,
            "host": f"{platform.machine()}, {os.cpu_count()} CPUs",
            "repeat": REPEAT,
            "alternated_with": other,
            "best_s": {name: round(min(t), 4) for name, t in times[i].items()},
            "median_s": {name: round(statistics.median(t), 4) for name, t in times[i].items()},
            "times_s": {name: [round(x, 4) for x in t] for name, t in times[i].items()},
            "minor_faults": faults[i],
            "traced_peak_mb": peaks[i],
        })
    kept = json.loads(OUT.read_text())["runs"] if OUT.exists() else []
    replaced = {(run["git_sha"], run["dirty"]) for run in runs}
    kept = [r for r in kept if (r["git_sha"], r["dirty"]) not in replaced]
    OUT.write_text(json.dumps({"runs": kept + runs}, indent=2) + "\n")
    print(json.dumps(runs, indent=2))


if __name__ == "__main__":
    main()
