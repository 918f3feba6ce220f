"""Benchmark harness for z2schur.

    python3 perfbench/run.py --workload suite --seed 1 --seconds 60 --trace 0
    python3 perfbench/run.py --smoke

One process, one caller, closed loop: each pass starts when the previous
one has ended and been checked.  A run builds the seeded inputs, then runs
timed passes for ``--seconds``; every call of a pass is timed on its own.
Every output is checked outside the timed region; ``attempted`` and
``failed`` count checked ops.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` spends half
the window untraced and half traced, and reports the per-layer metrics
plus the ratio of the two best pass times (see ``best``).  The last stdout line is the
result; the line before it carries the run metadata.  Full records and
span files go to ``perfbench/out/``.

The package is imported from ``src/`` of this checkout and from nowhere
else; without it the harness exits with code 2 before printing a result.
"""

import os

# Pin numerical thread pools before numpy is imported: one caller, one thread.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOADS = ("suite", "orbit-census")
SETUP_SAMPLES = 11
MIN_PASSES = 3  # per window; each half of a traced run takes at least 2
SMOKE_SEEDS = (0, 1)


class MissingPackage(Exception):
    pass


def load_workload(name: str, seed: int, tiny: bool, out_dir: Path):
    """Import z2schur from this checkout and build the seeded inputs."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import z2schur
    except ImportError as exc:
        raise MissingPackage(f"cannot import z2schur from {src}: {exc}") from None
    if Path(z2schur.__file__).resolve().parent != (src / "z2schur").resolve():
        raise MissingPackage(f"z2schur resolved to {z2schur.__file__}, not {src}")
    import workloads

    cls = workloads.WORKLOADS[name]
    if name == "suite":
        return cls(seed, tiny, out_dir=out_dir)
    return cls(seed, tiny)


def setup_probe(args) -> None:
    t0 = time.perf_counter()
    load_workload(args.workload, args.seed, args.tiny, OUT)
    print(json.dumps({"setup_s": time.perf_counter() - t0}))


class SetupProbes:
    """Set-up times from fresh processes, as a module is imported once per
    process.  They are taken at even intervals through the timed window, so
    they meet the same phases of the machine's speed as the passes do."""

    def __init__(self, args, count: int, seconds: float):
        self.cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
                    "--workload", args.workload, "--seed", str(args.seed)]
        if args.tiny:
            self.cmd.append("--tiny")
        self.count = count
        self.interval = seconds / count
        self.values: list[float] = []

    def probe(self) -> None:
        proc = subprocess.run(self.cmd, capture_output=True, text=True, timeout=120,
                              check=True)
        self.values.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])

    def due(self, elapsed: float) -> None:
        """One probe, if the window has reached the next probe's turn."""
        if len(self.values) < self.count and elapsed >= len(self.values) * self.interval:
            self.probe()

    def finish(self) -> list[float]:
        while len(self.values) < self.count:
            self.probe()
        return self.values


def quartiles(values: list[float]) -> dict:
    q = statistics.quantiles(values, n=4)
    return {"p25": q[0], "median": statistics.median(values), "p75": q[2], "n": len(values),
            "values": values}


def best(passes: list[list[float]]) -> float:
    """Sum over a pass's calls of each call's fastest time across passes.

    The reference machine's CPU speed swings by up to 1.5x in phases that
    last from a second to several minutes.  Pass times within a run are
    then bimodal and a run median jumps between the two modes.  A call's
    fastest time is its cost in the fastest phase the run met; summed, it
    is the pass time at that speed.  A run spent wholly in a slow phase
    still reads slow.
    """
    return sum(min(times) for times in zip(*passes))


class Loop:
    """Runs passes, times them, checks them, and keeps the tallies."""

    def __init__(self, workload, tracer=None):
        self.workload = workload
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def one_pass(self, pass_id=None) -> tuple[float, list[float], list[float]]:
        """One pass: its wall time, and each call's wall and CPU time."""
        tracer = self.tracer
        if tracer is not None:
            tracer.pass_id = pass_id
        t0 = time.perf_counter()
        ops = self.workload.run_pass()
        wall = time.perf_counter() - t0
        if tracer is not None:
            tracer.pass_id = None
        op_walls = [op.wall_s for op in ops]
        op_cpus = [op.cpu_s for op in ops]
        self.workload.check(ops)
        for op in ops:
            self.attempted += 1
            if op.failed:
                self.failed += 1
                if len(self.failures) < 20:
                    self.failures.append(f"{op.layer}.{op.label}: {op.error or op.why}")
                if pass_id is not None:
                    tracer.counts[pass_id][f"{op.layer}.failed"] += 1
        return wall, op_walls, op_cpus

    def window(self, seconds: float, min_passes: int = MIN_PASSES,
               traced: bool = False, between=None) -> dict[str, list]:
        """Passes until the next one would end past ``seconds``.

        ``between(elapsed)`` runs after each pass; its time does not count.
        """
        out: dict[str, list] = {"walls": [], "op_walls": [], "op_cpus": []}
        start = time.perf_counter()
        paused = 0.0
        while True:
            wall, op_walls, op_cpus = self.one_pass(len(out["walls"]) if traced else None)
            out["walls"].append(wall)
            out["op_walls"].append(op_walls)
            out["op_cpus"].append(op_cpus)
            elapsed = time.perf_counter() - start - paused
            if between is not None:
                t0 = time.perf_counter()
                between(elapsed)
                paused += time.perf_counter() - t0
            if len(out["walls"]) >= min_passes and \
                    elapsed + statistics.median(out["walls"]) > seconds:
                return out


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or "unknown"


def metadata(args, workload) -> dict:
    import numpy
    import z2schur

    return {
        "git_sha": git_sha(),
        "z2schur_version": z2schur.__version__,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "threads_env": {v: os.environ[v] for v in THREAD_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "sizes": workload.sizes,
    }


def run(args) -> dict:
    OUT.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    record: dict = {"loadavg_before": os.getloadavg()}
    try:
        t0 = time.perf_counter()
        workload = load_workload(args.workload, args.seed, args.tiny, scratch)
        setup_main = time.perf_counter() - t0
        record["meta"] = metadata(args, workload)
        tracer = None
        if args.trace:
            import tracing

            tracer = tracing.Tracer()
        loop = Loop(workload, tracer)
        if args.trace:
            plain = loop.window(args.seconds / 2, 2)
            tracer.install()
            try:
                traced = loop.window(args.seconds / 2, 2, traced=True)
            finally:
                tracer.remove()
            ratio = best(traced["op_walls"]) / best(plain["op_walls"])
            metrics = tracer.summary(ratio)
            median_traced = statistics.median(traced["walls"])
            record["self_share"] = {layer: metrics[f"{layer}.self_s"] / median_traced
                                    for layer in tracing.LAYERS}
            record["pass_s"] = quartiles(plain["walls"])
            record["traced_pass_s"] = quartiles(traced["walls"])
            spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
            tracer.write(spans_path)
            record["spans_file"] = str(spans_path.relative_to(ROOT))
        else:
            probes = SetupProbes(args, SETUP_SAMPLES - 1, args.seconds)
            timed = loop.window(args.seconds, between=probes.due)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            setups = [setup_main] + probes.finish()
            metrics = {
                "best_pass_s": best(timed["op_walls"]),
                "best_cpu_s": best(timed["op_cpus"]),
                "peak_rss_mb": peak_rss_mb,
                "setup_s": statistics.median(setups),
            }
            record["pass_s"] = quartiles(timed["walls"])
            record["cpu_s"] = quartiles([sum(p) for p in timed["op_cpus"]])
            record["setup_s"] = quartiles(setups)
            record["op_walls"] = timed["op_walls"]
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    record["loadavg_after"] = os.getloadavg()
    record["error_rate"] = loop.failed / loop.attempted
    record["failures"] = loop.failures
    result = {
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": v, "unit": _unit(k)} for k, v in metrics.items()},
    }
    record["result"] = result
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    return record


def _unit(name: str) -> str:
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("ratio"):
        return "ratio"
    return "count"


def smoke() -> int:
    """Every workload and checker at tiny sizes, traced and untraced, on
    two seeds; the work counts must not depend on the seed."""
    script = str(Path(__file__).resolve())
    ok = True
    for name in WORKLOADS:
        counts = {}
        for seed in SMOKE_SEEDS:
            for trace in (0, 1):
                cmd = [sys.executable, script, "--workload", name, "--seed", str(seed),
                       "--seconds", "1", "--trace", str(trace), "--tiny"]
                proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
                lines = proc.stdout.splitlines()
                if proc.returncode or not lines:
                    print(f"FAIL {name} seed={seed} trace={trace}: exit {proc.returncode}\n"
                          f"{proc.stderr}")
                    ok = False
                    continue
                res = json.loads(lines[-1])
                values = {k: v["value"] for k, v in res["metrics"].items()}
                shown = ", ".join(f"{k}={values[k]:.4g}" for k in
                                  (("best_pass_s", "best_cpu_s", "peak_rss_mb", "setup_s") if not trace
                                   else ("trace.overhead_ratio",)))
                print(f"{'ok  ' if res['correct'] else 'FAIL'} {name:13s} seed={seed} "
                      f"trace={trace} attempted={res['attempted']} failed={res['failed']} {shown}")
                ok &= res["correct"]
                if trace:
                    counts[seed] = {k: v for k, v in values.items()
                                    if _unit(k) == "count"}
        first, second = (counts.get(seed, {}) for seed in SMOKE_SEEDS)
        if first != second:
            diff = {k for k in first | second if first.get(k) != second.get(k)}
            print(f"FAIL {name}: work counts depend on the seed: {sorted(diff)}")
            ok = False
    print("smoke passed" if ok else "smoke FAILED")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny sizes, for a quick check of every path")
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at tiny sizes on two seeds")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    try:
        if args.setup_probe:
            setup_probe(args)
            return 0
        record = run(args)
    except MissingPackage as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({k: v for k, v in record.items() if k != "result"}))
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
