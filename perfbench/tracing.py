"""Spans and counters recorded from outside the package.

``Tracer.install()`` replaces public functions of the z2schur modules with
wrappers and ``Tracer.remove()`` puts the originals back.  A spanned call
records ``[name, start, end, parent, pass_id, label]``; a counted call
only bumps ``<name>.calls``.  Counting is for functions called once per
candidate, where a span would cost more than the work.  Spans stay in
memory until ``write``.

A span's self time is its duration minus the durations of its direct
children.  Spans nest properly because the load is one caller on one
thread.  Per-candidate helpers and everything in ``sequences`` get no span,
so their cost lands in the self time of the span that called them.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from collections import Counter, defaultdict

from z2schur import autocorr, cli, hadamard, orbits, reproduce, ssets, weight_ring

LAYERS = ("orbits", "weight_ring", "ssets", "autocorr", "hadamard", "reproduce", "cli")

# Criterion functions in the order run_all calls them: c01 ... c12.
CRITERIA = (
    "criterion_class_products",
    "criterion_structure_constants",
    "criterion_complete_ssets",
    "criterion_orbit_counts",
    "criterion_invariance",
    "criterion_freeness",
    "criterion_autocorr",
    "criterion_circulant_search",
    "criterion_paley_pipeline",
    "criterion_builtin_h12",
    "criterion_partition_verdicts",
    "criterion_core_verdicts",
)

CANON_KEYS = ("20-C", "19-HC", "18-HDC")


def _n_group(args, kwargs) -> str:
    group = args[1] if len(args) > 1 else kwargs.get("group", "C")
    return f"{args[0]}-{group}"


def _add(name: str, value_of):
    """A counter hook: add value_of(result) to counts[name]."""
    def hook(counts, result):
        counts[name] += value_of(result)
    return hook


# (module, attribute, span name, label fn or None, result hooks)
SPANNED = [
    (orbits, "canonical_array", "orbits.canonical_array", _n_group, ()),
    (orbits, "census", "orbits.census", None, ()),
    (orbits, "invariance_check", "orbits.invariance_check", None, ()),
    (orbits, "fd_partition", "orbits.fd_partition", None, ()),
    (orbits, "fd_partition_check", "orbits.fd_partition_check", None, ()),
    (orbits, "square_freeness_check", "orbits.square_freeness_check", None,
     (_add("orbits.square_freeness_check.checked", lambda r: r["checked"]),)),
    (orbits, "classify", "orbits.classify", None, ()),
    (orbits, "burnside_count", "orbits.burnside_count", None, ()),
    (orbits, "necklace_count", "orbits.necklace_count", None, ()),
    (weight_ring, "verify_ring", "weight_ring.verify_ring", None, ()),
    (weight_ring, "product_multiplicity_table", "weight_ring.product_multiplicity_table",
     None, ()),
    (weight_ring, "class_product_oracle", "weight_ring.class_product_oracle", None, ()),
    (ssets, "count_theorem_checks", "ssets.count_theorem_checks", None, ()),
    (ssets, "complete_maximal", "ssets.complete_maximal", None, ()),
    (autocorr, "verify_identities", "autocorr.verify_identities", None, ()),
    (autocorr, "random_identity_trials", "autocorr.random_identity_trials", None, ()),
    (hadamard, "exhaustive_structured_search", "hadamard.exhaustive_structured_search",
     None, (_add("hadamard.exhaustive_structured_search.candidates",
                 lambda r: r["candidates"]),
            _add("hadamard.exhaustive_structured_search.hits", lambda r: len(r["hits"])))),
    (hadamard, "search_circulant_hadamard", "hadamard.search_circulant_hadamard", None,
     (_add("hadamard.search_circulant_hadamard.candidates_tested",
           lambda r: r.candidates_tested),)),
    (hadamard, "search_circulant_bruteforce", "hadamard.search_circulant_bruteforce",
     None, ()),
    (hadamard, "exhaustive_core_partition_search",
     "hadamard.exhaustive_core_partition_search", None, ()),
    (hadamard, "normalize_into_complete", "hadamard.normalize_into_complete", None,
     (_add("hadamard.normalize_into_complete.scanned", lambda r: r[1].scanned),)),
    (hadamard, "border_core", "hadamard.border_core", None, ()),
    (reproduce, "run_all", "reproduce.run_all", None, ()),
    (reproduce, "write_reports", "reproduce.write_reports", None, ()),
    (cli, "main", "cli.main", None, ()),
] + [
    (reproduce, fn, f"reproduce.c{i:02d}", None, ()) for i, fn in enumerate(CRITERIA, 1)
]

# Per-candidate functions: counted, never spanned.  hadamard binds
# flat_offpeak by name at import, so that binding is patched as well.
COUNTED = [
    (autocorr, "flat_offpeak", "autocorr.flat_offpeak"),
    (hadamard, "flat_offpeak", "autocorr.flat_offpeak"),
    (hadamard, "is_hadamard", "hadamard.is_hadamard"),
    (ssets, "find_complete_ssets", "ssets.find_complete_ssets"),
]

# Inclusive times reported per function, besides the per-layer self times.
TIMED = (
    "orbits.census", "orbits.invariance_check", "orbits.fd_partition",
    "orbits.square_freeness_check", "orbits.classify",
    "weight_ring.verify_ring", "weight_ring.product_multiplicity_table",
    "weight_ring.class_product_oracle", "ssets.count_theorem_checks",
    "autocorr.verify_identities", "autocorr.random_identity_trials",
    "hadamard.exhaustive_structured_search", "hadamard.search_circulant_hadamard",
    "hadamard.normalize_into_complete",
) + tuple(f"reproduce.c{i:02d}" for i in range(1, 13))

CALLS = ("orbits.classify", "weight_ring.product_multiplicity_table",
         "ssets.find_complete_ssets", "autocorr.flat_offpeak", "hadamard.is_hadamard")

COUNTS = ("orbits.square_freeness_check.checked",
          "hadamard.exhaustive_structured_search.candidates",
          "hadamard.search_circulant_hadamard.candidates_tested",
          "hadamard.normalize_into_complete.scanned")


def metric_names() -> list[str]:
    """Every per-layer metric, in the order BENCHMARK.json lists them."""
    names = [f"{layer}.{kind}" for layer in LAYERS for kind in ("calls", "self_s", "failed")]
    names += [f"orbits.canonical_array.{key}.s" for key in CANON_KEYS]
    names += [f"{name}.s" for name in TIMED]
    names += [f"{name}.calls" for name in CALLS]
    names += list(COUNTS)
    names += ["hadamard.exhaustive_structured_search.hit_ratio", "trace.overhead_ratio"]
    return names


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, pass_id, label]
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.pass_id: int | None = None  # recording only while set
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ patching

    def install(self) -> None:
        for module, attr, name, label, hooks in SPANNED:
            self._patch(module, attr, self._spanned(getattr(module, attr), name, label, hooks))
        for module, attr, name in COUNTED:
            self._patch(module, attr, self._counted(getattr(module, attr), name))

    def remove(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _patch(self, module, attr: str, wrapper) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def _spanned(self, fn, name: str, label, hooks):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.pass_id is None:
                return fn(*args, **kwargs)
            stack = tracer._stack
            span = [name, time.perf_counter(), None, stack[-1] if stack else None,
                    tracer.pass_id, label(args, kwargs) if label else None]
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            counts = tracer.counts[tracer.pass_id]
            counts[name + ".calls"] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            for hook in hooks:
                hook(counts, result)
            return result

        return wrapper

    def _counted(self, fn, name: str):
        tracer = self
        key = name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.pass_id is not None:
                tracer.counts[tracer.pass_id][key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # ----------------------------------------------------------- summaries

    def pass_metrics(self, pass_id: int) -> dict[str, float]:
        """Per-layer metrics of one traced pass."""
        spans = [(i, s) for i, s in enumerate(self.spans) if s[4] == pass_id]
        child_time: Counter = Counter()
        for _, (_, start, end, parent, _, _) in spans:
            if parent is not None:
                child_time[parent] += end - start
        out: Counter = Counter()
        counts = self.counts[pass_id]
        for i, (name, start, end, _, _, label) in spans:
            layer = name.split(".")[0]
            out[f"{layer}.self_s"] += end - start - child_time[i]
            out[f"{name}.s"] += end - start
            if label is not None:
                out[f"{name}.{label}.s"] += end - start
        for name, value in counts.items():
            out[name] += value
            if name.endswith(".calls"):
                out[name.split(".")[0] + ".calls"] += value
        candidates = out["hadamard.exhaustive_structured_search.candidates"]
        out["hadamard.exhaustive_structured_search.hit_ratio"] = (
            out["hadamard.exhaustive_structured_search.hits"] / candidates if candidates else 0.0
        )
        return out

    def summary(self, overhead_ratio: float) -> dict[str, float]:
        """Median over traced passes of each per-layer metric.

        ``<layer>.failed`` counts the failed ops of that layer, which the
        harness adds to ``counts`` when it checks a traced pass.
        """
        per_pass = [self.pass_metrics(p) for p in sorted(self.counts)]
        out = {name: statistics.median([m[name] for m in per_pass] or [0])
               for name in metric_names()}
        out["trace.overhead_ratio"] = overhead_ratio
        return out

    def write(self, path) -> None:
        keys = ("name", "start", "end", "parent", "pass_id", "label")
        path.write_text(json.dumps([dict(zip(keys, s)) for s in self.spans]) + "\n")
