"""End-to-end reproduction of every headline result at desk scale.

Each criterion is one self-contained function returning a pass flag plus
the evidence, with sweep depths capped by an optional max_n so a quick
smoke run stays quick.  Fixed showcase instances (the worked examples,
the built-in order-12 matrix, the quadratic-residue pipeline) always run
regardless of the cap.  The table `_criteria` lists the criteria once,
in order; `run_all` runs them on the package's one clock, `clock.timed`, and
`module_reports` groups the outcomes by module, ready to serialize.  A
budgeted criterion reports `seconds` and `budget_seconds` and fails at
or over its budget.

Two criteria are expected to fail as of this writing, and the checks
report that honestly rather than special-casing it away:

* the bundled count rule for complete S-sets is false once the target
  weight exceeds half the length (first witness n=6, a=4);
* the claim that odd-length free orbits have free squares is false at
  n=15, the first odd length with two coprime nontrivial divisors
  (witness x = "++++++--+---+--", a=3: the product has period 5).
  It does hold at every odd prime power in range.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, fields
from pathlib import Path

from . import autocorr, hadamard, orbits, ssets, weight_ring
from .clock import timed
from .errors import InvalidLength


def _cap(bound: int, max_n: int | None) -> int:
    return bound if max_n is None else min(bound, max_n)


def _budgeted(ok: bool, details: dict, seconds: float, budget_s: float):
    """A criterion's outcome with its time appended: it fails at or over
    budget_s."""
    return ok and seconds < budget_s, {**details, "seconds": round(seconds, 2),
                                       "budget_seconds": budget_s}


def _within(budget_s: float):
    """Time a check returning (ok, details) against budget_s seconds."""
    def decorate(check):
        @functools.wraps(check)
        def timed_check(*args, **kwargs):
            (ok, details), seconds = timed(check, *args, **kwargs)
            return _budgeted(ok, details, seconds, budget_s)
        return timed_check
    return decorate


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    runtime_ms: int
    details: dict

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return f"{tag} criterion {self.number:2d} ({self.runtime_ms} ms): {self.name}"

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


# ------------------------------------------------------------- criteria

def _ring_sweep(cap: int, budget_s: float, kinds: tuple[str, ...],
                sweep: dict | None = None):
    """verify_ring at every n <= cap, keeping the counterexamples of the
    given kinds; passes when there are none and the sweep beat its budget.

    `sweep` maps n to (verify_ring(n), the seconds that call took).  An n
    missing from it is run and added, so criteria sharing one dict (as
    criteria 1 and 2 do in `run_all`) run each verify_ring(n) once.
    Either way `seconds` is the time of the verify_ring calls behind the
    reports read, n = 1..cap, not the time it took to read them."""
    sweep = {} if sweep is None else sweep
    for n in range(1, cap + 1):
        if n not in sweep:
            sweep[n] = timed(weight_ring.verify_ring, n)
    read = [sweep[n] for n in range(1, cap + 1)]
    counterexamples = [c for rep, _ in read for c in rep["counterexamples"]
                       if c["kind"] in kinds]
    return _budgeted(not counterexamples,
                     {"max_n": cap, "counterexamples": counterexamples},
                     sum((seconds for _, seconds in read), 0.0), budget_s)


def criterion_class_products(max_n: int | None = None, sweep: dict | None = None):
    return _ring_sweep(_cap(12, max_n), 30.0, ("product",), sweep)


def criterion_structure_constants(max_n: int | None = None, sweep: dict | None = None):
    return _ring_sweep(_cap(10, max_n), 60.0, ("product", "lambda"), sweep)


EXPECTED_COMPLETE = {
    (4, 2): [("even", (2,)), ("odd", (1, 3))],
    (8, 4): [("even", (2, 4, 6)), ("odd", (3, 5))],
    (12, 6): [("even", (4, 6, 8)), ("odd", (3, 5, 7, 9))],
}


def criterion_complete_sset_examples():
    mismatches = {}
    for (n, a), want in EXPECTED_COMPLETE.items():
        got = [(s.parity, s.members) for s in ssets.find_complete_ssets(n, a)]
        if got != want:
            mismatches[f"({n},{a})"] = got
    return not mismatches, {"instances": sorted(EXPECTED_COMPLETE), "mismatches": mismatches}


@_within(5.0)
def criterion_count_rule(max_n: int | None = None):
    cap = _cap(16, max_n)
    rep = ssets.count_theorem_checks(cap)
    witnesses = [(v["n"], v["a"]) for v in rep["violations"]]
    return not witnesses, {
        "max_n": cap,
        "checked": rep["checked"],
        "violation_count": len(witnesses),
        "witnesses": witnesses,
    }


def criterion_complete_ssets(max_n: int | None = None):
    ex_ok, ex = criterion_complete_sset_examples()
    rule_ok, rule = criterion_count_rule(max_n)
    return ex_ok and rule_ok, {"examples": ex, "examples_ok": ex_ok,
                               "count_rule": rule, "count_rule_ok": rule_ok}


def criterion_orbit_counts(max_n: int | None = None):
    import numpy as np

    def orbit_total(n, group):
        # Distinct canonical words, marked in place of a sort.
        seen = np.zeros(1 << n, dtype=bool)
        seen[orbits.canonical_array(n, group)] = True
        return int(np.count_nonzero(seen))

    cap = _cap(20, max_n)
    mismatches = []
    for n in range(1, cap + 1):
        total = orbit_total(n, "C")
        formula = orbits.necklace_count(n)
        layers = orbits.fd_partition_check(n)
        if total != formula or not layers["mass_ok"] or not layers["formula_ok"]:
            mismatches.append({"n": n, "total": total, "formula": formula,
                               "mass_ok": layers["mass_ok"],
                               "formula_ok": layers["formula_ok"]})
    small_burnside = []
    for n in range(1, min(cap, 12) + 1):
        for group in orbits.GROUPS:
            t = orbit_total(n, group)
            b = orbits.burnside_count(n, group)
            if t != b:
                small_burnside.append({"n": n, "group": group, "total": t, "burnside": b})
    return not mismatches and not small_burnside, {
        "max_n": cap,
        "cyclic_mismatches": mismatches,
        "all_group_mismatches": small_burnside,
    }


def criterion_invariance(max_n: int | None = None):
    cap = _cap(16, max_n)
    violations = []
    for n in range(2, cap + 1):
        rep = orbits.invariance_check(n)
        violations += rep["violations"]
    return not violations, {"max_n": cap, "violations": violations}


def criterion_freeness(max_n: int | None = None):
    cap = _cap(17, max_n)
    violations = []
    checked = 0
    for n in range(2, cap + 1):
        rep = orbits.square_freeness_check(n)
        violations += rep["violations"]
        checked += rep["checked"]
    return not violations, {"max_n": cap, "checked": checked, "violations": violations}


def criterion_autocorr(max_n: int | None = None, seed: int = 0):
    cap = _cap(14, max_n)
    violations = []
    for n in range(1, cap + 1):
        violations += autocorr.verify_identities(n)["violations"]
    random_reports = []
    for n in (32, 64):
        rep = autocorr.random_identity_trials(n, trials=1000, seed=seed)
        random_reports.append({"n": n, "ok": rep["ok"], "trials": rep["trials"],
                               "seed": seed})
        violations += rep["violations"]
    return not violations, {"max_n": cap, "violations": violations,
                            "randomized": random_reports}


def criterion_circulant_search():
    budget_s = 1.0
    searched = {n: hadamard.search_circulant_hadamard(n) for n in (4, 8, 12, 20, 24, 28, 32)}
    results = {n: s.as_dict() for n, s in searched.items()}
    s4 = searched[4]
    ok = s4.found == ("+++-", "+---") and s4.feasible_weights == (1, 3)
    for n in (8, 12, 20, 24, 28, 32):
        ok &= searched[n].found == () and searched[n].candidates_tested == 0
    s16, elapsed = timed(hadamard.search_circulant_hadamard, 16)
    results[16] = s16.as_dict()
    ok &= s16.found == () and s16.candidates_tested == 16016 and elapsed < budget_s
    results["order16_seconds"] = round(elapsed, 3)
    cross = {}
    for n in (1, 2, 4, 8, 12):
        brute = hadamard.search_circulant_bruteforce(n)
        pruned = (searched[n] if n in searched else hadamard.search_circulant_hadamard(n)).found
        cross[n] = {"bruteforce": list(brute), "pruned": list(pruned)}
        ok &= brute == pruned
    results["bruteforce_crosscheck"] = cross
    return ok, results


PALEY_PRIMES = (3, 7, 11, 19, 23)


@_within(5.0)
def criterion_paley_pipeline():
    ok = True
    rows = []
    for p in PALEY_PRIMES:
        core = hadamard.paley_core(p)
        core_ok = core.weight == (p - 1) // 2 and autocorr.flat_offpeak(core, -1)
        border = hadamard.border_core(core)
        border_ok = hadamard.is_hadamard(border)
        _, rep = hadamard.normalize_into_complete(border)
        contained = set(rep.row_weights) <= set(rep.sset_members)
        ok &= core_ok and border_ok and contained
        rows.append({"p": p, "core": str(core), "core_ok": core_ok,
                     "border_ok": border_ok, "signs": rep.signs,
                     "sset_parity": rep.sset_parity,
                     "row_weights": sorted(set(rep.row_weights))})
    return ok, {"primes": list(PALEY_PRIMES), "rows": rows}


def criterion_builtin_h12():
    mat = hadamard.BUILTIN_H12
    weights = sorted({mat.row(i).weight for i in range(mat.m)})
    normalized, rep = hadamard.normalize_into_complete(mat)
    ok = (
        hadamard.is_hadamard(mat)
        and weights == [1, 7]
        and hadamard.is_hadamard(normalized)
        and rep.sset_parity == "even"
        and rep.sset_members == (4, 6, 8)
        and set(rep.row_weights) <= {4, 6, 8}
    )
    return ok, {"input_weights": weights, "signs": rep.signs,
                "row_weights": sorted(set(rep.row_weights)),
                "sset_members": list(rep.sset_members)}


@_within(120.0)
def criterion_partition_verdicts(max_n: int | None = None):
    order_cap = _cap(16, max_n if max_n is None else 4 * max_n)
    sweeps = []
    ok = True
    for n in range(1, order_cap // 4 + 1):
        for r in range(1, order_cap // (4 * n) + 1):
            for kind in ("plain", "alt"):
                for a in range(2 * n + 1):
                    rep = hadamard.exhaustive_structured_search(n, r, a, kind)
                    ok &= rep["consistent"]
                    if rep["verdict"] == hadamard.VERDICT_EXCLUDED or rep["hits"]:
                        sweeps.append(rep)
    for n in range(1, order_cap // 4 + 1):
        for kind in ("sym", "asym"):
            for a in range(2 * n + 1):
                rep = hadamard.exhaustive_structured_search(n, 1, a, kind)
                ok &= rep["consistent"]
                if rep["verdict"] == hadamard.VERDICT_EXCLUDED or rep["hits"]:
                    sweeps.append(rep)
    excluded = sum(1 for s in sweeps if s["verdict"] == hadamard.VERDICT_EXCLUDED)
    return ok, {
        "order_cap": order_cap,
        "excluded_cases": excluded,
        "inconsistent": [s for s in sweeps if not s["consistent"]],
    }


@_within(60.0)
def criterion_core_verdicts(max_n: int | None = None):
    cap = _cap(31, max_n)
    ok = True
    verdicts = []
    for p in range(3, cap + 1, 4):
        for r in range(2, p + 1):
            if p % r:
                continue
            v = hadamard.core_partition_verdict(p // r, r)
            verdicts.append({"n": p // r, "r": r, "verdict": v.verdict})
            ok &= v.excluded
    sweep = hadamard.exhaustive_core_partition_search(5, 3)
    ok &= sweep["candidates"] == 2252 and not sweep["hits"] and sweep["consistent"]
    return ok, {
        "core_length_cap": cap,
        "verdicts": verdicts,
        "length15_sweep": {k: sweep[k] for k in ("candidates", "hits", "consistent")},
    }


# --------------------------------------------------------------- runner

def _criteria(max_n: int | None = None, seed: int = 0, ring: dict | None = None):
    """Criterion k on row k: (module report, title, function, arguments).
    Built per call, so each function is read from the module, where the
    benchmark tracer wraps it, when the suite runs."""
    return [
        ("weight_ring", "class products match the enumeration oracle",
         criterion_class_products, (max_n, ring)),
        ("weight_ring", "structure constants match the enumeration oracle",
         criterion_structure_constants, (max_n, ring)),
        ("complete_ssets", "complete S-set examples and the bundled count rule",
         criterion_complete_ssets, (max_n,)),
        ("orbit_actions", "orbit totals match the counting formulas",
         criterion_orbit_counts, (max_n,)),
        ("orbit_actions", "decimations preserve every orbit classification",
         criterion_invariance, (max_n,)),
        ("orbit_actions", "freeness behaviour of orbit squares",
         criterion_freeness, (max_n,)),
        ("autocorr", "autocorrelation identities, exhaustive and randomized",
         criterion_autocorr, (max_n, seed)),
        ("hadamard", "circulant Hadamard search at small orders",
         criterion_circulant_search, ()),
        ("hadamard", "quadratic-residue cores border and normalize cleanly",
         criterion_paley_pipeline, ()),
        ("hadamard", "built-in order-12 matrix lands in the even member set",
         criterion_builtin_h12, ()),
        ("hadamard", "partitioned first-row verdicts confirmed by enumeration",
         criterion_partition_verdicts, (max_n,)),
        ("hadamard", "partitioned core verdicts confirmed by enumeration",
         criterion_core_verdicts, (max_n,)),
    ]


def run_all(max_n: int | None = None, seed: int = 0) -> dict:
    """Run the criteria of `_criteria` in order and collect their results.

    Criteria 1 and 2 share one verify_ring sweep per call: criterion 1
    runs it over n <= 12 (so its runtime_ms holds the sweep) and
    criterion 2 reads the reports for n <= 10.  Nothing is kept from one
    call to the next.
    """
    if max_n is not None and max_n < 1:
        raise InvalidLength(f"max_n must be at least 1, got {max_n}")
    results = []
    for number, (_, title, check, args) in enumerate(_criteria(max_n, seed, {}), 1):
        (passed, details), seconds = timed(check, *args)
        results.append(CriterionResult(number, title, passed, int(seconds * 1000), details))
    return {"criteria": results, "passed": all(r.passed for r in results)}


def module_reports(outcome: dict) -> dict[str, dict]:
    reports = {}
    for (module, *_), result in zip(_criteria(), outcome["criteria"]):
        report = reports.setdefault(module, {"module": module, "passed": True,
                                             "criteria": []})
        report["passed"] = report["passed"] and result.passed
        report["criteria"].append(result.as_dict())
    return reports


def write_reports(outcome: dict, out_dir: str) -> list[str]:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for module, report in module_reports(outcome).items():
        path = out / f"{module}.json"
        path.write_text(json.dumps(report, indent=2) + "\n")
        written.append(str(path))
    return written


def format_lines(outcome: dict) -> list[str]:
    lines = [r.line() for r in outcome["criteria"]]
    n_pass = sum(1 for r in outcome["criteria"] if r.passed)
    lines.append(f"{n_pass}/{len(outcome['criteria'])} criteria passed")
    return lines
