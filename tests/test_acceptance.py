"""Full-depth acceptance run, one test per bundled criterion.

Each test drives the corresponding reproduce.criterion_* function at its
full stated depth (no max_n) and checks the criterion's verdict against
an independent oracle.  Ten criteria compare the package with their own
enumeration oracles, so their tests expect a clean pass.  Criteria 3 and
6 check classical claims that exhaustive enumeration refutes; their tests
compute the exact refutation themselves and check verdict, counts and
witnesses against it, so a report that loses, gains or changes a witness
fails:

* criterion 3, the "two complete S-sets" count rule.  For n - a even the
  candidate members are the weights b in [(n-a)/2, (n+a)/2], and b, c are
  joined iff b = c (mod 2) and |b - c| <= n - a.  Each parity class is an
  arithmetic progression of step 2, so it is one clique iff its span is at
  most n - a, and otherwise splits into overlapping windows.  Counting the
  windows, the rule fails exactly when 0 < a < n, n - a is even and
  2a > n + (a mod 2), and there are then 2a - n + 1 sets instead of two
  (first at (n, a) = (6, 4)).
* criterion 6, "for odd n, x free implies x * C^a x free".  A brute force
  over packed integers, sharing no code with the package, counts every
  failing (x, a).  Odd prime powers and every even n are clean; n = 15 is
  not (x = "++++++--+---+--", a = 3 gives a product of period 5).  The
  report keeps at most ten witnesses per offset, and its check count is
  sum free(n) * (n - 1) over odd n plus sum free(n) over even n, where
  free(n) = 2^n minus free(d) over the proper divisors d of n, which by
  Moebius inversion is sum over d | n of mu(d) * 2^(n/d).

The last tests bound the memory of a `--max-n 16` pass, criterion by
criterion, and fake the suite's one clock to check that the time budgets,
not only the checks, decide pass or fail.
"""

import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from helpers import peak_traced_mb, str_period, str_product, str_rotate

from z2schur import reproduce as rp
from z2schur import ssets


def _show(result):
    passed, details = result
    return passed, json.dumps(details, default=str)[:2000]


def test_criterion_01_class_products():
    passed, details = rp.criterion_class_products()
    assert passed, f"class product counterexamples: {details['counterexamples'][:5]}"


def test_criterion_02_structure_constants():
    passed, details = rp.criterion_structure_constants()
    assert passed, f"structure constant counterexamples: {details['counterexamples'][:5]}"


def _count_rule_failures(max_n):
    """(n, a) pairs, in scan order, where the two-set rule miscounts."""
    return [
        (n, a)
        for n in range(1, max_n + 1)
        for a in range(n + 1)
        if 0 < a < n and (n - a) % 2 == 0 and 2 * a > n + a % 2
    ]


def test_criterion_03_complete_ssets():
    passed, details = rp.criterion_complete_ssets()
    assert details["examples_ok"], f"worked examples broken: {details['examples']}"
    rule = details["count_rule"]
    assert rule["max_n"] == 16
    assert rule["checked"] == sum(n + 1 for n in range(1, 17))
    expected = _count_rule_failures(16)
    witnesses = [tuple(w) for w in rule["witnesses"]]
    assert witnesses == expected, f"count rule witnesses {witnesses}, expected {expected}"
    assert rule["violation_count"] == len(expected)
    counts = [
        (v["n"], v["a"], v["predicted_count"], v["found_count"])
        for v in ssets.count_theorem_checks(16)["violations"]
    ]
    assert counts == [(n, a, 2, 2 * a - n + 1) for n, a in expected]
    assert passed == (details["examples_ok"] and not expected)


def test_criterion_04_orbit_counts():
    passed, details = _show(rp.criterion_orbit_counts())
    assert passed, f"orbit count mismatches: {details}"


def test_criterion_05_invariance():
    passed, details = rp.criterion_invariance()
    assert passed, f"decimation broke a classification: {details['violations'][:5]}"


def _aperiodic_count(n):
    """Sequences of length n with full period: 2^n less those of each proper period."""
    return (1 << n) - sum(_aperiodic_count(d) for d in range(1, n) if n % d == 0)


def _is_odd_prime_power(n):
    p = next(p for p in range(2, n + 1) if n % p == 0)
    while n % p == 0:
        n //= p
    return p > 2 and n == 1


def _freeness_failures(n):
    """{a: number of free x whose square x * C^a x breaks the claim}.

    Odd n: the product must be free.  Even n: at a = n/2 the product must
    be nonzero and fixed by the half-turn.  Works on all 2^n packed words.
    """
    mask = (1 << n) - 1

    def rot(v, k):
        return ((v << k) | (v >> (n - k))) & mask

    def aperiodic(v):
        ok = np.ones(v.shape, dtype=bool)
        for d in range(1, n):
            if n % d == 0:
                ok &= rot(v, d) != v
        return ok

    words = np.arange(1 << n, dtype=np.int64)
    free = words[aperiodic(words)]
    if n % 2:
        return {a: int(np.count_nonzero(~aperiodic(free ^ rot(free, a)))) for a in range(1, n)}
    half = n // 2
    y = free ^ rot(free, half)
    return {half: int(np.count_nonzero((rot(y, half) != y) | (y == 0)))}


def test_criterion_06_freeness():
    passed, details = rp.criterion_freeness()
    assert details["max_n"] == 17
    lengths = range(2, 18)
    assert details["checked"] == sum(
        _aperiodic_count(n) * (n - 1 if n % 2 else 1) for n in lengths
    )
    expected = Counter()
    for n in lengths:
        for a, count in _freeness_failures(n).items():
            if count:
                expected[n, a] = min(10, count)
    violations = details["violations"]
    got = Counter((len(v["x"]), v["a"]) for v in violations)
    assert got == expected, f"witnesses per (n, a) {dict(got)}, expected {dict(expected)}"
    assert len({(v["x"], v["a"]) for v in violations}) == len(violations)
    for v in violations:
        x, n = v["x"], len(v["x"])
        assert str_period(x) == n, v
        assert str_period(str_product(x, str_rotate(x, v["a"]))) < n, v
    assert all(n % 2 and not _is_odd_prime_power(n) for n, _ in expected)
    assert {"x": "++++++--+---+--", "a": 3} in violations
    assert passed == (not expected)


def test_criterion_07_autocorr():
    passed, details = rp.criterion_autocorr()
    assert passed, f"autocorrelation identity violations: {details['violations'][:5]}"


def test_criterion_08_circulant_search():
    passed, details = rp.criterion_circulant_search()
    assert passed, (
        f"order 4: {details[4]}, order 16 candidates: "
        f"{details[16]['candidates_tested']} in {details['order16_seconds']}s, "
        f"crosscheck: {details['bruteforce_crosscheck']}"
    )


def test_criterion_08_searches_each_order_once(monkeypatch):
    searched = Counter()
    search = rp.hadamard.search_circulant_hadamard

    def spy(n):
        searched[n] += 1
        return search(n)

    monkeypatch.setattr(rp.hadamard, "search_circulant_hadamard", spy)
    rp.criterion_circulant_search()
    assert searched == Counter({n: 1 for n in (1, 2, 4, 8, 12, 16, 20, 24, 28, 32)})


def test_criterion_09_paley_pipeline():
    passed, details = _show(rp.criterion_paley_pipeline())
    assert passed, f"quadratic-residue pipeline broke: {details}"


def test_criterion_10_builtin_h12():
    passed, details = _show(rp.criterion_builtin_h12())
    assert passed, f"order-12 normalization broke: {details}"


def test_criterion_11_partition_verdicts():
    passed, details = _show(rp.criterion_partition_verdicts())
    assert passed, f"a parity verdict disagreed with enumeration: {details}"


def test_criterion_12_core_verdicts():
    passed, details = _show(rp.criterion_core_verdicts())
    assert passed, f"a core verdict disagreed with enumeration: {details}"


@pytest.mark.parametrize("number", range(1, 13))
def test_a_max_n_16_pass_stays_in_cache_sized_blocks(number):
    """Each criterion of run_all(16), called from its _criteria row, peaks
    below 1.5 MB traced: the ring in 128 KB batches, the trials in 2^13
    entry blocks.  Criterion 1 read 3.1 MB with 8 MB ring batches."""
    _, _, check, args = rp._criteria(16)[number - 1]
    assert peak_traced_mb(lambda: check(*args)) < 1.5


def test_a_max_n_16_pass_leaves_numpy_fft_unloaded():
    """Up to n = 64 the randomized trials run on packed words, so a pass
    at --max-n 16, whose trials are at n = 32 and 64, never loads the FFT."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    code = ("import sys; from z2schur import reproduce; "
            "print(reproduce.run_all(16)['criteria'][6].passed, 'numpy.fft' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == ["True", "False"]


# The budget of each criterion that reports one, in seconds.  Criterion
# 8 holds its order-16 search to 1 s and reports order16_seconds only.
BUDGETS = {1: 30.0, 2: 60.0, 3: 5.0, 9: 5.0, 11: 120.0, 12: 60.0}


@pytest.mark.parametrize("reading, failing", [
    (1000.0, [1, 2, 3, 8, 9, 11, 12]),
    (5.0, [3, 8, 9]),  # at the budget of 3 and 9; 1 and 2 sum four calls
    (1.0, [8]),  # at criterion 8's 1 s budget
])
def test_budgets_decide_pass_or_fail(monkeypatch, reading, failing):
    """Every timed call reads `reading` seconds, at a depth where every
    check passes: exactly the criteria at or over their budgets fail."""
    monkeypatch.setattr(rp, "timed", lambda fn, *a, **kw: (fn(*a, **kw), reading))
    results = rp.run_all(4)["criteria"]
    assert [r.number for r in results if not r.passed] == failing
    assert {r.runtime_ms for r in results} == {int(reading * 1000)}
    details = {r.number: r.details for r in results}
    timed = {n: details[n] for n in (1, 2, 9, 11, 12)}
    timed[3] = details[3]["count_rule"]
    for n, d in timed.items():
        assert d["budget_seconds"] == BUDGETS[n]
        assert (d["seconds"] >= d["budget_seconds"]) == (n in failing), n
    assert details[3]["examples_ok"]
    assert details[8]["order16_seconds"] == reading
