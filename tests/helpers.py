"""Independent reference implementations.

The string oracles work directly on '+'/'-' strings with explicit index
arithmetic, the group oracle closes position tuples over the generators,
the period oracle works on uint64 word arrays with its own rotations, and
the scalar search oracles on one Python int per candidate; all
deliberately share no code with the packed-array implementations under
test.  The census oracle is the exception: it counts on the library's
2^n orbit table, the other engine, which `census` no longer uses.
"""

import tracemalloc
from functools import lru_cache
from itertools import combinations, product
from math import gcd

import numpy as np

from z2schur import orbits
from z2schur.hadamard import SignMatrix, core_partition_verdict, partition_parity_verdict
from z2schur.sequences import decimation_perm, divisors, fixed_words, units


def str_rotate(s: str, i: int) -> str:
    n = len(s)
    i %= n
    return "".join(s[(j + i) % n] for j in range(n))


def str_reverse(s: str) -> str:
    return s[::-1]


def str_decimate(s: str, r: int) -> str:
    n = len(s)
    return "".join(s[(r * j) % n] for j in range(n))


def str_permute(s: str, perm) -> str:
    # Position j of the image reads position perm[j].
    return "".join(s[p] for p in perm)


def str_product(s: str, t: str) -> str:
    return "".join("+" if a == b else "-" for a, b in zip(s, t, strict=True))


def str_negate(s: str) -> str:
    return "".join("-" if c == "+" else "+" for c in s)


def str_cross(s: str, t: str, k: int) -> int:
    n = len(s)
    vs = [1 if c == "+" else -1 for c in s]
    vt = [1 if c == "+" else -1 for c in t]
    return sum(vs[j] * vt[(j + k) % n] for j in range(n))


def str_autocorr(s: str, k: int) -> int:
    return str_cross(s, s, k)


def str_period(s: str) -> int:
    n = len(s)
    for d in range(1, n + 1):
        if n % d == 0 and all(s[j] == s[(j + d) % n] for j in range(n)):
            return d
    return n


def peak_traced_mb(fn) -> float:
    """The traced peak of the second call of fn, in MiB.  numpy reports its
    buffers to tracemalloc; the warm-up call fills the caches first."""
    fn()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def cyclic_orbit(s: str) -> set[str]:
    return {str_rotate(s, i) for i in range(len(s))}


def circulant(s: str) -> SignMatrix:
    """Row i holds s shifted right by i: entry (i, j) is s[(j - i) mod n]."""
    return SignMatrix.from_rows([str_rotate(s, -i) for i in range(len(s))])


def class_members_recursive(n: int, k: int):
    """Packed members of G_n(k), the words with k '+' signs, by the prefix
    decomposition G_n(k) = +G_{n-1}(k-1) | -G_{n-1}(k)."""
    if k < 0 or k > n:
        return
    if n == 0:
        yield 0
        return
    yield from class_members_recursive(n - 1, k - 1)  # '+' prefix, top bit 0
    for tail in class_members_recursive(n - 1, k):
        yield (1 << (n - 1)) | tail  # '-' prefix


# ---------------------------------------------------- weight ring oracle
# Products of weight classes by the XOR outer product of their member
# lists, counted by bincount: no transform and no closed form.

def xor_word_counts(xs: np.ndarray, ys: np.ndarray, size: int) -> np.ndarray:
    """The multiplicity of every word below size in the multiset
    {x XOR y : x in xs, y in ys} of int64 words."""
    return np.bincount((xs[:, None] ^ ys[None, :]).ravel(), minlength=size)


def cell_product_range(xs: np.ndarray, ys: np.ndarray, order: np.ndarray,
                       starts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per cell of `weight_ring.group_cells`, the least and greatest
    multiplicity of its words in the XOR multiset of xs and ys.

    The cells are never empty, which `reduceat` relies on: an empty cell
    would repeat a start and read its neighbour's first count."""
    counts = xor_word_counts(xs, ys, order.size)[order]
    return np.minimum.reduceat(counts, starts), np.maximum.reduceat(counts, starts)


def class_array(n: int, k: int) -> np.ndarray:
    """The members of G_n(k) as int64 words; empty for k = -1."""
    return np.array(words_of_weight(n, k), dtype=np.int64)


def product_word_counts(n: int, a: int, b: int) -> np.ndarray:
    """The multiplicity of every word of Z_2^n in G_n(a) * G_n(b)."""
    return xor_word_counts(class_array(n, a), class_array(n, b), 1 << n)


@lru_cache(maxsize=None)
def product_table(n: int, a: int, b: int) -> tuple[int, ...]:
    """The multiplicity of each weight class in G_n(a) * G_n(b), checked
    uniform over the class."""
    weight = n - np.bitwise_count(np.arange(1 << n))
    order = np.argsort(weight, kind="stable")
    starts = np.searchsorted(weight[order], np.arange(n + 1))
    lo, hi = cell_product_range(class_array(n, a), class_array(n, b), order, starts)
    assert (lo == hi).all(), (n, a, b)
    return tuple(lo.tolist())


# --------------------------------------------------------- group oracle

@lru_cache(maxsize=None)
def group_closure(n: int, group: str) -> tuple[tuple[int, ...], ...]:
    """Every position permutation of the named group, sorted, closed from
    its generators: C the shift, H the reversal, D the decimations.
    Position j of an image reads position perm[j]."""
    gens = []
    if "C" in group:
        gens.append(tuple((j + 1) % n for j in range(n)))
    if "H" in group:
        gens.append(tuple(n - 1 - j for j in range(n)))
    if "D" in group:
        gens += [tuple(r * j % n for j in range(n))
                 for r in range(2, n) if gcd(r, n) == 1]
    ident = tuple(range(n))
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = tuple(p[g[j]] for j in range(n))
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    return tuple(sorted(seen))


def conjugates_walk(n: int, pairs, h: tuple[int, int]) -> tuple[tuple[int, int], ...]:
    """The distinct g h g^-1 over every pair g of a group, sorted.  Each
    pair (a, t) is the map j -> a (j + t) on Z_n; the conjugate is composed
    as maps and read back as a pair from its values at 0 and 1."""
    u, s = h

    def apply(a, t, j):
        return a * (j + t) % n

    found = set()
    for a, t in pairs:
        a_inv = pow(a, -1, n)
        at = [apply(a, t, apply(u, s, apply(a_inv, -t * a % n, j))) for j in (0, 1 % n)]
        assert (at[1] - at[0] - u) % n == 0
        found.add((u, at[0] * pow(u, -1, n) % n))
    return tuple(sorted(found))


# ------------------------------------------------------- period oracle

def rotate_words(words: np.ndarray, n: int, i: int) -> np.ndarray:
    """rotate(X, i), 0 < i < n, for every packed word in a uint64 array."""
    mask = np.uint64((1 << n) - 1)
    return ((words << np.uint64(i)) | (words >> np.uint64(n - i))) & mask


def word_periods(words: np.ndarray, n: int) -> np.ndarray:
    """The exact rotation period of every packed word in a uint64 array:
    rotate(X, d) = X exactly when the period divides d, so walking the
    divisors downwards and overwriting leaves the least one."""
    period = np.full(words.shape, n)
    for d in range(n - 1, 0, -1):
        if n % d == 0:
            period[rotate_words(words, n, d) == words] = d
    return period


def period_tally(n: int) -> dict[int, int]:
    """Rotation orbits per exact period d: the period of each of the 2^n
    words, tallied, and every d words of period d make one orbit."""
    counts = np.zeros(n + 1, dtype=np.int64)
    size = 1 << n
    for start in range(0, size, 1 << 16):
        block = np.arange(start, min(start + (1 << 16), size), dtype=np.uint64)
        counts += np.bincount(word_periods(block, n), minlength=n + 1)
    return {d: int(counts[d]) // d for d in range(1, n + 1) if n % d == 0}


# ------------------------------------------------------- census oracle

def table_census(n: int, group: str) -> dict:
    """`orbits.census` counted on the 2^n orbit table: rows by the table's
    per-orbit periods and symmetry flags, and an orbit d_r-invariant when
    the table finds a d_r-fixed word in it."""
    t = orbits._orbit_table(n, group)
    reps, periods, sym, asym = t["reps"], t["periods"], t["sym"], t["asym"]
    rows = []
    for d in divisors(n):
        m = periods == d
        if m.any():
            rows.append({"period": d, "count": int(m.sum()),
                         "sym": int((m & sym).sum()), "asym": int((m & asym).sum())})
    return {
        "n": n,
        "group": group,
        "total": int(reps.size),
        "by_period": {row["period"]: row["count"] for row in rows},
        "rows": rows,
        "sym": int(sym.sum()),
        "asym": int(asym.sum()),
        "nonsym": int((~sym & ~asym).sum()),
        "delta_invariant": {
            r: int(orbits._meets(t, fixed_words(n, decimation_perm(n, r))).sum())
            for r in units(n) if r != 1
        },
    }


# ------------------------------------------ scalar Hadamard search oracles
#
# The per-candidate loops the array searches replaced: every candidate is
# one Python int, joined by concat_bits and tested shift by shift.  Only
# the verdicts, which are arithmetic, come from z2schur.hadamard.

_BIT_SIGNS = str.maketrans("01", "+-")


def concat_bits(blocks, width: int) -> int:
    """Packed concatenation of width-bit blocks, the first block leftmost."""
    bits = 0
    for block in blocks:
        bits = (bits << width) | block
    return bits


def words_of_weight(width: int, a: int) -> list[int]:
    """The packed words with a '+' signs, i.e. width - a set bits, ascending."""
    return sorted(sum(1 << p for p in c) for c in combinations(range(width), width - a))


def _flat_words(candidates, n: int, level: int) -> tuple[int, list[int]]:
    # How many candidates there were, and those with P(k) = level at every
    # k != 0, in order.  The loop is inlined: it runs millions of times.
    target, mask, shifts = (n - level) // 2, (1 << n) - 1, range(1, n // 2 + 1)
    parity_miss = n > 1 and (n - level) % 2
    seen, flat = 0, []
    for bits in candidates:
        seen += 1
        if parity_miss:
            continue
        for k in shifts:
            if (bits ^ ((bits << k | bits >> (n - k)) & mask)).bit_count() != target:
                break
        else:
            flat.append(bits)
    return seen, flat


def scalar_structured_search(n: int, r: int, a: int, kind: str) -> dict:
    """exhaustive_structured_search, one candidate at a time."""
    v = partition_parity_verdict(n, r, a, kind)
    block, order = 2 * n, 4 * n * r
    mask = (1 << block) - 1
    members = words_of_weight(block, a)
    if kind in ("plain", "alt"):
        factors = [[b ^ mask for b in members] if kind == "alt" and i % 2 else members
                   for i in range(2 * r)]
        tuples = product(*factors)
    else:
        flip = mask if kind == "asym" else 0
        tuples = ((b, int(format(b, f"0{block}b")[::-1], 2) ^ flip) for b in members)
    candidates, hits = _flat_words((concat_bits(t, block) for t in tuples), order, 0)
    return {"n": n, "r": r, "a": a, "kind": kind, "order": order,
            "verdict": v.verdict, "candidates": candidates,
            "hits": [format(h, f"0{order}b").translate(_BIT_SIGNS) for h in hits],
            "consistent": not (v.excluded and hits)}


def scalar_core_partition_search(n: int, r: int) -> dict:
    """exhaustive_core_partition_search, one candidate at a time."""
    v = core_partition_verdict(n, r)
    p = n * r
    minus = (p + 1) // 2
    cores = [concat_bits(t, n) for a in range(n + 1)
             for t in product(words_of_weight(n, a), repeat=r)]
    _, hits = _flat_words((c for c in cores if c.bit_count() == minus), p, -1)
    return {"n": n, "r": r, "core_length": p, "verdict": v.verdict,
            "candidates": len(cores),
            "hits": [format(h, f"0{p}b").translate(_BIT_SIGNS) for h in hits],
            "consistent": not (v.excluded and hits)}
