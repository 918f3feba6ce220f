"""Orbits of sign sequences under rotation, reversal, and decimation.

Positions are permuted by three kinds of generators: the cyclic shift
(CX)_j = x_{j+1}, the reversal (RX)_j = x_{n-1-j}, and the decimations
(d_r X)_j = x_{rj} for r coprime to n.  They satisfy

    R C = C^-1 R,    C^i d_r = d_r C^{ir},    d_r R = R d_r C^{r-1},

so any combination generates a position-permutation group of order at
most 2 n phi(n).  Group codes name the generating sets: "C" rotations,
"D" decimations alone, "H" reversal alone, and the joins "DC", "HC"
(the dihedral group), "HDC" (everything).

The first two relations make the rotations C a normal subgroup of every
group that contains them: reversal and decimation permute the rotation
orbits as whole blocks, which is why circulant S-sets are invariant
under decimation.

Every element of these groups is an affine position map j -> u (j + s),
u a unit, which sends x to rotate(d_u x, s); `affine_group` lists each
group as those pairs (u, s) in closed form, with no closure over the
generators.

Orbit enumeration runs three engines.  The scalar engine, `classify`,
handles one orbit at a time, on the pairs: it decides the whole orbit
from x and its decimations d_u x, permuting the string of x once per
unit u and doing the rest with integer rotations.  With the
rotations it builds no member set: by G = C K (K the stabiliser of
position 0, decimations d_m) the orbit is the disjoint union of the
rotation classes of the d_m x, each of size p, the period of x, since
decimation keeps the period, so the rep is the least of their least
rotations and the size is p times the number of distinct ones.  Its
fixed-point flags go by shift residues: if d_u x = rotate(x, s1), then
rotate(d_u x, s) = x exactly when s = -s1 mod p, so x is fixed by some
conjugate (u, s) of the fixing map exactly when -s1 mod p is among the
conjugates' shifts mod p; one lookup among the rotations of x and one in
a cached set, with no walk over the conjugates.  Its closure flags need
no image for a map in the group, and otherwise, with the rotations, |K|
lookups among the rotations of x: h = (u, s) maps the orbit onto itself
exactly when some d_(m^-1 u) x is a rotation of x.  "D" and "H" keep
their |G| images as a set.  The vectorized engine (`canonical_array`), which
the invariance sweeps and the per-word lookups use, canonicalizes every
packed sequence at once by coset decomposition: the rotation canon
first, by word rotations on the words that two necklace symmetries
(x -> x >> 1 for even x, and the left rotation 2x + 1 - 2^n for odd x
with top bit 1) do not already decide, then one table lookup per coset
representative of C, a decimation possibly times a reflection, applied
to the rotation orbits' least members.  canon[x] is the least member q
of x's orbit, so it keys every per-orbit flag with no second table: a
flag lives at q in a 2^n array, and "which orbit holds this word?" is
one gather.  The symmetric, antisymmetric and decimation-invariant
orbits are those that meet Fix(R), the words R negates, or Fix(d_r)
(`sequences.fixed_words`), marked at canon of those words.  Only
`enumerate_orbits` counts orbit sizes.
The stream engine, which `census` and `square_freeness_check` use, holds
no 2^n table: it grows the necklaces (or the Lyndon words) a letter at a
time as prenecklaces, by the fundamental theorem of necklaces of Ruskey,
Savage and Wang, in blocks of at most _CHUNK words with no rotation and
no filter; `census` then filters each block down to the least member of
each orbit, and finds the orbits that the fixed words meet from those
words alone.
Counts go through the stream, lookups through the canon.  Burnside and
necklace counts give third-party totals to check the engines against.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import islice
from math import gcd
from operator import itemgetter

import numpy as np

from .errors import ScaleExceeded
from .sequences import (
    BinarySequence,
    check_positive_length,
    decimation_perm,
    divisors,
    fixed_words,
    perm_cycles,
    permute_bits_array,
    reversal_perm,
    rotate_bits,
    rotate_bits_array,
    units,
)

MAX_ENUM_N = 24
# Words per block of a whole-space scan: 256 KB of uint32, so a block and
# its few temporaries stay in a 2 MB L2 cache.
_CHUNK = 1 << 16

GROUPS = ("C", "D", "H", "DC", "HC", "HDC")


def _check_enum_length(n: int) -> None:
    """The whole-space scans hold 1 <= n <= MAX_ENUM_N."""
    check_positive_length(n)
    if n > MAX_ENUM_N:
        raise ScaleExceeded(
            f"full orbit enumeration capped at n <= {MAX_ENUM_N}, got {n}"
        )


# --------------------------------------------------------------- groups

def _reflection(n: int) -> tuple[int, int]:
    """R as an affine pair: position j reads n - 1 - j = -(j + 1), so
    R = (n - 1, 1); n - 1 is the last unit, which is 1 at n = 1."""
    return units(n)[-1], 1 % n


def _check_group(group: str) -> None:
    if group not in GROUPS:
        raise ValueError(f"unknown group {group!r}, expected one of {GROUPS}")


@lru_cache(maxsize=None)
def affine_group(n: int, group: str = "C") -> tuple[tuple[int, int], ...]:
    """Every element of the named group as a pair (u, s), sorted: the
    element sends x to rotate(d_u x, s), whose position j reads x at
    u (j + s).

    By the relations above these maps are closed under composition, and
    the generators are among them: C is (1, 1), d_r is (r, 0) and R is
    `_reflection`.  So "C" is (1, s) for every s, "HC" is (+-1, s), "DC"
    and "HDC" are (u, s) for every unit u (one group, since j -> -j is
    d_(n-1)), "D" is (u, 0), and "H" is the identity and R.
    """
    _check_group(group)
    if group == "H":
        return tuple(sorted({(1, 0), _reflection(n)}))
    shifts = range(n) if "C" in group else (0,)
    return tuple(sorted({(u, s) for u in _multipliers(n, group) for s in shifts}))


@lru_cache(maxsize=None)
def _multipliers(n: int, group: str) -> tuple[int, ...]:
    """The units u of the group's pairs (u, s): 1 for "C", +-1 for "H"
    and "HC", and every unit for the groups with decimations.  This and
    `affine_group` refuse an unknown group code, so every reader of the
    group tables does."""
    _check_group(group)
    if "D" in group:
        return units(n)
    return (1,) if group == "C" else tuple(sorted({1, _reflection(n)[0]}))


def _in_group(n: int, group: str, h: tuple[int, int]) -> bool:
    """Whether the pair h = (u, s) lies in the group: u is one of its
    multipliers, and s is 0 unless it holds the rotations; "H" is its two
    pairs, the only group whose pairs do not split that way."""
    if group == "H":
        return h in affine_group(n, group)
    return h[0] in _multipliers(n, group) and ("C" in group or h[1] == 0)


# ------------------------------------------------------- canonical forms

def _rotation_canon(n: int) -> np.ndarray:
    """canon_C[x] = min over i of rotate(x, i), for every packed x.

    Two necklace symmetries fill most of the table by strided copies.  An
    even word x rotates right into x >> 1, in the same rotation orbit, so
    canon_C[x] = canon_C[x >> 1]; in every block after the first, x >> 1
    lies in an earlier block, so the even half of the block is one copy.
    An odd word x with top bit 1 rotates left into 2x + 1 - 2^n, which is
    less than x unless x is all ones.  It lies 2^n - 1 - x below x, which
    outside the last block is more than x's offset in its block, so in
    every upper-half block but the last the odd half is a stride-4 copy
    from earlier blocks.
    The min over rotations runs only on the odd words of the lower half's
    later blocks and of the last block, which holds the all-ones word; the
    first block takes the full min, in place.  uint32 holds every word up
    to MAX_ENUM_N.
    """
    size = 1 << n
    canon = np.arange(size, dtype=np.uint32)
    _least_rotations(canon[:_CHUNK], n)
    for start in range(_CHUNK, size, _CHUNK):
        stop = start + _CHUNK
        canon[start:stop:2] = canon[start // 2:stop // 2]
        if 2 * start >= size and stop < size:
            canon[start + 1:stop:2] = canon[2 * start + 3 - size:2 * stop + 1 - size:4]
        else:
            canon[start + 1:stop:2] = _least_rotations(canon[start + 1:stop:2].copy(), n)
    return canon


def _least_rotations(words: np.ndarray, n: int) -> np.ndarray:
    """Each of the words replaced by its least rotation, in place.

    Up to _CHUNK / 16 words, the n rotations are one n x m array, one
    `rotate_bits_array` call on a column of the n shifts, reduced by one
    column minimum: a few calls whatever n is, 2-5x faster there than the
    n - 1 steps below, which are mostly call overhead at that size, once
    the allocator has room for the temporary (a census makes that room
    itself).  Larger arrays take one in-place word rotation per step: from
    4500-6000 words the n x m temporary made the broadcast 2-4x slower
    than the steps, at every n from 12 to 24.  Most of the census stream's
    coset images after the first fall below the bound; the rotation
    canon's blocks, the first coset image of each necklace block and,
    from n = 20 on, the batched fixed words lie above it."""
    if words.size <= _CHUNK >> 4:
        shifts = np.arange(n, dtype=words.dtype)[:, None]
        return rotate_bits_array(words, n, shifts).min(axis=0, out=words)
    cur = words.copy()
    for _ in range(n - 1):
        np.minimum(words, rotate_bits_array(cur, n, 1, out=cur), out=words)
    return words


@lru_cache(maxsize=None)
def _coset_reps(n: int, group: str) -> tuple[tuple[int, int], ...]:
    """K, the stabiliser of position 0 in the group when it holds the
    rotations (then G = C K, each element uniquely c k), else the whole
    group (then C K reads as K alone).  (u, s) sends position 0 to u s,
    so K is the pairs (u, 0), one per multiplier of the group."""
    if "C" not in group:
        return affine_group(n, group)
    return tuple((u, 0) for u in _multipliers(n, group))


@lru_cache(maxsize=None)
def _coset_perms(n: int, group: str) -> tuple[tuple[int, ...], ...]:
    """The position permutations of the members of `_coset_reps` other
    than the identity, the ones the array kernels apply."""
    return tuple(_positions(n, k) for k in _coset_reps(n, group) if k != (1, 0))


def _positions(n: int, g: tuple[int, int]) -> tuple[int, ...]:
    """The position permutation of the pair g = (u, s): position j reads
    u (j + s).  Only the array kernels and the cycle counts need it."""
    u, s = g
    return tuple(u * (j + s) % n for j in range(n))


def _after(n: int, g: tuple[int, int], h: tuple[int, int]) -> tuple[int, int]:
    """(u, s) of h g, both given as (u, s): d_v rotate(y, s) =
    rotate(d_v y, s v^-1), so h g x = rotate(d_(u_g u_h) x, s_g u_h^-1 + s_h).
    The unit is written 1 at n = 1, as `units` writes it."""
    return g[0] * h[0] % n or 1, (g[1] * pow(h[0], -1, n) + h[1]) % n


@lru_cache(maxsize=None)
def _conjugates(n: int, group: str, h: tuple[int, int]) -> tuple[tuple[int, int], ...]:
    """The distinct g h g^-1 over g in the group, all pairs (u, s), sorted.

    As position maps g: j -> a j + a t and h: j -> u j + u s, and g h g^-1
    is j -> u j + a u s + a t (1 - u), which is (u, a (s + t (u^-1 - 1))).
    Without rotations that is one step per pair of the group.  With them
    t runs over Z_n, and a t (u^-1 - 1) over the multiples of
    m = gcd(u^-1 - 1, n), since a is a unit: the shifts are a s mod m
    plus every multiple of m, phi(n) + n / m steps with no walk over the
    n phi(n) pairs."""
    u, s = h
    if "C" not in group:
        step = pow(u, -1, n) - 1
        return tuple(sorted({(u, a * (s + t * step) % n) for a, t in affine_group(n, group)}))
    m = gcd(pow(u, -1, n) - 1, n)
    offsets = sorted({a * s % m for a in _multipliers(n, group)})
    return tuple((u, c + k) for k in range(0, n, m) for c in offsets)


def canonical_array(n: int, group: str = "C") -> np.ndarray:
    """canon[x] = min of the orbit of x, for every packed x in [0, 2^n).

    Built on the factorisation G = C K, where K is the stabiliser of
    position 0 in G: the decimations, times the reflection j -> -j for
    the "H" groups.  The rotations C act regularly on positions, so when
    they lie in G every element is uniquely c k, and the orbit of x is the
    union of the rotation orbits of the k x.  C is normal in G
    (R C = C^-1 R, C^i d_r = d_r C^{ir}), so each k carries whole rotation
    orbits onto rotation orbits and

        canon[x] = min over k in K of canon_C[k x]

    is exact and constant on rotation orbits.  canon_C comes from word
    rotations; the |K| - 1 = |G|/n - 1 non-identity members of K are then
    applied, by `permute_bits_array`'s byte tables, to the least member of
    each rotation orbit only, each followed by one lookup in canon_C.  For
    "D" and "H" there are no rotations: canon_C is the identity, K is the
    whole group, and every word is its own rotation orbit.

    The fold is written into canon itself, at each rotation-orbit
    representative, which every word then looks up through its own
    representative.  A representative that a later block reads through
    canon may already hold its orbit minimum instead of itself; that is a
    member of the same orbit no greater than it, so the minimum is the
    same.  The byte tables are keyed by position tuple, which is built
    for the coset representatives only.

    Words are uint32 and the scans run in cache-sized blocks, so besides
    the 2^n uint32 table peak memory stays at a few blocks of _CHUNK
    words; refuses n < 1, and n beyond MAX_ENUM_N instead of thrashing.
    """
    _check_enum_length(n)
    coset_reps = _coset_perms(n, group)
    canon = _rotation_canon(n) if "C" in group else np.arange(1 << n, dtype=np.uint32)
    if not coset_reps:
        return canon
    for start in range(0, canon.size, _CHUNK):
        block = _self_mapped(canon, start)
        best = block.copy()
        for perm in coset_reps:
            np.minimum(best, canon[permute_bits_array(block, n, perm)], out=best)
        canon[block] = best
    for start in range(0, canon.size, _CHUNK):
        chunk = canon[start:start + _CHUNK]
        chunk[:] = canon[chunk]
    return canon


def _word_blocks(size: int):
    """The words 0 .. size - 1, ascending, in uint32 blocks of _CHUNK."""
    return (np.arange(start, min(start + _CHUNK, size), dtype=np.uint32)
            for start in range(0, size, _CHUNK))


def _self_mapped(canon: np.ndarray, start: int) -> np.ndarray:
    """The words x in [start, start + _CHUNK) with canon[x] == x,
    ascending."""
    words = np.arange(start, min(start + _CHUNK, canon.size), dtype=np.uint32)
    return words[canon[start:start + _CHUNK] == words]


# ----------------------------------------------------------- one orbit

def periods_array(arr: np.ndarray, n: int) -> np.ndarray:
    """Least rotation period of every packed sequence in arr.

    rotate(X, d) = X exactly when the period divides d, so walking the
    proper divisors downwards and overwriting leaves the least one.
    Words are uint32, so n <= MAX_ENUM_N.
    """
    a = np.asarray(arr).astype(np.uint32, copy=False)
    period = np.full(a.shape, n, dtype=np.min_scalar_type(n))
    turned = np.empty_like(a)
    for d in reversed(divisors(n)[:-1]):
        period[rotate_bits_array(a, n, d, out=turned) == a] = d
    return period


@dataclass(frozen=True)
class Orbit:
    """One orbit with its classification flags.

    `symmetric` / `antisymmetric` report a reversal-fixed (resp.
    reversal-negated) member; `delta_invariant` lists the multipliers r
    for which some member is fixed outright by d_r; `delta_closed` lists
    the weaker property that d_r maps the orbit onto itself.
    """

    n: int
    rep: int
    group: str
    size: int
    period: int
    symmetric: bool
    antisymmetric: bool
    reversal_closed: bool
    delta_invariant: tuple[int, ...]
    delta_closed: tuple[int, ...]

    @property
    def free(self) -> bool:
        return self.period == self.n

    @property
    def representative(self) -> BinarySequence:
        return BinarySequence(self.n, self.rep)

    def as_dict(self) -> dict:
        return {
            "rep": str(self.representative),
            "group": self.group,
            "size": self.size,
            "period": self.period,
            "free": self.free,
            "symmetric": self.symmetric,
            "antisymmetric": self.antisymmetric,
            "reversal_closed": self.reversal_closed,
            "delta_invariant": list(self.delta_invariant),
            "delta_closed": list(self.delta_closed),
        }


def _flag_maps(n: int) -> tuple[tuple[int, int], ...]:
    """The maps whose fixed points and closure `classify` decides: R, then
    d_r for every unit r, ascending."""
    return (_reflection(n), *((r, 0) for r in units(n)))


@lru_cache(maxsize=None)
def _classify_plan(n: int, group: str) -> tuple:
    """What `classify` needs of (n, group) besides x, built on its first
    call there, as four entries:

    * per unit u, in `units` order, an itemgetter that reads d_u x off the
      binary string of x, since position j of d_u x is position u j of x;
      None for u = 1;
    * with the rotations, the unit indices of the multipliers of K, else
      None;
    * without them, every pair (u, s) of the group as (unit index, s),
      else None;
    * per map h = (u, s) of `_flag_maps`, None when h lies in the group,
      which then maps each of its orbits onto itself.  Else, with the
      rotations, the unit index of m^-1 u for each multiplier m of K;
      without them, each pair h g, g in the group, as (unit index, shift).
    """
    mults = units(n)
    at = {u: i for i, u in enumerate(mults)}
    getters = tuple(None if u == 1 else itemgetter(*decimation_perm(n, u)) for u in mults)
    if "C" in group:
        ks = _multipliers(n, group)
        cosets, images = tuple(at[m] for m in ks), None

        def row(h):
            return tuple(at[pow(m, -1, n) * h[0] % n or 1] for m in ks)
    else:
        pairs = affine_group(n, group)
        cosets, images = None, tuple((at[u], s) for u, s in pairs)

        def row(h):
            return tuple((at[u], s) for u, s in (_after(n, g, h) for g in pairs))
    closing = tuple(None if _in_group(n, group, h) else row(h) for h in _flag_maps(n))
    return getters, cosets, images, closing


def _shift_residues(n: int, group: str, h: tuple[int, int], p: int) -> frozenset[int]:
    """The shifts s of the conjugates (u, s) of h in the group, mod p."""
    return frozenset(s % p for _, s in _conjugates(n, group, h))


@lru_cache(maxsize=None)
def _residue_rows(n: int, group: str, p: int) -> tuple[frozenset[int], ...]:
    """`_shift_residues` of every map of `_flag_maps`, for words of
    period p: built per period on first use, so a call builds only the
    rows of the periods it meets."""
    return tuple(_shift_residues(n, group, h, p) for h in _flag_maps(n))


def _least_rotation(y: int, n: int) -> int:
    """The least rotation of the packed word y.

    It starts where a longest cyclic run of '+' (0 bits) starts: a rotation
    that starts with more '+' signs is less.  w marks the positions j at
    which positions j .. j + k - 1 are all '+', for k = 1, 2, ...: each
    step ANDs w with its rotation by one, and the last nonzero w marks the
    starts of the longest runs.  That is about log2 n steps for a random
    word, and only the rotations at those starts are compared."""
    mask = (1 << n) - 1
    if y in (0, mask):
        return y
    w = ~y & mask
    while step := w & (w << 1 | w >> (n - 1)):
        w = step
    best = mask
    while w:  # a start at position n - b, so rotate(y, n - b)
        b = w.bit_length()
        w ^= 1 << (b - 1)
        turned = (y << (n - b) | y >> b) & mask
        if turned < best:
            best = turned
    return best


def classify(x: BinarySequence, group: str = "C") -> Orbit:
    """Classify the orbit of x from x and its decimations d_u x, with no
    member set when the group holds the rotations.

    Rep and size.  With the rotations, G = C K, K the stabiliser of
    position 0, so the orbit is the disjoint union of the rotation classes
    of the k x, k in K.  Each k is a decimation d_m, which keeps the
    period p of x, so each class has p members: the rep is the least of
    the least rotations of the d_m x, and the size is p times the number of
    distinct ones.  A d_m x that is a rotation of x has the least rotation
    of x; the others go through `_least_rotation`.  "D" and "H" have no
    rotations, and their orbit is the set of the |G| images g x.

    Fixed points.  A member g x is fixed by h exactly when x is fixed by
    g^-1 h g, so `symmetric`, `antisymmetric` and `delta_invariant` test
    x against the G-conjugates of R and of each d_r.  Every conjugate of
    h = (u, s) has the multiplier u, since the units commute.  Say the
    target y is x, or -x for `antisymmetric`; -x has the period p, and its
    rotations are the negated rotations of x.  d_u x is a rotation of y
    exactly when d_u x, or -d_u x, is among the rotations of x, which a
    dict maps to their shifts; then d_u x = rotate(y, s1) for its shift
    s1, and rotate(d_u x, s) = rotate(y, s1 + s) is y exactly when
    s = -s1 mod p.  So some conjugate sends x to y exactly when -s1 mod p
    is among the conjugates' shifts mod p, a set cached per
    (n, group, p) by `_residue_rows`, so no conjugate is rotated one at a
    time.

    Closure.  A map in the group maps every orbit onto itself, so its flag
    needs no image.  Every affine map h normalises a group with the
    rotations: conjugation keeps the multipliers, and the group has every
    shift.  So h G x = G h x, and h = (u, s) maps the orbit onto itself
    exactly when h x = rotate(d_u x, s) is a member, that is when d_u x
    is a rotation of some d_m x, m in K; applying d_m^-1, exactly when
    d_(m^-1 u) x is a rotation of x: |K| lookups in the same dict.  "D"
    and "H" test every h g x, g in the group, against the member set.

    x is permuted once per unit u, into d_u x, by one itemgetter per unit
    on one binary string of x (`_classify_plan`, cached per (n, group));
    every other image is an integer rotation.
    """
    n, bits = x.n, x.bits
    mask = (1 << n) - 1
    getters, cosets, images, closing = _classify_plan(n, group)
    text = bin(bits | 1 << n)[3:]  # positions 0 .. n - 1
    dec = [bits if get is None else int("".join(get(text)), 2) for get in getters]
    # t << n | t: its n-bit windows are the rotations of t.
    doubled = bits * (mask + 2)
    own = [(doubled >> (n - s)) & mask for s in range(n)]
    period = n // own.count(bits)
    shift_of = dict(zip(own, range(n)))
    found = list(map(shift_of.get, dec))  # s1 with d_u x = rotate(x, s1), or None
    reversal, *decimations = _residue_rows(n, group, period)

    def sent(s: int | None, residues: frozenset[int]) -> bool:
        return s is not None and -s % period in residues

    if cosets is not None:
        least = {min(own)}
        least.update(_least_rotation(dec[i], n) for i in cosets if found[i] is None)
        rep, size = min(least), period * len(least)

        def closed(row) -> bool:
            return row is None or any(found[i] is not None for i in row)
    else:
        members = {rotate_bits(dec[i], n, s) for i, s in images}
        rep, size = min(members), len(members)

        def closed(row) -> bool:
            return row is None or all(rotate_bits(dec[i], n, s) in members for i, s in row)

    mults = units(n)
    return Orbit(
        n=n,
        rep=rep,
        group=group,
        size=size,
        period=period,
        # R's multiplier n - 1 is the last unit
        symmetric=sent(found[-1], reversal),
        antisymmetric=sent(shift_of.get(dec[-1] ^ mask), reversal),
        reversal_closed=closed(closing[0]),
        delta_invariant=tuple(r for r, s, res in zip(mults, found, decimations) if sent(s, res)),
        delta_closed=tuple(r for r, row in zip(mults, closing[1:]) if closed(row)),
    )


# ------------------------------------------------------ per-orbit flags

def _least_members(canon: np.ndarray) -> np.ndarray:
    """The least member of every orbit, ascending: the words canon maps to
    themselves, collected block by block, so nothing sorts the space."""
    return np.concatenate([_self_mapped(canon, start) for start in range(0, canon.size, _CHUNK)])


def _marks(canon: np.ndarray, words: np.ndarray) -> np.ndarray:
    """A mask over the 2^n words, true at the least member of every orbit
    that holds any of the words."""
    hit = np.zeros(canon.size, dtype=bool)
    hit[canon[words]] = True
    return hit


def _reversal_closed(canon: np.ndarray, reps: np.ndarray, n: int, group: str) -> np.ndarray:
    """Per least member in reps, whether the reversal maps its orbit onto
    itself.

    Reversal normalises every group but "D", so there the reversal of the
    rep decides for the whole orbit; under decimations alone,
    d_r R = R d_r C^(r-1), it does not, and every member is checked, one
    more pass over the space.  Only the readers of the flag pay for it;
    `census` reports none."""
    flip = reversal_perm(n)
    closed = canon[permute_bits_array(reps, n, flip)] == reps
    if group == "D":
        stray = np.zeros(canon.size, dtype=bool)  # indexed by orbit rep
        for start in range(0, canon.size, _CHUNK):
            own = canon[start:start + _CHUNK]
            words = np.arange(start, start + own.size, dtype=np.uint32)
            mirrored = canon[permute_bits_array(words, n, flip)]
            stray[own[mirrored != own]] = True
        closed &= ~stray[reps]
    return closed


def enumerate_orbits(n: int, group: str = "C"):
    """Yield every orbit once, representatives ascending.

    Flags come from the canon, keyed by each orbit's least member; the
    per-multiplier flags are filled only here in the streaming path, far
    fewer calls than one classify per orbit: delta_invariant from the
    orbits that the d_r-fixed words meet, as in `census`, delta_closed
    from one canon lookup per decimated rep (and per decimated reversed
    rep under "H", the one group d_r does not normalise).  d_1 fixes every
    sequence, so 1 joins both flags of every orbit.  The reps and their
    sizes, needed only here, are the distinct canon values and their
    counts.
    """
    canon = canonical_array(n, group)
    reps, sizes = np.unique(canon, return_counts=True)
    flip = reversal_perm(n)
    members = [reps]
    if group == "H":
        members.append(permute_bits_array(reps, n, flip))
    mults = units(n)
    # Bit b of a mask stands for mults[b]; bit 0, for d_1, is always set.
    invariant = np.ones(reps.size, dtype=np.int64)
    closed = np.ones(reps.size, dtype=np.int64)
    for b, r in enumerate(mults[1:], 1):
        perm = decimation_perm(n, r)
        invariant |= _marks(canon, fixed_words(n, perm))[reps].astype(np.int64) << b
        hit = np.ones(reps.size, dtype=bool)
        for m in members:
            hit &= canon[permute_bits_array(m, n, perm)] == reps
        closed |= hit.astype(np.int64) << b
    subsets: dict[int, tuple[int, ...]] = {}  # a handful of masks recur

    def subset(mask: int) -> tuple[int, ...]:
        if mask not in subsets:
            subsets[mask] = tuple(r for b, r in enumerate(mults) if mask >> b & 1)
        return subsets[mask]

    columns = zip(reps.tolist(), sizes.tolist(), periods_array(reps, n).tolist(),
                  _marks(canon, fixed_words(n, flip))[reps].tolist(),
                  _marks(canon, fixed_words(n, flip, negated=True))[reps].tolist(),
                  _reversal_closed(canon, reps, n, group).tolist(),
                  invariant.tolist(), closed.tolist())
    for rep, size, period, sym, asym, rev_closed, inv, cl in columns:
        yield Orbit(
            n=n,
            rep=rep,
            group=group,
            size=size,
            period=period,
            symmetric=sym,
            antisymmetric=asym,
            reversal_closed=rev_closed,
            delta_invariant=subset(inv),
            delta_closed=subset(cl),
        )


# --------------------------------------------------------------- counts

def necklace_count(n: int) -> int:
    """Closed-form number of rotation orbits."""
    return sum(len(units(d)) * (1 << (n // d)) for d in divisors(n)) // n


@lru_cache(maxsize=None)
def burnside_count(n: int, group: str = "C") -> int:
    """Orbit count as the average number of fixed sequences per group
    element: 2 to the number of cycles of its position map."""
    pairs = affine_group(n, group)
    total = sum(1 << len(perm_cycles(_positions(n, g))) for g in pairs)
    assert total % len(pairs) == 0
    return total // len(pairs)


def fd_partition(n: int) -> dict[int, int]:
    """Orbit count per exact period d, by direct enumeration, so that it
    stays an oracle independent of the counting formula in
    `fd_partition_check`.

    Complementing a word keeps its period, so only the words with top bit
    0 are tallied, by `_period_tally` per block, and every count doubled.
    Satisfies sum_d count[d] * d = 2^n.
    """
    _check_enum_length(n)
    # words[d]: the words of period d
    words = 2 * sum(_period_tally(block, n) for block in _word_blocks(1 << (n - 1)))
    assert all(words[d] % d == 0 for d in divisors(n))
    return {d: int(words[d]) // d for d in divisors(n)}


def fd_partition_check(n: int) -> dict:
    """Cross-check the enumerated layer sizes against the recursive
    counting formula |F_d| = 2^d - sum of smaller layers."""
    formula_mass: dict[int, int] = {}
    for d in divisors(n):
        formula_mass[d] = (1 << d) - sum(formula_mass[e] for e in divisors(d)[:-1])
    orbit_counts = fd_partition(n)
    mass = sum(c * d for d, c in orbit_counts.items())
    return {
        "n": n,
        "orbit_counts": orbit_counts,
        "formula_orbit_counts": {d: formula_mass[d] // d for d in divisors(n)},
        "mass": mass,
        "mass_ok": mass == 1 << n,
        "formula_ok": all(
            formula_mass[d] == orbit_counts[d] * d for d in divisors(n)
        ),
    }


# --------------------------------------------------------------- census

def _necklace_blocks(n: int, strict: bool = False):
    """Ascending uint32 blocks of the packed words no greater than each of
    their n - 1 nontrivial rotations, the least member of every rotation
    orbit (the necklaces); when strict, less than each, the least member
    of every free rotation orbit (the Lyndon words).

    The words are grown a letter at a time, with no rotation and no
    filter.  A prenecklace is a prefix of some necklace, and
    lyn(a_1 .. a_t) is the length p of its longest Lyndon prefix.  By the
    fundamental theorem of necklaces (Ruskey, Savage & Wang, "Generating
    necklaces", J. Algorithms 13, 1992; Cattell, Ruskey, Sawada, Serra &
    Miers, J. Algorithms 37, 2000), a_1 .. a_t b is a prenecklace exactly
    when b >= a_(t+1-p); its lyn is p again when b = a_(t+1-p) and t + 1
    when b is greater; and a prenecklace of length n is a necklace exactly
    when p divides n, a Lyndon word exactly when p = n.  So every
    prenecklace of length t + 1 is a child of one of length t, each level
    holds them all, and the last one keeps exactly the words asked for.
    The empty word counts as p = 1 with a_0 = 0, which makes 0 and 1 the
    prenecklaces of length 1, both with p = 1, so n = 1 needs no case of
    its own.

    A word packs a_1 into its top bit, so packed order is lexicographic
    order and a_(t+1-p) is bit p - 1 of the t-bit word x; `q` holds p - 1
    as a uint8.  So a level takes a few whole-array operations and no
    rotation: x has the child 2x + 1, since b = 1 is never below
    a_(t+1-p), and the child 2x exactly when bit q of x is 0, and
    `_children` lists them in order, so each level is ascending when the
    one before is.  Where the next level could pass _CHUNK words, the
    level is split in halves, each grown to the end before the next: no
    array passes _CHUNK words at any level, the blocks come out
    ascending, and besides the level being grown only the pending halves,
    copied off their parents, stay alive.  uint32 holds every word up to
    MAX_ENUM_N.
    """
    one, two = np.uint32(1), np.intp(2)
    stack = [(np.zeros(1, np.uint32), np.zeros(1, np.uint8), 0)]
    while stack:
        words, q, t = stack.pop()
        if 2 * words.size > _CHUNK:
            half = words.size // 2
            stack += [(words[half:].copy(), q[half:].copy(), t), (words[:half], q[:half], t)]
            continue
        # a = a_(t+1-p) = bit q of x: b = a keeps p, b = 1 > a makes it t + 1
        if t + 1 == n:
            # a child that keeps p ends a necklace when p | n, a Lyndon word
            # when p = n; a child whose p became t + 1 = n ends both
            same = q == n - 1 if strict else n % (q + one) == 0
            yield _children(words, same + np.intp(1) - (words >> q & one))[0]
            continue
        counts = two - (words >> q & one)
        kids, second = _children(words, counts)
        q = q.repeat(counts)
        np.putmask(q[1:], second, t)
        stack.append((kids, q, t + 1))


def _children(words: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The children of the uint32 words x: 2x + 1 where the count is 1, the
    pair 2x, 2x + 1 where it is 2, none where it is 0; ascending when the
    words are.  With them, for each child after the first, whether it is
    the second of a pair.  One repeat and two whole-array steps, with no
    branch on the level's bits: compacting every pair 2x, 2x + 1 by a mask
    took about twice as long.  The counts are intp, which the repeat
    takes as they are: on the few-word levels of a short n the calls, not
    the words, are the cost."""
    one = np.uint32(1)
    kids = words << one
    kids |= one
    kids = kids.repeat(counts)
    second = kids[1:] == kids[:-1]
    kids[:-1] -= second
    return kids, second


def _coset_image(words: np.ndarray, n: int, perm: tuple[int, ...],
                 rotations: bool) -> np.ndarray:
    """perm w for each of the words, replaced by its least rotation when
    the group holds the rotations."""
    image = permute_bits_array(words, n, perm)
    return _least_rotations(image, n) if rotations else image


def _orbit_rep_blocks(n: int, group: str):
    """Ascending blocks of the least member of every orbit of the group,
    with no table of the space.

    With the rotations in G = C K the orbit of x is the union of the
    rotation orbits of the k x, k in `_coset_reps`, so x is its least
    member exactly when x is a necklace and x <= least_rotation(k x) for
    each k.  Without them K is the whole group, and x is least exactly
    when x <= g x for every g.  Each block of candidates (the necklaces, or
    every word) keeps only its survivors after each k, so the later k see
    fewer words."""
    rotations = "C" in group
    for words in _necklace_blocks(n) if rotations else _word_blocks(1 << n):
        for perm in _coset_perms(n, group):
            words = words[words <= _coset_image(words, n, perm, rotations)]
        yield words


def _orbits_met(sets, n: int, group: str) -> list[np.ndarray]:
    """For each of the arrays of words, taken once in order, the least
    members of the orbits that its words meet, ascending and distinct.

    The least member of the orbit of w is min over k in `_coset_reps` of
    `_coset_image`.  The identity's image, the least rotation of w (w
    itself without rotations), is taken first and deduplicated per array,
    so the other k are applied only to the distinct necklaces left, far
    fewer than the words.  Each stage goes through `_distinct_images`, in
    batches of at most _CHUNK words."""
    rotations = "C" in group
    perms = _coset_perms(n, group)

    def least_rotations(words):
        return _least_rotations(words, n) if rotations else words

    def orbit_minima(words):
        best = words.copy()
        for perm in perms:
            np.minimum(best, _coset_image(words, n, perm, rotations), out=best)
        return best

    necklaces = _distinct_images(sets, least_rotations)
    return _distinct_images(necklaces, orbit_minima) if perms else necklaces


def _distinct_images(sets, image) -> list[np.ndarray]:
    """For each of the arrays of words, taken once in order, the distinct
    images of its words, ascending.  image maps a uint32 array of words to
    their images, one call per batch of `_batches`: many small arrays
    share one batch, since n = 19 alone asks for 19 of them, and an array
    larger than _CHUNK is split across batches, the distinct images of
    its pieces merged at the end."""
    found: list[list[np.ndarray]] = []  # per array, the images of its pieces
    for batch in _batches(sets):
        owners, pieces = zip(*batch)
        images = image(np.concatenate(pieces).astype(np.uint32, copy=False))
        parts = np.split(images, np.cumsum([p.size for p in pieces[:-1]]))
        for i, part in zip(owners, parts):
            if i == len(found):
                found.append([])
            found[i].append(_distinct(part))
    return [f[0] if len(f) == 1 else _distinct(np.concatenate(f)) for f in found]


def _batches(sets):
    """Batches of (array index, piece) of at most _CHUNK words in all: each
    array in order, split into pieces of at most _CHUNK words (an empty
    array is one empty piece), a batch taking pieces until the next would
    pass _CHUNK."""
    batch, size = [], 0
    for i, words in enumerate(sets):
        for start in range(0, max(words.size, 1), _CHUNK):
            piece = words[start:start + _CHUNK]
            if batch and size + piece.size > _CHUNK:
                yield batch
                batch, size = [], 0
            batch.append((i, piece))
            size += piece.size
    if batch:
        yield batch


def _distinct(words: np.ndarray) -> np.ndarray:
    """The distinct words, ascending, by one sort and the starts of its
    runs; np.unique hashes the words first, several times slower here."""
    ordered = np.sort(words)
    return ordered[_run_starts(ordered)]


def _period_tally(words: np.ndarray, n: int) -> np.ndarray:
    """tally[d] is the number of the uint32 words with period d, length
    n + 1.  `_below_full_period` decides which words have full period, and
    `periods_array` runs on the short-period words that remain."""
    short = _below_full_period(words, n)
    tally = np.bincount(periods_array(words[short], n), minlength=n + 1)
    tally[n] += words.size - np.count_nonzero(short)
    return tally


def census(n: int, group: str = "C") -> dict:
    """Full orbit census for one group: totals, per-period rows, symmetry
    counts, and per-multiplier decimation invariance (orbits containing a
    d_r-fixed member, as in `enumerate_orbits`); it needs no orbit sizes.

    Everything is counted from orbit representatives, with no 2^n table.
    With the rotations, G = C K (K the stabiliser of position 0), each
    element uniquely c k, so the orbit of x is the union of the rotation
    orbits of the k x and its least member is min over k of
    least_rotation(k x).  `_orbit_rep_blocks` keeps x exactly when it
    equals that minimum, so each orbit is counted once, by its least
    member; without rotations the minimum is over g x for every g.  A
    period row counts the representatives by period: decimation and
    reversal keep the rotation period, and rotations keep it too, so the
    orbit's period is its representative's.

    The symmetric, antisymmetric and d_r-invariant orbits are those that
    meet Fix(R), the words R negates, or Fix(d_r): the distinct orbit
    minima of those few words (`sequences.fixed_words`), found by
    `_orbits_met` in batches of at most _CHUNK words, one set of fixed
    words made at a time.  An orbit is nonsymmetric when it is neither,
    counted by inclusion-exclusion.
    """
    _check_enum_length(n)
    by_period = sum(_period_tally(reps, n) for reps in _orbit_rep_blocks(n, group))
    flip = reversal_perm(n)
    multipliers = [r for r in units(n) if r != 1]
    maps = [(flip, False), (flip, True), *((decimation_perm(n, r), False) for r in multipliers)]
    # made one at a time, as _orbits_met reaches them
    sets = (fixed_words(n, perm, negated) for perm, negated in maps)
    sym, asym, *invariant = _orbits_met(sets, n, group)
    sym_by, asym_by = _period_tally(sym, n), _period_tally(asym, n)
    rows = [{"period": d, "count": int(by_period[d]), "sym": int(sym_by[d]),
             "asym": int(asym_by[d])} for d in divisors(n) if by_period[d]]
    total = int(by_period.sum())
    both = np.intersect1d(sym, asym, assume_unique=True).size
    return {
        "n": n,
        "group": group,
        "total": total,
        "by_period": {row["period"]: row["count"] for row in rows},
        "rows": rows,
        "sym": int(sym.size),
        "asym": int(asym.size),
        "nonsym": total - int(sym.size) - int(asym.size) + int(both),
        "delta_invariant": {r: int(m.size) for r, m in zip(multipliers, invariant)},
    }


# ------------------------------------------------------ invariance sweeps

# Each flag of `invariance_check` as (name, shift, width mask, type) in its
# packed uint8 code; the period takes five bits, enough below 32.
_FLAG_FIELDS = (("period", 3, 31, int), ("sym", 0, 1, bool), ("asym", 1, 1, bool),
                ("rev_closed", 2, 1, bool))


def invariance_check(n: int) -> dict:
    """Exhaustively verify that every decimation preserves the period,
    both symmetry flags, and reversal closure of every rotation orbit.

    Each orbit's flags are packed into one uint8 at its least member q,
    period << 3 | rev_closed << 2 | asym << 1 | sym, so an orbit and its
    d_r image compare by one gather code[canon[d_r q]] and one XOR.  The
    report keeps at most ten witnesses per multiplier and flag, and
    `violation_count` counts them all.
    """
    canon = canonical_array(n, "C")
    reps = _least_members(canon)
    flip = reversal_perm(n)
    code = _marks(canon, fixed_words(n, flip)).view(np.uint8)
    code[canon[fixed_words(n, flip, negated=True)]] |= 2
    code[reps] |= (periods_array(reps, n).astype(np.uint8) << 3
                   | _reversal_closed(canon, reps, n, "C").astype(np.uint8) << 2)
    own = code[reps]
    violations = []
    violation_count = 0
    multipliers = [r for r in units(n) if r != 1]
    for r in multipliers:
        image = code[canon[permute_bits_array(reps, n, decimation_perm(n, r))]]
        differ = own ^ image
        for name, shift, mask, kind in _FLAG_FIELDS:
            bad = np.flatnonzero(differ >> shift & mask)
            violation_count += int(bad.size)
            for i in bad[:10].tolist():
                violations.append(
                    {
                        "r": r,
                        "flag": name,
                        "rep": str(BinarySequence(n, int(reps[i]))),
                        "value": kind(int(own[i]) >> shift & mask),
                        "mapped_value": kind(int(image[i]) >> shift & mask),
                    }
                )
    return {
        "n": n,
        "orbits": int(reps.size),
        "multipliers": multipliers,
        "violations": violations,
        "violation_count": violation_count,
        "ok": not violations,
    }


@lru_cache(maxsize=None)
def _maximal_divisors(n: int) -> tuple[int, ...]:
    """The proper divisors of n that divide no other proper divisor: n/p
    for each prime p | n."""
    proper = divisors(n)[:-1]
    return tuple(d for d in proper if not any(e % d == 0 for e in proper if e > d))


def _below_full_period(arr: np.ndarray, n: int) -> np.ndarray:
    """period < n for every packed word in arr: the period divides n, so
    it is short exactly when it divides some maximal proper divisor n/p."""
    short = np.zeros(arr.shape, dtype=bool)
    turned = np.empty_like(arr)
    for d in _maximal_divisors(n):
        short |= rotate_bits_array(arr, n, d, out=turned) == arr
    return short


def _witness_strings(reps: np.ndarray, n: int) -> list[str]:
    """The least ten distinct rotations of the packed words in reps,
    ascending, as sign strings; none when reps is empty."""
    if not reps.size:
        return []
    rotations = rotate_bits_array(reps, n, np.arange(n, dtype=reps.dtype)[:, None])
    return [str(BinarySequence(n, bits)) for bits in np.unique(rotations)[:10].tolist()]


def square_freeness_check(n: int) -> dict:
    """Check how freeness behaves under the products X * C^a X.

    Odd n: tests the claim that if X has full period then every
    X * C^a X, a = 1..n-1, has full period too.  True for odd prime
    powers, but false in general: at n=15 six free orbits produce
    period-3 or period-5 squares (first witness x="++++++--+---+--",
    a=3).  The scan is exhaustive; the report keeps at most ten witness
    pairs per offset, and `violation_count` counts every failing pair.
    Even n: the product at a = n/2 is fixed by C^{n/2}, so every free X
    yields a non-free, non-identity member of its orbit square; the check
    verifies that witness for every free X.

    Pass or fail is constant on a rotation orbit: for X' = C^b X,
    X' * C^a X' = C^b(X * C^a X), which has the same period.  So only
    the least member of each free rotation orbit (a Lyndon word) is
    scanned, and each failing one stands for its n distinct rotations:
    counts are n times the failing representatives, and the witnesses
    per offset are the least ten of their rotations, the same list a scan
    of every free word gives.  Likewise X * C^{n-a} X = C^{n-a}(X * C^a X),
    so odd n computes offsets a <= (n-1)/2 only, witness lists included,
    and reuses them for n - a.  The period of X * C^a X divides d exactly
    when Z = X * C^d X is fixed by C^a, since the rotations commute and
    distribute over the product: C^d(X * C^a X) = X * C^a X exactly when
    X * C^d X = C^a(X * C^d X).  So Z is formed once per maximal proper
    divisor d of n and block, and each offset costs one rotation and one
    comparison per d.

    The Lyndon words come from `_necklace_blocks`, grown letter by letter
    by the fundamental theorem of necklaces (Ruskey, Savage & Wang,
    1992): the prenecklaces of length n - 1 give every Lyndon word of
    length n once, and nothing else.  Every offset runs on each block
    while the block is in cache, and only the failing words are kept, so
    no array of all the Lyndon words is built.
    """
    _check_enum_length(n)
    half = n // 2
    offsets = range(1, half + 1) if n % 2 else (half,)
    failing: list[list[np.ndarray]] = [[] for _ in offsets]
    free_count = 0
    for lyndon in _necklace_blocks(n, strict=True):
        free_count += n * lyndon.size
        turned = np.empty_like(lyndon)
        if n % 2:
            zs = [lyndon ^ rotate_bits_array(lyndon, n, d, out=turned)
                  for d in _maximal_divisors(n)]
            for found, a in zip(failing, offsets):
                bad = np.zeros(lyndon.size, dtype=bool)
                for z in zs:
                    bad |= rotate_bits_array(z, n, a, out=turned) == z
                found.append(lyndon[bad])
        else:
            y = lyndon ^ rotate_bits_array(lyndon, n, half, out=turned)
            # a free X never equals its half-shift, so y != 0; verified all the same
            bad = (rotate_bits_array(y, n, half, out=turned) != y) | (y == 0)
            failing[0].append(lyndon[bad])
    listed = {a: (reps.size, _witness_strings(reps, n))
              for a, reps in zip(offsets, map(np.concatenate, failing))}
    violations = []
    violation_count = 0
    for a in range(1, n) if n % 2 else offsets:
        failing_count, witnesses = listed[min(a, n - a)]
        violation_count += n * failing_count
        violations += [{"x": x, "a": a} for x in witnesses]
    return {
        "n": n,
        "free_sequences": free_count,
        "checked": free_count * (n - 1 if n % 2 else 1),
        "violations": violations,
        "violation_count": violation_count,
        "ok": not violations,
    }


# ------------------------------------------------- set-level experiments

def asym_square_check(n: int) -> dict:
    """Where do products of two antisymmetric sequences land?

    Reports whether the product set is closed under reversal (it is), and
    whether every product lies in a palindromic orbit or at least in a
    reversal-closed orbit (both eventually fail as n grows).
    """
    if n > 12:
        raise ScaleExceeded(f"pairwise product sweep capped at n <= 12, got {n}")
    canon = canonical_array(n, "C")
    flip = reversal_perm(n)
    x = np.arange(1 << n, dtype=np.int64)
    asym_members = x[_marks(canon, fixed_words(n, flip, negated=True))[canon]]
    prods = np.unique((asym_members[:, None] ^ asym_members[None, :]).ravel())
    rev = permute_bits_array(prods, n, flip)
    least = canon[prods]
    return {
        "n": n,
        "asym_nonempty": bool(asym_members.size),
        "set_reversal_closed": bool(np.array_equal(np.sort(rev), prods)),
        "subset_palindromic": bool(_marks(canon, fixed_words(n, flip))[least].all()),
        "subset_reversal_closed": bool(_reversal_closed(canon, least, n, "C").all()),
    }


def orbit_product_decomposition(x: BinarySequence, y: BinarySequence) -> dict:
    """Decompose the set {C^i X * C^j Y} into rotation orbits and weigh it
    against the claim that it splits into min(d_X, d_Y) orbits of size
    max(d_X, d_Y)."""
    rx = {rotate_bits(x.bits, x.n, i) for i in range(x.n)}
    ry = {rotate_bits(y.bits, y.n, i) for i in range(y.n)}
    prods = {a ^ b for a in rx for b in ry}
    seen: dict[int, int] = {}
    for p in prods:
        info = classify(BinarySequence(x.n, p))
        seen[info.rep] = info.size
    orbits = [
        {"rep": str(BinarySequence(x.n, rep)), "size": size}
        for rep, size in sorted(seen.items())
    ]
    sizes = sorted(s["size"] for s in orbits)
    claimed_m, claimed_n = min(len(rx), len(ry)), max(len(rx), len(ry))
    return {
        "n": x.n,
        "periods": (len(rx), len(ry)),
        "product_size": len(prods),
        "orbit_count": len(orbits),
        "orbits": orbits,
        "sizes": sizes,
        "single_orbit": len(orbits) == 1,
        "claimed_orbit_count": claimed_m,
        "claimed_orbit_size": claimed_n,
        "claim_holds": len(orbits) == claimed_m and sizes == [claimed_n] * claimed_m,
    }


def _run_starts(a: np.ndarray) -> np.ndarray:
    """Where each run of equal values in the 1-d array a starts."""
    edge = np.empty(a.size, dtype=bool)
    edge[:1] = True
    np.not_equal(a[1:], a[:-1], out=edge[1:])
    return np.flatnonzero(edge)


def spartition_axiom_check(n: int, group: str = "DC") -> dict:
    """Verify the orbit partition of a group is a legitimate S-partition:
    the identity cell is a singleton, every cell is closed under inverse
    (automatic here, every element is its own inverse), and each pairwise
    cell product covers every cell uniformly.

    Row i of the sweep takes the products of cell i with every cell j >= i
    at once: each product word is keyed j 2^n + its place in the cell
    order, and one sort of the keys gives the multiplicity of every
    (j, word) pair met, grouped by (j, cell k).  Cell k is covered
    uniformly when all its words are met equally often, or none is.  The
    sweep stops at 21 violations, reported in (i, j, k) order."""
    if n > 14:
        raise ScaleExceeded(f"cell product sweep capped at n <= 14, got {n}")
    canon = canonical_array(n, group)
    # The cells are the orbits, keyed by their least members.
    order = np.argsort(canon, kind="stable")
    starts = _run_starts(canon[order])
    ends = np.append(starts[1:], order.size)
    cell_sizes = ends - starts
    # Keys stay below 2^(2n) <= 2^28, so int32 sorts them.
    cell_at = np.repeat(np.arange(starts.size, dtype=np.int32), cell_sizes)
    place = np.empty(order.size, dtype=np.int32)
    place[order] = np.arange(order.size, dtype=np.int32)
    violations = []
    if cell_sizes[0] != 1 or order[0] != 0:
        violations.append({"kind": "identity_cell", "size": int(cell_sizes[0])})

    def nonuniform():
        for i in range(starts.size):
            xs, ys = order[starts[i]:ends[i]], order[starts[i]:]
            keys = (cell_at[starts[i]:] << n) + place[xs[:, None] ^ ys[None, :]]
            keys = np.sort(keys, axis=None)
            first = _run_starts(keys)
            met = keys[first]
            mult = np.diff(first, append=keys.size)
            j, k = met >> n, cell_at[met & (order.size - 1)]
            pair = _run_starts(j * starts.size + k)
            j, k = j[pair], k[pair]
            lo = np.minimum.reduceat(mult, pair)
            hi = np.maximum.reduceat(mult, pair)
            lo[np.diff(pair, append=met.size) < cell_sizes[k]] = 0  # a word not met
            for f in np.flatnonzero(lo != hi).tolist():
                yield {"kind": "nonuniform", "i": i, "j": int(j[f]), "k": int(k[f]),
                       "min": int(lo[f]), "max": int(hi[f])}

    violations += islice(nonuniform(), 21 - len(violations))
    return {
        "n": n,
        "group": group,
        "cells": int(starts.size),
        "violations": violations,
        "is_spartition": not violations,
    }
