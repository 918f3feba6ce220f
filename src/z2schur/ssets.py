"""Complete S-sets: maximal families of weight classes whose pairwise
products all contain a chosen target class.

For a target weight a, build the graph whose vertices are the weights b
with a in G_n(b)*G_n(b) and whose edges join b, c whenever a is in
G_n(b)*G_n(c).  A complete S-set is a maximal clique.  Since every product
weight is congruent to n - b - c mod 2, cliques come in a pure even-weight
and a pure odd-weight flavour, and they are empty unless n - a is even.

The counting rule implemented by `predicted_profile` describes how many
cliques exist and how large they are.  It is accurate on the low-weight
half of the table but provably wrong for large a (first failure at
n=6, a=4, where three maximal cliques exist instead of two);
`count_theorem_checks` reports every such deviation instead of hiding it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import InvalidWeight
from .sequences import check_positive_length
from .weight_ring import class_product


@dataclass(frozen=True)
class CompleteSSet:
    """A maximal clique for target weight a, with its common member parity."""

    n: int
    a: int
    members: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "members", tuple(sorted(self.members)))

    @property
    def order(self) -> int:
        return len(self.members)

    @property
    def parity(self) -> str:
        return "even" if self.members[0] % 2 == 0 else "odd"

    def as_dict(self) -> dict:
        return {
            "a": self.a,
            "parity": self.parity,
            "members": list(self.members),
            "order": self.order,
        }


def _maximal_cliques(adj: dict[int, set[int]]) -> list[frozenset[int]]:
    """Bron-Kerbosch with pivoting.  Graphs here have at most n+1 vertices."""
    cliques: list[frozenset[int]] = []

    def expand(r: set[int], p: set[int], x: set[int]) -> None:
        if not p and not x:
            cliques.append(frozenset(r))
            return
        pivot = max(p | x, key=lambda v: len(adj[v] & p))
        for v in sorted(p - adj[pivot]):
            expand(r | {v}, p & adj[v], x & adj[v])
            p.discard(v)
            x.add(v)

    expand(set(), set(adj), set())
    return cliques


def find_complete_ssets(n: int, a: int) -> list[CompleteSSet]:
    """All complete S-sets for target weight a, sorted even flavour first."""
    check_positive_length(n)
    if not 0 <= a <= n:
        raise InvalidWeight(f"target weight {a} outside [0, {n}]")
    vertices = [b for b in range(n + 1) if a in class_product(n, b, b)]
    adj: dict[int, set[int]] = {b: set() for b in vertices}
    for b, c in combinations(vertices, 2):
        if a in class_product(n, b, c):
            adj[b].add(c)
            adj[c].add(b)
    cliques = _maximal_cliques(adj) if vertices else []
    out = [CompleteSSet(n, a, tuple(q)) for q in cliques]
    out.sort(key=lambda s: (s.members[0] % 2, s.members))
    return out


def predicted_profile(n: int, a: int) -> dict:
    """Count and orders claimed by the counting rule.

    a = n gives the n+1 singletons; odd n - a gives none; a = 0 gives the
    single set {n/2}; otherwise two sets, with orders a/2 and a/2 + 1 for
    even a, and (a+1)/2 twice for odd a.
    """
    check_positive_length(n)
    if a == n:
        return {"count": n + 1, "orders": [1] * (n + 1)}
    if (n - a) % 2:
        return {"count": 0, "orders": []}
    if a == 0:
        return {"count": 1, "orders": [1]}
    if a % 2 == 0:
        return {"count": 2, "orders": [a // 2, a // 2 + 1]}
    return {"count": 2, "orders": [(a + 1) // 2, (a + 1) // 2]}


def count_theorem_checks(max_n: int) -> dict:
    """Compare found complete S-sets with the counting rule for all
    0 <= a <= n <= max_n.

    Returns {"checked": int, "violations": [...]} where each violation
    records the predicted and actual count and orders plus the actual sets.
    The rule fails exactly when a is even with 2a > n or a is odd with
    2a > n + 1, so the first violations appear at n=6.
    """
    check_positive_length(max_n)
    checked = 0
    violations = []
    for n in range(1, max_n + 1):
        for a in range(n + 1):
            checked += 1
            found = find_complete_ssets(n, a)
            pred = predicted_profile(n, a)
            found_orders = sorted(s.order for s in found)
            if len(found) != pred["count"] or found_orders != sorted(pred["orders"]):
                violations.append(
                    {
                        "n": n,
                        "a": a,
                        "predicted_count": pred["count"],
                        "found_count": len(found),
                        "predicted_orders": sorted(pred["orders"]),
                        "found_orders": found_orders,
                        "found": [list(s.members) for s in found],
                    }
                )
    return {"checked": checked, "violations": violations}


def maximal_target_weights(n: int) -> tuple[int, ...]:
    """Target weights a whose complete S-sets have the largest possible order.

    Even n: a = n/2 when n % 4 == 0, else the two even neighbours
    n/2 - 1 and n/2 + 1.  Odd n: whichever of (n +- 1)/2 is odd.
    """
    check_positive_length(n)
    if n % 4 == 0:
        return (n // 2,)
    if n % 4 == 2:
        return (n // 2 - 1, n // 2 + 1)
    if n % 4 == 1:
        return ((n + 1) // 2,)
    return ((n - 1) // 2,)


def complete_maximal(n: int) -> list[CompleteSSet]:
    """Complete S-sets at the maximal-order target weights for this n."""
    out: list[CompleteSSet] = []
    for a in maximal_target_weights(n):
        out.extend(find_complete_ssets(n, a))
    return out
