"""Independent string-level reference implementations.

Everything here works directly on '+'/'-' strings with explicit index
arithmetic, deliberately sharing no code with the packed-integer
implementations under test.
"""


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


def str_autocorr(s: str, k: int) -> int:
    n = len(s)
    vals = [1 if c == "+" else -1 for c in s]
    return sum(vals[j] * vals[(j + k) % n] for j in range(n))


def str_period(s: str) -> int:
    n = len(s)
    for d in range(1, n + 1):
        if n % d == 0 and all(s[j] == s[(j + d) % n] for j in range(n)):
            return d
    return n


def cyclic_orbit(s: str) -> set[str]:
    return {str_rotate(s, i) for i in range(len(s))}
