"""Exact rational helpers: the Calkin-Wilf walk and the signed enumeration of Q.

The enumeration used everywhere for the dense linear order is
0, 1, -1, 1/2, -1/2, 2, -2, 1/3, -1/3, ... : zero first, then the
Calkin-Wilf sequence of positive rationals with alternating signs.
"""

from __future__ import annotations

from fractions import Fraction

_CW_CACHE: list[Fraction] = [Fraction(1)]


def calkin_wilf(n: int) -> Fraction:
    """n-th positive rational in Calkin-Wilf order (n >= 0 gives 1, 1/2, 2, ...)."""
    if n < 0:
        raise ValueError("index must be nonnegative")
    while len(_CW_CACHE) <= n:
        q = _CW_CACHE[-1]
        _CW_CACHE.append(1 / (2 * (q.numerator // q.denominator) + 1 - q))
    return _CW_CACHE[n]


_DEPTH_CAP = 1 << 20


def _cw_index(a: int, b: int) -> int:
    """Calkin-Wilf index of the positive rational a/b in lowest terms.

    The tree path, read leaf to root, is one run of equal bits per
    continued-fraction term; each run costs one division.
    """
    n, d = a, b
    path = depth = 0
    while n != d:
        k, r = divmod(n, d) if n > d else divmod(d, n)
        k -= r == 0
        if depth + k > _DEPTH_CAP:
            raise ValueError(f"rational {Fraction(a, b)} is too deep in the enumeration")
        if n > d:
            path |= ((1 << k) - 1) << depth
            n = r or d
        else:
            d = r or n
        depth += k
    return (1 << depth | path) - 1


def calkin_wilf_index(q: Fraction) -> int:
    """Inverse of calkin_wilf for positive rationals."""
    if q.numerator <= 0:
        raise ValueError("expected a positive rational")
    return _cw_index(q.numerator, q.denominator)


def rational_of_index(n: int) -> Fraction:
    """n-th element of the signed enumeration of Q."""
    if n == 0:
        return Fraction(0)
    q = calkin_wilf((n - 1) // 2)
    return q if n % 2 == 1 else -q


def index_of_rational(q: Fraction) -> int:
    """Position of q in the signed enumeration of Q."""
    q = Fraction(q)
    if q == 0:
        return 0
    k = calkin_wilf_index(abs(q))
    return 2 * k + 1 if q > 0 else 2 * k + 2


def _simplest(a: int, b: int, c: int, d: int) -> tuple[int, int]:
    """Stern-Brocot simplest rational strictly between a/b >= 0 and c/d.

    d == 0 (with c == 1) stands for +infinity.  The descent keeps the bounds
    ln/ld <= a/b and hn/hd >= c/d and moves one of them per division: the
    mediants at or below a/b form a run of right steps, those at or above
    c/d a run of left steps, and the first mediant strictly inside is the
    answer.  Runs alternate, so the loop turns once per continued-fraction
    term of the answer.  Returns (numerator, denominator) in lowest terms.
    """
    ln, ld, hn, hd = 0, 1, 1, 0
    while True:
        mn, md = ln + hn, ld + hd
        if mn * b <= a * md:
            k = (a * ld - ln * b) // (hn * b - a * hd)
            ln, ld = ln + k * hn, ld + k * hd
        elif mn * d >= c * md:
            k = (hn * d - c * hd) // (c * ld - ln * d)
            hn, hd = hn + k * ln, hd + k * ld
        else:
            return mn, md


def least_enum_in_interval(lo: Fraction | None, hi: Fraction | None,
                           exclude_zero: bool = False) -> Fraction | None:
    """Enumeration-least rational strictly inside (lo, hi).

    None bounds are infinite.  With exclude_zero the enumeration of Q minus 0
    is used; the relative order of nonzero rationals is the same.

    The bounds are taken apart into numerators and denominators once, with
    -1/0 and 1/0 for the infinite ones.  The positive side is the simplest
    rational in (max(lo, 0), hi), the negative side the mirror of the
    simplest one in (max(-hi, 0), -lo), both by the integer Stern-Brocot
    descent; when both exist the Calkin-Wilf index decides.  The answer is
    the only Fraction built.
    """
    a, b = (-1, 0) if lo is None else (lo.numerator, lo.denominator)
    c, d = (1, 0) if hi is None else (hi.numerator, hi.denominator)
    if b and d and a * d >= c * b:
        return None
    if a < 0 < c and not exclude_zero:
        return Fraction(0)
    pos = _simplest(max(a, 0), b if a > 0 else 1, c, d) if c > 0 else None
    neg = _simplest(max(-c, 0), d if c < 0 else 1, -a, b) if a < 0 else None
    # Positive rationals precede their negatives at equal tree position.
    if neg is None or pos is not None and _cw_index(*pos) <= _cw_index(*neg):
        return Fraction(*pos)
    return Fraction(-neg[0], neg[1])


def format_rational(q: Fraction) -> str:
    """Render as p/q, or bare p for integers."""
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def parse_rational(text: str) -> Fraction:
    """Parse p/q or integer literals; raises ValueError on junk."""
    text = text.strip()
    if not text:
        raise ValueError("empty rational literal")
    if "/" in text:
        num, den = (int(part) for part in text.split("/", 1))
        if den == 0:
            raise ValueError(f"zero denominator in {text!r}")
        return Fraction(num, den)
    return Fraction(int(text))
