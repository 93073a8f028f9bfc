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


def _cw_up_bits(q: Fraction) -> list[int]:
    """Tree path of a positive rational, leaf to root, division-accelerated."""
    a, b = q.numerator, q.denominator
    if a <= 0:
        raise ValueError("expected a positive rational")
    bits: list[int] = []
    while (a, b) != (1, 1):
        if a < b:
            k, r = divmod(b, a)
            bits.extend([0] * (k - 1 if r == 0 else k))
            b = a if r == 0 else r
        else:
            k, r = divmod(a, b)
            bits.extend([1] * (k - 1 if r == 0 else k))
            a = b if r == 0 else r
        if len(bits) > _DEPTH_CAP:
            raise ValueError(f"rational {q} is too deep in the enumeration")
    return bits


def calkin_wilf_index(q: Fraction) -> int:
    """Inverse of calkin_wilf for positive rationals."""
    bits = _cw_up_bits(q)
    index = 1
    for bit in reversed(bits):
        index = 2 * index + bit
    return index - 1


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


def simplest_in(lo: Fraction | None, hi: Fraction | None, cap: int = 200000) -> Fraction:
    """Stern-Brocot simplest positive rational in the open interval (lo, hi).

    lo may be None or any rational below the interval (treated as 0 when
    negative); hi None means unbounded above.  The simplest rational is also
    the Calkin-Wilf-least one: any other rational in the interval sits deeper
    in the tree, hence later in breadth-first order.
    """
    if lo is not None and lo < 0:
        lo = Fraction(0)
    if lo is not None and hi is not None and lo >= hi:
        raise ValueError("empty interval")
    ln, ld, hn, hd = 0, 1, 1, 0
    for _ in range(cap):
        mn, md = ln + hn, ld + hd
        if lo is not None and mn * lo.denominator <= lo.numerator * md:
            ln, ld = mn, md
        elif hi is not None and mn * hi.denominator >= hi.numerator * md:
            hn, hd = mn, md
        else:
            return Fraction(mn, md)
    raise ValueError("interval too deep for the descent cap")


def least_enum_in_interval(lo: Fraction | None, hi: Fraction | None,
                           exclude_zero: bool = False) -> Fraction | None:
    """Enumeration-least rational strictly inside (lo, hi).

    None bounds are infinite.  With exclude_zero the enumeration of Q minus 0
    is used; the relative order of nonzero rationals is the same.
    """
    if lo is not None and hi is not None and lo >= hi:
        return None
    zero_inside = (lo is None or lo < 0) and (hi is None or hi > 0)
    if zero_inside and not exclude_zero:
        return Fraction(0)
    pos = neg = None
    pos_lo = Fraction(0) if lo is None else max(lo, Fraction(0))
    if hi is None or hi > pos_lo:
        pos = simplest_in(pos_lo, hi)
    q_lo = Fraction(0) if hi is None else max(-hi, Fraction(0))
    q_hi = None if lo is None else -lo
    if (lo is None or lo < 0) and (q_hi is None or q_hi > q_lo):
        neg = -simplest_in(q_lo, q_hi)
    if pos is None:
        return neg
    if neg is None:
        return pos
    # Positive rationals precede their negatives at equal tree position.
    return pos if calkin_wilf_index(pos) <= calkin_wilf_index(-neg) else neg


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
