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

# Tree levels within which enumeration positions are computed: a rational
# further down has a position of at least 2^64 - 1, which no run of stages
# enumerates.
_POSITION_DEPTH = 62


def _cw_index(a: int, b: int, cap: int = _DEPTH_CAP) -> int | None:
    """Calkin-Wilf index of the positive rational a/b in lowest terms, or
    None when its tree path is longer than cap.

    The tree path, read leaf to root, is one run of equal bits per
    continued-fraction term; each run costs one division.
    """
    n, d = a, b
    path = depth = 0
    while n != d:
        k, r = divmod(n, d) if n > d else divmod(d, n)
        k -= r == 0
        if depth + k > cap:
            return None
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
    k = _cw_index(q.numerator, q.denominator)
    if k is None:
        raise ValueError(f"rational {q} is too deep in the enumeration")
    return k


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


def enumeration_position(q: Fraction, exclude_zero: bool = False) -> int | None:
    """Position of q in the enumeration of Q, or of Q minus 0 with
    exclude_zero (q nonzero then): index_of_rational(q) - exclude_zero, or
    None when q lies more than _POSITION_DEPTH levels down the tree."""
    if q and _cw_index(abs(q.numerator), q.denominator, _POSITION_DEPTH) is None:
        return None
    return index_of_rational(q) - exclude_zero


def _simplest(a: int, b: int, c: int, d: int) -> tuple[int, int, int | None]:
    """Stern-Brocot simplest rational strictly between a/b >= 0 and c/d.

    d == 0 (with c == 1) stands for +infinity.  The descent keeps the bounds
    ln/ld <= a/b and hn/hd >= c/d and moves one of them per division: the
    mediants at or below a/b form a run of right steps, those at or above
    c/d a run of left steps, and the first mediant strictly inside is the
    answer.  Runs alternate, so the loop turns once per continued-fraction
    term of the answer.  Returns (numerator, denominator, cw), the answer in
    lowest terms and its Calkin-Wilf index, or None for cw past
    _POSITION_DEPTH levels.  The descent builds the index as it goes: the
    Stern-Brocot path from the root is the Calkin-Wilf path read leaf to
    root, so a run of k right steps at depth t sets bits t..t+k-1.
    """
    ln, ld, hn, hd = 0, 1, 1, 0
    path = depth = 0
    while True:
        mn, md = ln + hn, ld + hd
        if mn * b <= a * md:
            k = (a * ld - ln * b) // (hn * b - a * hd)
            ln, ld = ln + k * hn, ld + k * hd
            if depth + k <= _POSITION_DEPTH:
                path |= ((1 << k) - 1) << depth
            depth += k
        elif mn * d >= c * md:
            k = (hn * d - c * hd) // (c * ld - ln * d)
            hn, hd = hn + k * ln, hd + k * ld
            depth += k
        else:
            return mn, md, (1 << depth | path) - 1 if depth <= _POSITION_DEPTH else None


def _precedes(pos: tuple, neg: tuple) -> bool:
    """Whether _simplest's positive answer pos comes before the mirror of
    its answer neg.  Positive rationals precede their negatives at equal
    tree position, and an answer within the position cap precedes one past
    it; two answers past it are told apart by their full indices."""
    p, n = pos[2], neg[2]
    if p is None and n is None:
        return calkin_wilf_index(Fraction(*pos[:2])) <= calkin_wilf_index(Fraction(*neg[:2]))
    return n is None or p is not None and p <= n


def least_enum_with_position(lo: Fraction | None, hi: Fraction | None,
                             exclude_zero: bool = False) -> tuple:
    """(q, position): the enumeration-least rational q strictly inside
    (lo, hi) and its enumeration_position, None past the cap; (None, None)
    when the interval is empty.

    None bounds are infinite.  With exclude_zero the enumeration of Q minus 0
    is used; the relative order of nonzero rationals is the same.

    The bounds are taken apart into numerators and denominators once, with
    -1/0 and 1/0 for the infinite ones.  The positive side is the simplest
    rational in (max(lo, 0), hi), the negative side the mirror of the
    simplest one in (max(-hi, 0), -lo), both by the integer Stern-Brocot
    descent, which gives their Calkin-Wilf indices; when both exist the
    indices decide.  The answer is the only Fraction built.
    """
    a, b = (-1, 0) if lo is None else (lo.numerator, lo.denominator)
    c, d = (1, 0) if hi is None else (hi.numerator, hi.denominator)
    if b and d and a * d >= c * b:
        return None, None
    if a < 0 < c and not exclude_zero:
        return Fraction(0), 0
    pos = _simplest(max(a, 0), b if a > 0 else 1, c, d) if c > 0 else None
    neg = _simplest(max(-c, 0), d if c < 0 else 1, -a, b) if a < 0 else None
    if neg is None or pos is not None and _precedes(pos, neg):
        n, m, k = pos
        return Fraction(n, m), None if k is None else 2 * k + 1 - exclude_zero
    n, m, k = neg
    return Fraction(-n, m), None if k is None else 2 * k + 2 - exclude_zero


def least_enum_in_interval(lo: Fraction | None, hi: Fraction | None,
                           exclude_zero: bool = False) -> Fraction | None:
    """Enumeration-least rational strictly inside (lo, hi), None bounds
    being infinite, in the enumeration of Q minus 0 with exclude_zero: the
    rational of least_enum_with_position."""
    return least_enum_with_position(lo, hi, exclude_zero)[0]


def format_rational(q: Fraction) -> str:
    """Render an int or a Fraction as p/q, or bare p for integers."""
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
