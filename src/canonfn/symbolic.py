"""Exact symbolic machinery on (Q;<): the dense sets Q and Q minus 0,
canonical back-and-forth isomorphisms, cut analysis, and the obstruction
certificate for the puncture isomorphism.

Everything is Fraction arithmetic; a certificate is a bundle of exact
inequalities that recompute from scratch.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .errors import BudgetExhausted
from .fraisse import _PairIndex, _shadow
from .rationals import (
    enumeration_position,
    format_rational,
    least_enum_in_interval,
    least_enum_with_position,
    rational_of_index,
)


@dataclass(frozen=True)
class ComputableDenseSet:
    """Q, or Q minus 0 when exclude_zero: the two dense sets the
    back-and-forth runs on.

    Members are enumerated in the signed enumeration of Q with 0 skipped when
    it is excluded.  least_in(lo, hi) is (member, position): the
    enumeration-least member strictly inside an open interval and its
    position n, so that enumerate_member(n) gives it back, both computed by
    one descent of the Stern-Brocot tree.  The position is None for a member
    more than 62 levels down the tree, which no run of stages enumerates;
    both are None when the interval holds no member.
    """

    name: str
    exclude_zero: bool

    def contains(self, x: Fraction) -> bool:
        return not (self.exclude_zero and x == 0)

    def enumerate_member(self, n: int) -> Fraction:
        return rational_of_index(n + self.exclude_zero)

    def least_in(self, lo: Fraction | None, hi: Fraction | None) -> tuple:
        return least_enum_with_position(lo, hi, self.exclude_zero)


def rationals_set() -> ComputableDenseSet:
    return ComputableDenseSet("q", exclude_zero=False)


def punctured_rationals() -> ComputableDenseSet:
    return ComputableDenseSet("q-minus-0", exclude_zero=True)


def dense_set_by_name(name: str) -> ComputableDenseSet:
    for s in (rationals_set(), punctured_rationals()):
        if s.name == name:
            return s
    raise ValueError(f"unknown dense set {name!r}")


# Stages eval and inverse run, at most.
_STAGE_CAP = 1 << 22


class BackAndForthMap:
    """The canonical order isomorphism between two dense sets, Q or Q minus 0.

    Stages alternate between the source and target enumerations; each stage
    commits the least-enumerated unpaired member on its side to the
    enumeration-least admissible partner.  The construction is deterministic
    given the two sets and the optional seed pairs, and every committed stage
    is a finite order isomorphism.  Its pairs sit sorted in a
    fraisse._PairIndex, which gives a member's place and its neighbors'
    partners from either side, and in commit order in two flat columns,
    points and images.  Each side keeps the positions of its members that
    were paired before their turn (as partners, or as seeds within
    enumeration_position's cap), so a stage skips them by position and
    enumerates only the member it pairs.  Not thread-safe: evaluation
    commits stages.
    """

    def __init__(self, source: ComputableDenseSet, target: ComputableDenseSet,
                 seeds=()):
        self.source = source
        self.target = target
        self.name = f"iso({source.name},{target.name})"
        self._sets = (source, target)
        self._index = _PairIndex()
        self._points: list = []    # commit order
        self._images: list = []
        self._next = [0, 0]        # per side, the next position to enumerate
        self._held = (set(), set())    # per side, positions paired ahead of _next
        self._forth_turn = True
        index = self._index
        for x, y in seeds:
            x, y = Fraction(x), Fraction(y)
            if not (source.contains(x) and target.contains(y)):
                raise ValueError(f"seed pair ({x},{y}) leaves the sets")
            j, i, fx, lo, hi = index.gap(0, x, 1)
            paired = index.holds(0, j, i, fx, x)
            if paired and hi == y:
                continue
            if paired or not ((lo is None or lo < y) and (hi is None or y < hi)):
                raise ValueError(f"commitment ({x},{y}) breaks order preservation")
            self._commit(j, i, x, y, fx, _shadow(y))
            for held, s, v in zip(self._held, self._sets, (x, y)):
                position = enumeration_position(v, s.exclude_zero)
                if position is not None:
                    held.add(position)

    @property
    def committed(self) -> tuple:
        return tuple(zip(self._points, self._images))

    def _commit(self, j: int, i: int, x, y, fx: float, fy: float) -> None:
        self._index.insert(j, i, x, y, fx, fy)
        self._points.append(x)
        self._images.append(y)

    def _stage(self) -> tuple:
        """Commit the next stage's pair (x, y) and return it."""
        side = 0 if self._forth_turn else 1
        held, n = self._held[side], self._next[side]
        while n in held:
            held.remove(n)
            n += 1
        self._next[side] = n + 1
        v = self._sets[side].enumerate_member(n)
        j, i, f, lo, hi = self._index.gap(side, v, 1 - side)
        w, position = self._sets[1 - side].least_in(lo, hi)
        if w is None:
            raise BudgetExhausted("empty partner interval")
        if position is not None:
            self._held[1 - side].add(position)
        x, y, fx, fy = (v, w, f, _shadow(w)) if side == 0 else (w, v, _shadow(w), f)
        self._commit(j, i, x, y, fx, fy)
        self._forth_turn = not self._forth_turn
        return x, y

    def run_stages(self, count: int) -> None:
        for _ in range(count):
            self._stage()

    def _reach(self, v: Fraction, side: int) -> Fraction:
        """v's partner, v a member of the source (side 0) or of the target
        (side 1), running stages until they commit v: each stage's new value
        on v's side is compared with v."""
        if not self._sets[side].contains(v):
            raise ValueError(f"{v} is not in {self._sets[side].name}")
        j, i, f, _, hi = self._index.gap(side, v, 1 - side)
        w = hi if self._index.holds(side, j, i, f, v) else None
        n, d = v.numerator, v.denominator
        guard = 0
        while w is None:
            pair = self._stage()
            guard += 1
            if guard > _STAGE_CAP:
                raise BudgetExhausted("back-and-forth did not reach the requested point")
            u = pair[side]
            if u.numerator == n and u.denominator == d:
                w = pair[1 - side]
        return w

    def eval(self, x) -> Fraction:
        return self._reach(Fraction(x), 0)

    def inverse(self, y) -> Fraction:
        return self._reach(Fraction(y), 1)

    def __call__(self, x):
        return self.eval(x)


def canonical_iso(source: ComputableDenseSet, target: ComputableDenseSet) -> BackAndForthMap:
    """The canonical back-and-forth isomorphism from source onto target."""
    return BackAndForthMap(source, target)


def automorphism_moving(a, b) -> BackAndForthMap:
    """The canonical order automorphism of Q seeded with a -> b."""
    q = rationals_set()
    return BackAndForthMap(q, q, seeds=((Fraction(a), Fraction(b)),))


# ---------------------------------------------------------------------------
# cut analysis


@dataclass(frozen=True)
class CutBracket:
    """Open bracket around the value forced at a cut by e(f(x)) = g(x)."""

    cut: Fraction
    lo: Fraction
    lo_witness: Fraction
    hi: Fraction
    hi_witness: Fraction
    probes: int


@dataclass(frozen=True)
class Inconclusive:
    """Budget ran out before the bracket narrowed below the precision."""

    lo: Fraction | None
    hi: Fraction | None
    probes: int

    def __bool__(self):
        return False


def forced_cut(f: Callable, g: Callable, cut, epsilon, budget: int):
    """Bracket the value any order-preserving e with e(f(x)) = g(x) must take
    at the cut: the supremum of g over f(x) below the cut against the infimum
    above, probing domain points in enumeration order until the bracket is
    narrower than epsilon."""
    cut = Fraction(cut)
    epsilon = Fraction(epsilon)
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    lo = hi = None
    lo_wit = hi_wit = None
    for i in range(budget):
        x = rational_of_index(i)
        y = f(x)
        if y == cut:
            continue
        value = g(x)
        if y < cut and (lo is None or value > lo):
            lo, lo_wit = value, x
        if y > cut and (hi is None or value < hi):
            hi, hi_wit = value, x
        if lo is not None and hi is not None and hi - lo < epsilon:
            return CutBracket(cut, lo, lo_wit, hi, hi_wit, i + 1)
    return Inconclusive(lo, hi, budget)


# ---------------------------------------------------------------------------
# the obstruction certificate


@dataclass(frozen=True)
class ObstructionCertificate:
    """Exact witness that no order-embedding e of Q satisfies f∘alpha = e∘f.

    f is the canonical isomorphism from Q onto Q minus 0, alpha the canonical
    automorphism moving a to b, so e is determined on image(f) by
    e(f(x)) = f(alpha(x)).  The certificate packages, at precision epsilon:

    * the headline pair: f(a) < 0 with e(f(a)) = f(alpha(a)) > 0;
    * the pin: determined inputs y_lo = f(pin_lo_x) < 0 < y_hi = f(pin_hi_x)
      whose e-values bracket e(0) in the open interval (pin_lo, pin_hi) of
      width below epsilon, with pin_lo > 0, so e provably cannot fix 0;
    * the exclusion sample: the enumeration-least rational sample_r inside
      the pin together with sample_u = f_inverse(sample_r), certifying that
      sample_r, like every rational in the pin, is an f-value; since the
      image of f∘alpha equals the image of f, any candidate value e(0) = r
      in the pin is also attained by e at the nonzero point f(alpha_inverse
      (f_inverse(r))), so injectivity leaves no value for e(0) at all.

    Validity additionally requires epsilon below the witness gap
    min(|f(a)|, f(alpha(a))).
    """

    epsilon: Fraction
    a: Fraction
    f_a: Fraction
    b: Fraction
    falpha_a: Fraction
    pin_lo_x: Fraction
    y_lo: Fraction
    pin_lo: Fraction
    pin_hi_x: Fraction
    y_hi: Fraction
    pin_hi: Fraction
    sample_r: Fraction
    sample_u: Fraction

    def violations(self) -> list[str]:
        """Re-derive every ingredient from scratch and recheck every claim."""
        problems = []
        f = BackAndForthMap(rationals_set(), punctured_rationals())
        alpha = automorphism_moving(self.a, self.b)
        e_of = lambda x: f.eval(alpha.eval(x))
        checks = [
            (f.eval(self.a) == self.f_a, "f(a) recomputes"),
            (alpha.eval(self.a) == self.b, "alpha(a) = b recomputes"),
            (e_of(self.a) == self.falpha_a, "f(alpha(a)) recomputes"),
            (self.f_a < 0, "f(a) < 0"),
            (self.falpha_a > 0, "f(alpha(a)) > 0"),
            (f.eval(self.pin_lo_x) == self.y_lo, "y_lo = f(pin_lo_x) recomputes"),
            (self.y_lo < 0, "y_lo < 0"),
            (e_of(self.pin_lo_x) == self.pin_lo, "e(y_lo) = pin_lo recomputes"),
            (f.eval(self.pin_hi_x) == self.y_hi, "y_hi = f(pin_hi_x) recomputes"),
            (self.y_hi > 0, "y_hi > 0"),
            (e_of(self.pin_hi_x) == self.pin_hi, "e(y_hi) = pin_hi recomputes"),
            (Fraction(0) < self.pin_hi - self.pin_lo, "pin is a real bracket"),
            (self.pin_hi - self.pin_lo < self.epsilon, "pin width below epsilon"),
            (self.pin_lo > 0, "pin excludes 0, so e cannot fix 0"),
            (self.pin_lo < self.sample_r < self.pin_hi, "sample inside the pin"),
            (f.eval(self.sample_u) == self.sample_r, "sample_r is an f-value"),
            (self.sample_r != 0, "sample value is nonzero"),
            (self.epsilon < min(-self.f_a, self.falpha_a),
             "epsilon below the witness gap"),
        ]
        for ok, what in checks:
            if not ok:
                problems.append(what)
        return problems

    def verify(self) -> bool:
        return not self.violations()


def pham_refute(epsilon, budget: int = 4096) -> ObstructionCertificate:
    """Assemble the obstruction certificate at the given precision.

    Builds the puncture isomorphism f, finds the enumeration-least a with
    f(a) < 0 and b with f(b) > 0, moves a to b, computes the straddle
    witnesses exactly through the inverse maps, and runs the cut analysis at 0
    for the e(0) pin; raises BudgetExhausted when the probes run out first,
    and ValueError when epsilon is not below the witness gap
    min(-f(a), f(alpha(a))), at which no certificate can verify.
    """
    epsilon = Fraction(epsilon)
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if budget < 1:
        raise ValueError("budget must be positive")
    f = canonical_iso(rationals_set(), punctured_rationals())
    a = b = None
    for i in range(budget):
        x = rational_of_index(i)
        if a is None and f.eval(x) < 0:
            a = x
        if b is None and f.eval(x) > 0:
            b = x
        if a is not None and b is not None:
            break
    if a is None or b is None:
        raise BudgetExhausted("no sign witnesses for f within the budget")
    gap = min(-f.eval(a), f.eval(b))    # f(alpha(a)) = f(b)
    if epsilon >= gap:
        raise ValueError(f"epsilon {format_rational(epsilon)} is not below "
                         f"the witness gap {format_rational(gap)}")
    alpha = automorphism_moving(a, b)
    e_of = lambda x: f.eval(alpha.eval(x))
    bracket = forced_cut(f.eval, e_of, 0, epsilon, budget)
    if isinstance(bracket, Inconclusive):
        raise BudgetExhausted(
            f"cut bracket did not reach width {epsilon} within {budget} probes"
        )
    sample_r = least_enum_in_interval(bracket.lo, bracket.hi, exclude_zero=True)
    if sample_r is None:
        raise BudgetExhausted("no rational inside the pin bracket")
    sample_u = f.inverse(sample_r)
    return ObstructionCertificate(
        epsilon=epsilon,
        a=a,
        f_a=f.eval(a),
        b=b,
        falpha_a=e_of(a),
        pin_lo_x=bracket.lo_witness,
        y_lo=f.eval(bracket.lo_witness),
        pin_lo=bracket.lo,
        pin_hi_x=bracket.hi_witness,
        y_hi=f.eval(bracket.hi_witness),
        pin_hi=bracket.hi,
        sample_r=sample_r,
        sample_u=sample_u,
    )
