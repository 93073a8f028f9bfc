"""Exact symbolic machinery on (Q;<): computable dense subsets, canonical
back-and-forth isomorphisms, cut analysis, and the obstruction certificate
for the puncture isomorphism.

Everything is Fraction arithmetic; a certificate is a bundle of exact
inequalities that recompute from scratch.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .errors import BudgetExhausted, DensityProbeFailure
from .rationals import format_rational, least_enum_in_interval, rational_of_index


@dataclass(frozen=True)
class ComputableDenseSet:
    """A subset of Q given by a membership test and an enumeration of exactly
    its members.

    least_in, when present, returns the enumeration-least member strictly
    inside an open interval without scanning; the builtin sets compute it
    through the Stern-Brocot tree.
    """

    name: str
    contains: Callable[[Fraction], bool]
    enumerate_member: Callable[[int], Fraction]
    least_in: Callable | None = None


def rationals_set() -> ComputableDenseSet:
    return ComputableDenseSet(
        "q", lambda x: True, rational_of_index,
        lambda lo, hi: least_enum_in_interval(lo, hi, exclude_zero=False),
    )


def punctured_rationals() -> ComputableDenseSet:
    return ComputableDenseSet(
        "q-minus-0", lambda x: x != 0, lambda n: rational_of_index(n + 1),
        lambda lo, hi: least_enum_in_interval(lo, hi, exclude_zero=True),
    )


_DENSE_SETS = {"q": rationals_set, "q-minus-0": punctured_rationals}


def dense_set_by_name(name: str) -> ComputableDenseSet:
    try:
        return _DENSE_SETS[name]()
    except KeyError:
        raise ValueError(f"unknown dense set {name!r}") from None


def check_dense(s: ComputableDenseSet, samples: int = 8, budget: int = 4096) -> None:
    """Sample density and unboundedness; raises DensityProbeFailure."""
    members = [s.enumerate_member(i) for i in range(samples)]
    for x in members:
        if not s.contains(x):
            raise DensityProbeFailure(f"{s.name}: enumerated non-member {x}")
    for a, b in itertools.combinations(sorted(set(members)), 2):
        if not any(a < s.enumerate_member(i) < b for i in range(budget)):
            raise DensityProbeFailure(f"{s.name}: no member found in ({a},{b})")
    top, bottom = max(members), min(members)
    if not any(s.enumerate_member(i) > top for i in range(budget)):
        raise DensityProbeFailure(f"{s.name}: no member above {top}")
    if not any(s.enumerate_member(i) < bottom for i in range(budget)):
        raise DensityProbeFailure(f"{s.name}: no member below {bottom}")


class BackAndForthMap:
    """The canonical order isomorphism between two dense subsets of Q.

    Stages alternate between the source and target enumerations; each stage
    commits the least-enumerated uncommitted element on its side to the
    enumeration-least admissible partner.  The construction is deterministic
    given the two sets and the optional seed pairs, and every committed stage
    is a finite order isomorphism.  Not thread-safe: evaluation commits stages.
    """

    def __init__(self, source: ComputableDenseSet, target: ComputableDenseSet,
                 seeds=(), probe_cap: int = 1 << 22):
        self.source = source
        self.target = target
        self.name = f"iso({source.name},{target.name})"
        self._pairs: list[tuple[Fraction, Fraction]] = []
        # Commitments sorted by source value; the aligned target column is
        # sorted as well since every stage preserves order.
        self._src_sorted: list[Fraction] = []
        self._tgt_sorted: list[Fraction] = []
        self._fwd: dict[Fraction, Fraction] = {}
        self._bwd: dict[Fraction, Fraction] = {}
        self._next_source = 0
        self._next_target = 0
        self._forth_turn = True
        self._probe_cap = probe_cap
        for x, y in seeds:
            x, y = Fraction(x), Fraction(y)
            if not (source.contains(x) and target.contains(y)):
                raise ValueError(f"seed pair ({x},{y}) leaves the sets")
            self._commit(x, y)

    @property
    def committed(self) -> tuple:
        return tuple(self._pairs)

    def _commit(self, x: Fraction, y: Fraction) -> None:
        pos = bisect.bisect_left(self._src_sorted, x)
        if pos < len(self._src_sorted):
            if x == self._src_sorted[pos] or y >= self._tgt_sorted[pos]:
                raise ValueError(f"commitment ({x},{y}) breaks order preservation")
        if pos > 0 and y <= self._tgt_sorted[pos - 1]:
            raise ValueError(f"commitment ({x},{y}) breaks order preservation")
        self._src_sorted.insert(pos, x)
        self._tgt_sorted.insert(pos, y)
        self._pairs.append((x, y))
        self._fwd[x] = y
        self._bwd[y] = x

    def _least_partner(self, value: Fraction, partner_set: ComputableDenseSet,
                       flip: bool) -> Fraction:
        known, image = (self._tgt_sorted, self._src_sorted) if flip else (
            self._src_sorted, self._tgt_sorted)
        pos = bisect.bisect_left(known, value)
        lo = image[pos - 1] if pos > 0 else None
        hi = image[pos] if pos < len(image) else None
        if partner_set.least_in is not None:
            y = partner_set.least_in(lo, hi)
            if y is None:
                raise BudgetExhausted("empty partner interval")
            return y
        for i in range(self._probe_cap):
            y = partner_set.enumerate_member(i)
            if (lo is None or y > lo) and (hi is None or y < hi):
                return y
        raise BudgetExhausted("back-and-forth probe cap reached")

    def _stage(self) -> None:
        if self._forth_turn:
            while True:
                x = self.source.enumerate_member(self._next_source)
                self._next_source += 1
                if x not in self._fwd:
                    break
            y = self._least_partner(x, self.target, flip=False)
            self._commit(x, y)
        else:
            while True:
                y = self.target.enumerate_member(self._next_target)
                self._next_target += 1
                if y not in self._bwd:
                    break
            x = self._least_partner(y, self.source, flip=True)
            self._commit(x, y)
        self._forth_turn = not self._forth_turn

    def run_stages(self, count: int) -> None:
        for _ in range(count):
            self._stage()

    def eval(self, x) -> Fraction:
        x = Fraction(x)
        if not self.source.contains(x):
            raise ValueError(f"{x} is not in {self.source.name}")
        guard = 0
        while x not in self._fwd:
            self._stage()
            guard += 1
            if guard > self._probe_cap:
                raise BudgetExhausted("back-and-forth did not reach the requested point")
        return self._fwd[x]

    def inverse(self, y) -> Fraction:
        y = Fraction(y)
        if not self.target.contains(y):
            raise ValueError(f"{y} is not in {self.target.name}")
        guard = 0
        while y not in self._bwd:
            self._stage()
            guard += 1
            if guard > self._probe_cap:
                raise BudgetExhausted("back-and-forth did not reach the requested point")
        return self._bwd[y]

    def __call__(self, x):
        return self.eval(x)


def canonical_iso(source: ComputableDenseSet, target: ComputableDenseSet,
                  probe_budget: int = 4096) -> BackAndForthMap:
    """The deterministic back-and-forth isomorphism, after density sampling."""
    check_dense(source, budget=probe_budget)
    check_dense(target, budget=probe_budget)
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

    def width(self) -> Fraction:
        return self.hi - self.lo


@dataclass(frozen=True)
class Inconclusive:
    """Budget ran out before the bracket narrowed below the precision."""

    lo: Fraction | None
    hi: Fraction | None
    probes: int

    def __bool__(self):
        return False


def forced_cut(f: Callable, g: Callable, cut, epsilon, budget: int = 256):
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

    def as_lines(self) -> list[str]:
        fields = [
            ("epsilon", self.epsilon), ("a", self.a), ("f_a", self.f_a),
            ("b", self.b), ("falpha_a", self.falpha_a),
            ("pin_lo_x", self.pin_lo_x), ("y_lo", self.y_lo), ("pin_lo", self.pin_lo),
            ("pin_hi_x", self.pin_hi_x), ("y_hi", self.y_hi), ("pin_hi", self.pin_hi),
            ("sample_r", self.sample_r), ("sample_u", self.sample_u),
        ]
        return [f"{name}: {format_rational(value)}" for name, value in fields]


def pham_refute(epsilon, budget: int = 4096) -> ObstructionCertificate:
    """Assemble the obstruction certificate at the given precision.

    Builds the puncture isomorphism f, finds the enumeration-least a with
    f(a) < 0 and b with f(b) > 0, moves a to b, computes the straddle
    witnesses exactly through the inverse maps, and runs the cut analysis at 0
    for the e(0) pin; raises BudgetExhausted when the probes run out first.
    """
    epsilon = Fraction(epsilon)
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
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
