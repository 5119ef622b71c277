"""Curve models.

A curve model carries a presentation of the coordinate ring (affine line,
torus, or a plane curve F(x,y) = 0 with a hyperelliptic specialization),
the distinguished derivation with its commutation relations, and the
two-variable kernel used to assemble ideal generators from matrix data.
"""

from __future__ import annotations

# exact before dataclasses: exact is the package's largest module, and
# compiling it with dataclasses (and inspect) already loaded raised the peak
# RSS of a point-sweep benchmark run by about 0.25 MB (Python 3.11)
from .exact import BiPoly, UniPoly, resultant

from dataclasses import dataclass
from fractions import Fraction

AFFINE_LINE = "AffineLine"
TORUS = "Torus"
PLANE_CURVE = "PlaneCurve"


@dataclass(frozen=True, slots=True, repr=False)
class CurveModel:
    """One of AffineLine, Torus, PlaneCurve; plane curves may carry y^2 = P(x) form."""

    kind: str
    F: BiPoly | None = None
    hyperelliptic_P: UniPoly | None = None

    def __post_init__(self):
        kind, F, hyperelliptic_P = self.kind, self.F, self.hyperelliptic_P
        if kind not in (AFFINE_LINE, TORUS, PLANE_CURVE):
            raise ValueError("unknown curve kind: %r" % (kind,))
        if kind == PLANE_CURVE:
            if F is None or F.is_zero or (F.degree_x() <= 0 and F.degree_y() <= 0):
                raise ValueError("plane curve requires a nonconstant defining polynomial")
        elif F is not None or hyperelliptic_P is not None:
            raise ValueError("%s carries no defining polynomial" % kind)
        if hyperelliptic_P is not None:
            if F != _y2_minus(hyperelliptic_P):
                raise ValueError("defining polynomial is not y^2 - P(x) for the given P")
            if not _squarefree(hyperelliptic_P):
                raise ValueError("P must have simple roots (gcd(P, P') constant)")

    @property
    def is_hyperelliptic(self) -> bool:
        return self.hyperelliptic_P is not None

    @property
    def has_y(self) -> bool:
        """True when the coordinate ring has a second generator y."""
        return self.kind == PLANE_CURVE

    def __repr__(self):
        if self.kind != PLANE_CURVE:
            return "CurveModel(%s)" % self.kind
        if self.is_hyperelliptic:
            return "CurveModel(y^2 = %s)" % (self.hyperelliptic_P,)
        return "CurveModel(F = %s)" % (self.F,)


def affine_line() -> CurveModel:
    return CurveModel(AFFINE_LINE)


def torus() -> CurveModel:
    return CurveModel(TORUS)


def _y2_minus(P: UniPoly) -> BiPoly:
    """The defining polynomial y^2 - P(x)."""
    return BiPoly.monomial(0, 2) - BiPoly({(r, 0): c for r, c in enumerate(P.coeffs)})


def _squarefree(P: UniPoly) -> bool:
    """P has simple roots: gcd(P, P') is a nonzero constant."""
    g = P.gcd(P.derivative())
    return not g.is_zero and g.degree() <= 0


def _detect_hyperelliptic(F: BiPoly) -> UniPoly | None:
    """Recognize F = y^2 - P(x) term-for-term, P with simple roots."""
    if F.terms.get((0, 2)) != 1:
        return None
    rest = {}
    for (r, s), c in F.terms.items():
        if (r, s) == (0, 2):
            continue
        if s != 0:
            return None
        rest[r] = -c
    deg = max(rest, default=-1)
    P = UniPoly("x", [rest.get(i, 0) for i in range(deg + 1)])
    return P if _squarefree(P) else None


def plane_curve(F: BiPoly) -> CurveModel:
    return CurveModel(PLANE_CURVE, F, _detect_hyperelliptic(F))


def hyperelliptic(P: UniPoly) -> CurveModel:
    return CurveModel(PLANE_CURVE, _y2_minus(P), P)


def derivation_data(c: CurveModel):
    """The commutators [z, x] and [z, y] of the distinguished derivation z
    with the ring generators, as formal words: a pair (zx_words, zy_words).

    Each commutator is a tuple of (coefficient, word) pairs, a word being a
    tuple over the alphabet {"x", "y", "D"} with "D" the distinguished loop
    element; zy_words is None when the coordinate ring has a single generator.

    AffineLine / Torus: z(x) = 1 and [z, x] = D.
    Plane curve F: z(x) = F'_y, z(y) = -F'_x, with
        [z, x] = sum_{r,s} a_rs sum_{k<s} y^(s-k-1) D y^k x^r
        [z, y] = -sum_{r,s} a_rs sum_{l<r} y^s x^(r-l-1) D x^l
    which for y^2 = P(x) reduce to [z,x] = yD + Dy and
    [z,y] = sum_s a_s sum_{l<s} x^(s-l-1) D x^l.
    """
    if c.kind in (AFFINE_LINE, TORUS):
        return ((Fraction(1), ("D",)),), None
    zx = []
    zy = []
    for (r, s), a in c.F.items_sorted():
        for k in range(s):
            zx.append((a, ("y",) * (s - k - 1) + ("D",) + ("y",) * k + ("x",) * r))
        for l in range(r):
            zy.append((-a, ("y",) * s + ("x",) * (r - l - 1) + ("D",) + ("x",) * l))
    return tuple(zx), tuple(zy)


def nu_kernel(c: CurveModel):
    """Kernel of the derivation generator under the canonical embedding, in
    substitution-ready form: a pair (terms, denom_factors).

    Its value is a numerator over the product of the denominator factors.
    The numerator is a sum of split terms c * (x^i y^j (x) x^k y^l), given as
    the tuple of (c, (i, j), (k, l)); the left leg becomes an operator-symbol
    monomial and the right leg a matrix in the dual representation.  The
    denominator factor tags are "x" for the difference of outer and inner x,
    and "y" likewise.  The loop element always maps to 1.

    AffineLine / Torus: 1 / (inner x - outer x).
    Plane curve: -F(outer y, inner x) / ((inner x - outer x)(inner y - outer y)),
    with the hyperelliptic form (outer y + inner y) / (inner x - outer x).
    """
    if c.kind in (AFFINE_LINE, TORUS):
        return ((Fraction(1), (0, 0), (0, 0)),), ("x",)
    if c.is_hyperelliptic:
        # (y (x) 1 + 1 (x) y) / (1 (x) x - x (x) 1)
        return ((Fraction(1), (0, 1), (0, 0)), (Fraction(1), (0, 0), (0, 1))), ("x",)
    return tuple((-a, (0, s), (r, 0)) for (r, s), a in c.F.items_sorted()), ("x", "y")


def smoothness_check(c: CurveModel):
    """Best-effort smoothness test for plane curves via iterated resultants.

    Returns (True, None) when no common zero of (F, F'_x, F'_y) is detected,
    else (False, witness) with a nonconstant common factor as the witness.
    Advisory only: downstream constructions assume a smooth curve.
    """
    if c.kind != PLANE_CURVE:
        raise ValueError("smoothness check applies to plane curves only")
    F = c.F
    fc = F.coeffs_in_y()
    if F.degree_y() <= 0 or F.degree_x() <= 0:
        # univariate: squarefree exactly when coprime to its derivative
        f = fc[0] if F.degree_y() <= 0 else UniPoly("y", [e.coeff(0) for e in fc])
        g = f.gcd(f.derivative())
        return (False, repr(g)) if g.degree() > 0 else (True, None)
    # gcd with one zero side is the other side made monic; both zero give 0
    g = resultant(fc, F.partial_x().coeffs_in_y()).gcd(
        resultant(fc, F.partial_y().coeffs_in_y()))
    if g.is_zero:
        return False, "resultants vanish identically"
    if g.degree() > 0:
        return False, repr(g)
    return True, None
