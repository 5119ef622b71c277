"""Record classes: frozen, with equality and hashing from their fields."""

import pytest

from battery import cubic_plus_one
from cmforge.cmspace import OneForm, generic_point, relation_set, verify_relations
from cmforge.curve import affine_line, torus
from cmforge.diffop import CoeffRing
from cmforge.exact import BiPoly, RationalRing, UniPoly
from cmforge.forge import ideal_generators, kappa
from cmforge.szego import LocalKernel, extract_operator


def _torus_point():
    return generic_point(torus(), [1, 2], [1, -1])


def _kernel():
    return LocalKernel(BiPoly({(0, 0): 1, (1, 1): 2, (0, 1): -3}), 2)


# (class name, builder of a fresh instance, a field to assign; RationalRing has
# none, so any name): the builder runs twice, so the two instances are equal
# but not the same object
RECORDS = [
    ("CurveModel", cubic_plus_one, "kind"),
    ("Relation", lambda: relation_set(affine_line(), 2, 1)[0], "terms"),
    ("CMPoint", _torus_point, "Zmat"),
    ("VerifyReport", lambda: verify_relations(_torus_point()), "entries"),
    ("OneForm", lambda: OneForm(torus(), BiPoly.const(3), -1), "x_shift"),
    ("CoeffRing", lambda: CoeffRing(UniPoly("x", [1, 0, 0, 1])), "P"),
    ("FractionalIdeal", lambda: ideal_generators(_torus_point()), "generators"),
    ("RationalRing", RationalRing, "foo"),
    ("OrderedProduct", lambda: kappa(generic_point(affine_line(), [0, 1])), "factors"),
    ("LocalKernel", _kernel, "pole_order"),
    ("HalfFormOp", lambda: extract_operator(_kernel()), "a"),
]


@pytest.mark.parametrize("name, build, field", RECORDS, ids=[r[0] for r in RECORDS])
def test_records_are_frozen_and_hash_by_value(name, build, field):
    a, b = build(), build()
    assert type(a).__name__ == name and a is not b
    with pytest.raises(AttributeError):
        setattr(a, field, None)
    assert a == b and hash(a) == hash(b)

