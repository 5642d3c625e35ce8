"""Every value class is an immutable dataclass that pickles and copies."""

import copy
import pickle
from dataclasses import fields

import pytest

from sgq import BlockProfile, GaussianRational, SuperRing, SuperShape
from sgq.algebra import SuperHom
from sgq.grassmannian import standard_point
from sgq.sampling import random_big_cell, random_element, random_ncoords, trial_rng
from sgq.smoothness import Presentation, RationalPoint, is_smooth_at

BP = BlockProfile(2, 2, 1, 1)
RING = SuperRing(["x"], ["t1", "t2"])


def _hom():
    return SuperHom(RING, RING, {"x": RING.gen("x") + 1, "t1": RING.gen("t2"), "t2": RING.gen("t1")})


def _presentation():
    total = SuperRing(["y"], ["s"])
    return Presentation(SuperRing(), ["y"], ["s"], [total.gen("y") ** 2 - total.one()], [])


SAMPLES = {
    "GaussianRational": lambda: GaussianRational(2, -1) / 3,
    "SuperRing": lambda: RING,
    "SuperElement": lambda: random_element(RING, trial_rng(1, "values", 0), max_terms=4),
    "SuperHom": _hom,
    "SuperMatrix": lambda: random_big_cell(RING, BP, trial_rng(1, "values", 1)),
    "NCoordinates": lambda: random_ncoords(RING, BP, trial_rng(1, "values", 2)),
    "GrassmannianPoint": lambda: standard_point(BP, RING),
    "Presentation": _presentation,
    "RationalPoint": lambda: RationalPoint({"y": 1}),
    "SuperShape": lambda: SuperShape((1, 2), (2, 1)),
    "BlockProfile": lambda: BP,
    "SmoothnessVerdict": lambda: is_smooth_at(_presentation(), RationalPoint({"y": 1})),
}

# compared by identity, so a copy can only match field by field
IDENTITY_EQUALITY = {"SuperHom", "GrassmannianPoint", "Presentation", "RationalPoint"}

ROUND_TRIPS = {
    "pickle": lambda value: pickle.loads(pickle.dumps(value)),
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
}


def _field_values(value):
    return [getattr(value, f.name) for f in fields(value)]


@pytest.mark.parametrize("how", sorted(ROUND_TRIPS))
@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_value_round_trips(name, how):
    value = SAMPLES[name]()
    assert type(value).__name__ == name
    result = ROUND_TRIPS[how](value)
    assert type(result) is type(value)
    if name in IDENTITY_EQUALITY:
        assert _field_values(result) == _field_values(value)
    else:
        assert result == value
        assert hash(result) == hash(value)


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_value_rejects_attribute_assignment(name):
    value = SAMPLES[name]()
    before = _field_values(value)
    first = fields(value)[0].name
    with pytest.raises(AttributeError):
        setattr(value, first, None)
    # on Python 3.11 a frozen slotted dataclass raises TypeError, not
    # AttributeError, when the name is not a field
    with pytest.raises((AttributeError, TypeError)):
        value.extra = None
    assert _field_values(value) == before
