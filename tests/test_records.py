"""The package's value records (combinatorics.Record and FrozenRecord) behave as the dataclasses they replaced:
construction by position or name with the same defaults, equality within one class, `Name(field=value, ...)`
reprs, and for the frozen ones a hash equal to that of the field tuple and no assignment."""

from fractions import Fraction

import pytest

from ffstat import gf, statistics as st, verify
from ffstat.combinatorics import Partition
from ffstat.gf import DEFAULT_BUDGET
from ffstat.polyring import Poly
from ffstat.verify import CoverageStatus

F2 = gf.make_field(2, 1)
F3 = gf.make_field(3, 1)
COVERED = CoverageStatus.COVERED

# (class, frozen, its fields in order, and a second value of the last field)
RECORDS = [
    (Partition, True, {"parts": (2, 1)}, (3,)),
    (gf.FieldSpec, True, {"p": 2, "nu": 2, "modulus": (1, 1, 1), "q": 4}, 8),
    (st.IntervalSpec, True, {"f": Poly(F2, (1, 0, 1)), "m": 0}, 1),
    (st.ProgressionSpec, True, {"D": Poly(F3, (0, 1)), "f": Poly(F3, (1,)), "k": 3}, 4),
    (st.TypeCensus, False, {"k": 2, "counts": {Partition((2,)): 1}}, {}),
    (st.NuDecomposition, True, {"k_pi": 2, "proper_terms": {2: 1}, "epsilon": 1, "reconstructed": 2}, 3),
    (verify.Coverage, True, {"status": COVERED, "detail": "all hypotheses hold"}, "x"),
    (verify.ScanOptions, False, {"workers": 1, "budget": DEFAULT_BUDGET, "per_cell": False, "max_cells": None}, 7),
    (verify.CellRecord, True,
     {"cell_id": 0, "label": "t^2", "count": 1, "expected": Fraction(1, 2), "abs_dev": Fraction(1, 2),
      "status": COVERED}, CoverageStatus.EXCLUDED_SMALL_M),
    (verify.DeviationReport, False,
     {"mode": "interval", "q": 3, "k": 4, "m": 2, "lam": Partition((4,)), "cells": 3, "covered_cells": 3,
      "total_count": 20, "expected": Fraction(27, 4), "max_abs_dev": Fraction(1, 4), "normalized_constant": "0.01",
      "excluded": {}, "truncated": False, "per_cell": None}, ()),
    (verify.CounterexampleReport, True,
     {"kind": "m0", "q": 7, "k": 3, "expected": 4, "actual": 4, "agrees": True}, None),
    (verify.VarianceTrendReport, True, {"k": 5, "m": 1, "per_q": ((2, Fraction(1, 2)),), "limit": 2}, 3),
]
DEFAULTS = {
    verify.ScanOptions: ["workers", "budget", "per_cell", "max_cells"],
    verify.DeviationReport: ["truncated", "per_cell"],
}


@pytest.mark.parametrize("cls, frozen, fields, other_last", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_record_semantics(cls, frozen, fields, other_last):
    assert cls.__slots__ == tuple(cls.__annotations__) == tuple(fields)
    values = tuple(fields.values())
    rec = cls(*values)
    assert tuple(getattr(rec, name) for name in fields) == values
    assert cls(**fields) == rec and not cls(**fields) != rec
    assert cls(*values[:1], **dict(list(fields.items())[1:])) == rec
    assert cls(*values[:-1], other_last) != rec
    others = [other(*f.values()) for other, _, f, _ in RECORDS if other is not cls]
    assert all(rec != other for other in others) and rec != values
    assert repr(rec) == f"{cls.__name__}(" + ", ".join(f"{name}={value!r}" for name, value in fields.items()) + ")"
    # the defaults, and nothing else, may be left out
    left_out = DEFAULTS.get(cls, [])
    assert cls(**{name: value for name, value in fields.items() if name not in left_out}) == rec
    with pytest.raises(TypeError):
        cls(*values, values[-1])
    required = [name for name in fields if name not in left_out]
    if required:
        with pytest.raises(TypeError):
            cls(**{name: value for name, value in fields.items() if name != required[0]})
    with pytest.raises(TypeError):
        cls(*values, no_such_field=1)
    name = list(fields)[-1]
    if frozen:
        try:
            expected = hash(values)
        except TypeError:  # a dict field: unhashable, as a frozen dataclass holding one was
            with pytest.raises(TypeError):
                hash(rec)
        else:
            assert hash(rec) == expected
        with pytest.raises(AttributeError):
            setattr(rec, name, other_last)
        with pytest.raises(AttributeError):
            delattr(rec, name)
        assert getattr(rec, name) == values[-1]
    else:
        with pytest.raises(TypeError):
            hash(rec)
        setattr(rec, name, other_last)
        assert rec == cls(*values[:-1], other_last)
    with pytest.raises(AttributeError):  # slotted: no field can be added
        rec.no_such_field = 1


def test_partition_messages():
    cases = [((), "empty partition"), ((2, 0), "part 0 must be >= 1"), ((1, 2), "parts must be nonincreasing")]
    for parts, message in cases:
        with pytest.raises(ValueError, match=f"^{message}$"):
            Partition(parts)
