"""The result types are immutable values: fixed fields, a keyword repr,
equality and hashing by field."""

import pytest

from chipfiring import (
    NON_HALTING,
    DistanceResult,
    GameTrace,
    HaltVerdict,
    OracleReport,
    RecToNonhaltInstance,
    TargetSet,
    TssToRecInstance,
    reduce_rec_to_nonhalt,
    reduce_tss_to_rec,
)
from chipfiring.families import complete_graph

K2 = complete_graph(2)
TRACE = GameTrace(firing_order=(0, 1), fire_counts=(1, 1), final=(1, 0))


def _fields(obj, names):
    return {name: getattr(obj, name) for name in names.split()}


CASES = {
    "GameTrace": (GameTrace, _fields(TRACE, "firing_order fire_counts final")),
    "HaltVerdict": (HaltVerdict, {"kind": NON_HALTING, "stable": None, "witness": TRACE}),
    "DistanceResult": (DistanceResult, {"value": 1, "witness": (1, 0)}),
    "TargetSet": (TargetSet, {"members": (0, 2)}),
    "OracleReport": (OracleReport, {"quantity": "q", "pipeline": 1, "oracle": 2,
                                    "agree": False, "fingerprint": "abc"}),
    "TssToRecInstance": (TssToRecInstance, _fields(
        reduce_tss_to_rec(K2, (1, 1)),
        "gprime x N inner core outer owner source tau forced")),
    "RecToNonhaltInstance": (RecToNonhaltInstance, _fields(
        reduce_rec_to_nonhalt(K2, (1, 0)), "gpp fpp M source f")),
}


@pytest.mark.parametrize("cls, fields", CASES.values(), ids=CASES.keys())
def test_result_types_are_frozen_values(cls, fields):
    a, b = cls(**fields), cls(**fields)
    assert a == b
    assert repr(a) == f"{cls.__name__}({', '.join(f'{k}={v!r}' for k, v in fields.items())})"
    for name in (next(iter(fields)), "extra"):
        with pytest.raises(AttributeError):
            setattr(a, name, None)
    assert hash(a) == hash(b)

