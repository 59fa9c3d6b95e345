"""Every check fires on its planted fault and every forbidden call stays
unmade: one item per (row, consumer) pair of helpers.FAULTS and
helpers.FORBIDDEN, a consumer in a row's `gaps` as a strict xfail."""

import pytest

from helpers import FAULTS, FORBIDDEN, consumer_id, forbid_calls, plant_fault

# FOUND CHANGES.md:76: P is proven invertible only where P^-1 is formed
_GAP = pytest.mark.xfail(strict=True, reason="reads the split without the proof that P is invertible")


@pytest.mark.parametrize("fault, consumer", [
    pytest.param(row, consumer, id=f"{row.check}: {row.fault}: {consumer_id(consumer)}", marks=_GAP if consumer in row.gaps else ())
    for row in FAULTS for consumer in row.consumers + row.gaps
])
def test_planted_fault_ends_in_verification_error(fault, consumer, monkeypatch, tmp_path, capsys):
    plant_fault(fault, consumer, monkeypatch, tmp_path, capsys)


@pytest.mark.parametrize("row, consumer", [
    pytest.param(row, consumer, id=f"{row.what}: {consumer_id(consumer)}") for row in FORBIDDEN for consumer in row.consumers
])
def test_forbidden_call_is_not_made(row, consumer, monkeypatch, tmp_path, capsys):
    forbid_calls(row, consumer, monkeypatch, tmp_path, capsys)
