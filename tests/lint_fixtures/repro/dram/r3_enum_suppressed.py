"""R3 suppression fixture: a sanctioned per-call enum load, waived in place."""

from repro.dram.bank import RowState


def describe(state):
    # Debug formatting only, never on the simulation path.
    return RowState.HIT.name if state == 1 else "other"  # dca-lint: disable=R3
