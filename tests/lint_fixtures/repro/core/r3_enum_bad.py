"""R3 trip fixture: enum member loads inside per-access function bodies."""

from repro.core.access import AccessRole, Priority, RequestType
from repro.dram.bank import RowState


def route(access):
    if access.priority == Priority.LR:                  # expect: R3
        return "write"
    return "read"


class Completion:
    __slots__ = ("done",)

    def on_complete(self, access):
        if access.role == AccessRole.TAG_READ:          # expect: R3
            self.done = access.request.rtype.name
        elif access.request.rtype == RequestType.READ:  # expect: R3
            self.done = RowState.HIT.name               # expect: R3

    def nested(self, accesses):
        def is_pr(a):
            return a.priority == Priority.PR            # expect: R3
        return [a for a in accesses if is_pr(a)]


by_role = sorted([], key=lambda a: a.role == AccessRole.DATA_READ)  # expect: R3
