"""R3 clean fixture: enum members bound at import time, constants per call."""

from repro.core.access import PR, REQ_READ, AccessRole, Priority, RequestType

#: module level: evaluated once at import
READ_ROLES = frozenset({AccessRole.TAG_READ, AccessRole.DATA_READ})


class Router:
    __slots__ = ()

    #: class body: evaluated once, when the class is defined
    DEFAULT = RequestType.WRITEBACK

    def route(self, access, held=Priority.LR):    # default: bound at def time
        if access.priority == held or access.role in READ_ROLES:
            return "read"
        return "write" if access.request.rtype != REQ_READ else "read"


def is_priority_read(access):
    return access.priority == PR


def make(kind):
    return RequestType(kind)      # a call, not a member load
