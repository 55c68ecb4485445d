"""Exception hierarchy shared by every module.

Three failure families, mapped to distinct CLI exit codes:

* ValidationError   -- malformed or inconsistent input data (exit 2)
* AmbiguityError    -- the computation cannot be decided at the requested
                       resolution (undersampled path, non-isolated crossing,
                       tangent eigenvalue, ...) (exit 3)
* PreconditionError -- a documented mathematical precondition fails
                       (non-transversal pair, non-regular crossing, ...)
                       (exit 4)
"""


__all__ = [
    "MasidxError",
    "ValidationError",
    "AmbiguityError",
    "PreconditionError",
]


class MasidxError(Exception):
    """Base class for all package errors."""

    def __init__(self, reason, where=None):
        self.reason = str(reason)
        self.where = where
        msg = self.reason if where is None else f"{self.reason} (at {where})"
        super().__init__(msg)


class ValidationError(MasidxError):
    pass


class AmbiguityError(MasidxError):
    pass


class PreconditionError(MasidxError):
    pass
