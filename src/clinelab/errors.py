"""Exception hierarchy shared by all clinelab modules."""


class ClineLabError(Exception):
    """Base class for every error raised by this package."""


class ContextMismatch(ClineLabError):
    """Operands live in different rings (or an unsupported ring kind)."""


class BudgetExceeded(ClineLabError):
    """An enumeration would visit more elements than the allowed budget."""


class HypothesisViolation(ClineLabError):
    """A transfer formula was requested for a triple that does not satisfy
    the quintic product hypothesis; the formulas are not valid there."""


class CertificationError(ClineLabError):
    """A conclusion that is provably forced by the hypothesis failed to
    verify.  This always signals an implementation bug (or a genuine
    counterexample to a published identity) and is never a user error."""


class ReadingValidationError(ClineLabError):
    """A built-in operator/matrix construction failed its self-validation
    gate, i.e. the adopted coordinate reading does not reproduce the
    identities it was designed around."""


class InputError(ClineLabError):
    """Malformed user input (JSON literals, CLI arguments, shapes)."""


class WorkerFailure(ClineLabError):
    """A parallel sweep's worker process died, or raised an exception from
    outside this hierarchy; the message is one line, naming that
    exception's type and message."""


class SweepViolation(ClineLabError):
    """A sweep hit a triple violating a selected identity.  Carries the
    offending triple (serialized) and the failing check's name; a single
    such triple falsifies a proved statement, so the sweep aborts."""

    def __init__(self, check: str, triple_json: dict, detail: str):
        self.check = check
        self.triple_json = triple_json
        self.detail = detail
        super().__init__(f"{check} violated: {detail}")
