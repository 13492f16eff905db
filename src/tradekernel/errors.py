"""Exception types shared across the package.

Domain-negative outcomes that a caller is expected to branch on (a search
that fails, a vector outside the kernel) get their own class so the CLI can
map them to exit code 1 without string matching. A file that parses but
breaks a rule of its kind is an InvalidObjectError, `validate`'s verdict.
"""


class TradeKernelError(Exception):
    """Base class for all package errors."""


class KernelMembershipError(TradeKernelError):
    """Vector is not in the kernel of the relevant inclusion matrix."""

    def __init__(self, row: int, label: str, value):
        self.row = row
        self.label = label
        self.value = value
        super().__init__(f"not a kernel vector: row {row} ({label}) has dot product {value}")


class NotAdmissibleError(TradeKernelError):
    """No 4-cycle decomposition of K_n exists for this order."""

    def __init__(self, n: int):
        self.n = n
        super().__init__(f"K_{n} has no 4-cycle system (need n = 1 mod 8)")


class SearchExhaustedError(TradeKernelError):
    """A bounded search ran out of budget before finding anything."""

    def __init__(self, budget: int, detail: str = ""):
        self.budget = budget
        msg = f"search exhausted its budget of {budget} nodes"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class SpanDeficientError(TradeKernelError):
    """The double diamonds do not span the cycle-space kernel at this order."""

    def __init__(self, n: int, span_rank: int, kernel_dim: int):
        self.n = n
        self.span_rank = span_rank
        self.kernel_dim = kernel_dim
        super().__init__(
            f"n={n}: diamond span rank {span_rank} < kernel dimension {kernel_dim}"
        )


class ScheduleFailureError(TradeKernelError):
    """The best-first move search (strict at lambda 1, lifted up to
    lambda_max) found no path within its node budget, or strict saw every
    state reachable from its start and none was the goal."""


class MissingCyclesError(TradeKernelError):
    """A diamond move tried to remove cycles absent from the state."""

    def __init__(self, cycles):
        self.cycles = sorted(cycles)
        super().__init__(f"move removes cycles not present in the state: {self.cycles}")


class IdenticalSquaresError(TradeKernelError):
    """Two latin squares were expected to differ but do not."""

    def __init__(self):
        super().__init__("squares are identical; the difference trade is empty")


class VerificationError(TradeKernelError):
    """An internal exactness check failed: a result the package was about
    to return is not what it claims to be. Raised explicitly, never by
    assert, so that `python -O` cannot switch the check off."""


class FormatError(TradeKernelError):
    """Malformed input file or text block, or a path that cannot be read or
    written. The CLI maps this to exit 2."""


class InvalidObjectError(FormatError):
    """A file that parses but whose object breaks a rule of its kind ("square",
    "trade", "system" or "pair"): message is the bare reason, condition the
    failed latin trade condition where there is one. `validate` reports it
    (exit 1); any other command exits 2 with its text."""

    def __init__(self, kind: str, message: str, condition: int | None = None):
        self.kind, self.message, self.condition = kind, message, condition
        reason = message if condition is None else f"not a trade (condition {condition}): {message}"
        prefix = {"system": "cycle file", "pair": "trade pair: not a trade pair"}.get(kind, kind)
        super().__init__(f"{prefix}: {reason}")
