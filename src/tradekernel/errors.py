"""Exception types shared across the package.

Domain-negative outcomes that a caller is expected to branch on (a search
that fails, a vector outside the kernel) get their own class so the CLI can
map them to exit code 1 without string matching.
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
    """No admissible ordering of moves was found.

    Carries the longest prefix that stayed feasible so callers can inspect
    where the schedule got stuck.
    """

    def __init__(self, message: str, prefix=None):
        self.prefix = list(prefix) if prefix is not None else []
        super().__init__(message)


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
    """Malformed input file or text block. The CLI maps this to exit 2."""
