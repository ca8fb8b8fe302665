"""Exception types shared across the package."""


def format_count(count: int) -> str:
    """``count`` in decimal, or, past 100 digits, as its number of digits:
    Python refuses to convert an integer of more than 4,300 digits to text."""
    if count < 10**100:
        return str(count)
    # the digits of 2^(bit_length - 1), or fewer: log10(2) rounded down
    digits = int((count.bit_length() - 1) * 0.30102999) + 1
    while 10**digits <= count:
        digits += 1
    return f"a {digits}-digit number"


class DegreeMismatch(ValueError):
    """Raised when combining transformations or wreath elements of different degrees."""

    def __init__(self, left, right):
        self.left = left
        self.right = right
        super().__init__(f"degree mismatch: {left} vs {right}")


class CapacityError(RuntimeError):
    """A computation exceeded its configured budget.

    ``count`` holds the partial count reached (elements enumerated, subsets
    searched, ...) when the budget ran out.
    """

    def __init__(self, message, count=None):
        self.count = count
        super().__init__(message if count is None else f"{message} (reached {format_count(count)})")


class InternalError(RuntimeError):
    """An invariant of the package's own algorithms failed: a program fault."""


class MonoidValidationError(ValueError):
    """A raw Cayley table failed validation; ``witness`` names the offending data."""

    def __init__(self, message, witness=None):
        self.witness = witness
        super().__init__(message)


class ActionError(ValueError):
    """A semigroup action violated one of its axioms."""

    def __init__(self, axiom, witness):
        self.axiom = axiom
        self.witness = witness
        super().__init__(f"action axiom {axiom} fails at {witness}")


class PreconditionError(ValueError):
    """A theorem hypothesis required by an operation does not hold."""

    def __init__(self, message, witness=None):
        self.witness = witness
        super().__init__(message)


class ForeignElementError(ValueError):
    """An element was passed that does not belong to the expected carrier."""
