"""Exception hierarchy shared by all bistoch modules."""


class BistochError(Exception):
    """Base class for all library errors."""


class NegativeEntry(BistochError):
    def __init__(self, index, value):
        self.index = index
        self.value = value
        super().__init__(f"negative entry {value} at {index}")


class NonFiniteEntry(BistochError):
    def __init__(self, index, value):
        self.index = index
        self.value = value
        super().__init__(f"non-finite entry {value} at {index}")


class NonPositiveEntry(BistochError):
    pass


class NotSquare(BistochError):
    pass


class NotStochastic(BistochError, ValueError):
    """Column sums (or a probability vector's entries) do not sum to one.

    Also a ``ValueError``, so callers that catch ``ValueError`` from the
    ``ProbVec`` constructor keep working.
    """


class NotBiStochastic(BistochError):
    pass


class DimensionMismatch(BistochError):
    pass


class ModeMismatch(BistochError):
    pass


class IndexOutOfRange(BistochError):
    pass


class NotFixedPoint(BistochError):
    pass


class ZeroComponent(BistochError):
    pass


class NotExact(BistochError):
    pass


class TooManyDigits(BistochError):
    """An exact value whose numerator or denominator has more digits than
    Python writes an int with (``sys.get_int_max_str_digits()``)."""


class TooManyStates(BistochError):
    """A construction whose fine-grained dimension d is past what numpy can index."""


class InvalidRightInverse(BistochError):
    pass


class InvalidPartition(BistochError):
    pass


class DimensionTooSmall(BistochError):
    pass


class NotConverged(BistochError):
    def __init__(self, iterations, defect):
        self.iterations = iterations
        self.defect = defect
        super().__init__(f"no convergence after {iterations} iterations (defect {defect})")


class ParameterOutOfRange(BistochError):
    pass


class AnchorOutsideRegion(BistochError):
    pass


class NoPerfectMatching(BistochError):
    pass


class DemoMismatch(BistochError):
    pass
