"""Exception taxonomy shared by all modules.

Every error carries a stable machine-readable ``code`` so the CLI can
surface it in report envelopes without string matching.
"""


class ExceptioError(Exception):
    code = "DomainError"

    def __init__(self, message: str = ""):
        super().__init__(message or self.code)


# intpoly
class EmptyCoefficients(ExceptioError):
    code = "EmptyCoefficients"


class ZeroFactor(ExceptioError):
    code = "ZeroFactor"


class ZeroPolynomial(ExceptioError):
    code = "ZeroPolynomial"


class NotPrime(ExceptioError):
    code = "NotPrime"


class ZeroModP(ExceptioError):
    code = "ZeroModP"


class NonMonic(ExceptioError):
    code = "NonMonic"


class DegreeZero(ExceptioError):
    code = "DegreeZero"


class NotSquareFree(ExceptioError):
    code = "NotSquareFree"


class ZeroResultant(ExceptioError):
    code = "ZeroResultant"


class ParseError(ExceptioError):
    code = "ParseError"


class RootBoundTooLarge(ExceptioError):
    code = "RootBoundTooLarge"


# primescan
class LimitTooLarge(ExceptioError):
    code = "LimitTooLarge"


class ModulusTooLarge(ExceptioError):
    code = "ModulusTooLarge"


# permgroup
class GroupTooLarge(ExceptioError):
    code = "GroupTooLarge"


class DegreeMismatch(ExceptioError):
    code = "DegreeMismatch"


class PointOutOfRange(ExceptioError):
    code = "PointOutOfRange"


class NotIndexTwo(ExceptioError):
    code = "NotIndexTwo"


class NotTransitive(ExceptioError):
    code = "NotTransitive"


class DegreeTooSmall(ExceptioError):
    code = "DegreeTooSmall"


class DegreeTooLarge(ExceptioError):
    code = "DegreeTooLarge"


class BadParameters(ExceptioError):
    code = "BadParameters"


# kummer / goodsets
class EmptySet(ExceptioError):
    code = "EmptySet"


class SupportMismatch(ExceptioError):
    code = "SupportMismatch"


class EnumerationTooLarge(ExceptioError):
    code = "EnumerationTooLarge"


class DimensionTooLarge(ExceptioError):
    code = "DimensionTooLarge"


# nt
class FactorizationTooLarge(ExceptioError):
    code = "FactorizationTooLarge"


# quadcomplete
class EvenOrCompositeP(ExceptioError):
    code = "EvenOrCompositeP"


class NotCubic(ExceptioError):
    code = "NotCubic"


class SquareDiscriminant(ExceptioError):
    code = "SquareDiscriminant"


class ReducibleCubic(ExceptioError):
    code = "ReducibleCubic"


class NoCandidateInRange(ExceptioError):
    code = "NoCandidateInRange"


# cli / cache
class CacheIoError(ExceptioError):
    code = "IoError"


class CorruptCacheEntry(ExceptioError):
    code = "CorruptCacheEntry"
