"""Exception types for contract violations and budget refusals."""


class CMFieldsError(Exception):
    """Base class for all package-specific errors."""


class ClosureTooLarge(CMFieldsError):
    """Galois closure (or an internal splitting algebra) exceeds the desk-scale cap."""


class OrderMismatch(CMFieldsError):
    pass


class ZeroIdeal(CMFieldsError):
    pass


class ZeroElement(CMFieldsError):
    pass


class EnumerationBoundExceeded(CMFieldsError):
    """Lattice enumeration exhausted its budget; reported bound in args."""


class ConjugatesMissing(CMFieldsError):
    """The given field does not contain all conjugates of E."""


class InvariantViolated(CMFieldsError):
    """An identity the algorithms guarantee failed to hold; indicates an implementation bug."""


class NonIntegralIdeal(CMFieldsError):
    pass


class CompositionMismatch(CMFieldsError):
    pass


class SourceMismatch(CMFieldsError):
    pass


class PairMismatch(CMFieldsError):
    pass


class BudgetExceeded(CMFieldsError):
    """A precision budget ran out before a certificate was found."""


class Supersingular(CMFieldsError):
    """The reduction is supersingular; no commutative CM Frobenius lift."""


class BadInput(CMFieldsError):
    """A CLI input is refused: a usage error, an unreadable file or a field that does not parse."""


class BadCorpus(BadInput):
    """A curve record is refused: its field is not an imaginary quadratic (CM) field, or its discriminant or CM endomorphism data do not fit the field."""


class IdentificationFailed(CMFieldsError):
    """Frobenius endomorphism matching failed; model and CM data are inconsistent."""


class RamifiedPrime(CMFieldsError):
    pass


class UnitsUnavailable(CMFieldsError):
    pass


class ModulusTooLarge(CMFieldsError):
    pass


class NonCyclicClassGroup(CMFieldsError):
    """The class group is not cyclic: no class has order h, and ray class groups need one that does."""


class NotCoprime(CMFieldsError):
    pass
