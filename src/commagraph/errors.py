"""Exception types raised by constructors and validators.

Every error that can be triggered by bad user input derives from
:class:`InputError`, so the CLI can map the whole family to exit code 2.
A bad flag, an unknown suite name or an out-of-range suite bound raises
:class:`UsageError` instead, which the CLI maps to exit code 3.
"""


class InputError(Exception):
    """Base class for rejected constructions and malformed inputs."""


class DuplicateLabel(InputError):
    pass


class NotTotal(InputError):
    pass


class NotInCodomain(InputError):
    pass


class DomainMismatch(InputError):
    pass


class LoopEdge(InputError):
    pass


class UnknownVertex(InputError):
    pass


class UnknownGenerator(InputError):
    pass


class NotAssociative(InputError):
    pass


class NoIdentity(InputError):
    pass


class NoInverse(InputError):
    pass


class NotAPermutation(InputError):
    pass


class OrderCapExceeded(InputError):
    pass


class HomCapExceeded(InputError):
    pass


class InvalidHom(InputError):
    pass


class MissingImage(InputError):
    pass


class UnknownElement(InputError):
    pass


class ObjectMismatch(InputError):
    pass


class NotFiniteTarget(InputError):
    pass


class MalformedInput(InputError):
    """A JSON document does not match the expected shape."""


class NotFactorable(Exception):
    """A comma morphism out of an embedded graph failed to factor through
    the coreflection.  This never happens for valid inputs; seeing it means
    the coreflector and the embedding disagree, i.e. an internal bug."""


class UsageError(ValueError):
    """A bad flag, an unknown suite name or a bound outside its legal range."""


class UnknownSuite(UsageError, KeyError):
    """A suite name the verification registry does not hold."""

    __str__ = Exception.__str__  # KeyError would quote the message
