"""Exception types shared across the package."""


class Error(Exception):
    """Base class for all errors raised by this package."""


class InputError(Error):
    """A caller-supplied value violates a documented precondition."""


class ResourceError(Error):
    """A computation would exceed the configured search bounds.

    ``layer`` names the part of the package that refused (``"homcount"``,
    ``"oracle"``, ...); ``estimate`` is the work it estimated and
    ``ceiling`` the bound that estimate exceeded, when there is one.
    """

    def __init__(self, message, estimate=None, ceiling=None, layer=None):
        super().__init__(message)
        self.estimate = estimate
        self.ceiling = ceiling
        self.layer = layer


class SchemaError(Error):
    """A JSON document does not match the expected schema.

    ``path`` locates the offending value, e.g. ``branches[2].psi.g``.
    """

    def __init__(self, path, message):
        super().__init__(f"{path}: {message}" if path else message)
        self.path = path
        self.message = message
