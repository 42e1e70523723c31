"""Exception types shared across the package.

Each error renders the object the CLI prints for it (``to_json``): its
``kind`` and message, and the fields that locate it.
"""


class Error(Exception):
    """Base class for all errors raised by this package; each subclass
    names its ``kind``."""

    def to_json(self):
        return {"kind": self.kind, "message": str(self)}


class InputError(Error):
    """A caller-supplied value violates a documented precondition."""

    kind = "input"


class ResourceError(Error):
    """A computation would exceed the configured search bounds.

    ``layer`` names the part of the package that refused (``"homcount"``,
    ``"oracle"``, ...); ``estimate`` is the work it estimated and
    ``ceiling`` the bound that estimate exceeded, when there is one.
    """

    kind = "resource"

    def __init__(self, message, estimate=None, ceiling=None, layer=None):
        super().__init__(message)
        self.estimate = estimate
        self.ceiling = ceiling
        self.layer = layer

    def to_json(self):
        return {"kind": self.kind, "layer": self.layer,
                "estimate": self.estimate, "ceiling": self.ceiling,
                "message": str(self)}


class SchemaError(Error):
    """A JSON document does not match the expected schema.

    ``path`` locates the offending value, e.g. ``branches[2].psi.g``.
    """

    kind = "schema"

    def __init__(self, path, message):
        super().__init__(f"{path}: {message}" if path else message)
        self.path = path
        self.message = message

    def to_json(self):
        return {"kind": self.kind, "path": self.path,
                "message": self.message}
