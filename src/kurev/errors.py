"""Exception hierarchy shared across the toolkit."""


class KurevError(Exception):
    """Base class for all toolkit errors."""


class CatalogError(KurevError):
    """Malformed or invalid capability catalog."""


class ParseError(KurevError):
    """Catastrophically unparseable Java input."""

    def __init__(self, message: str, offset: int = 0):
        super().__init__(message)
        self.offset = offset


class SchemaError(KurevError):
    """PR export record violates the expected schema."""

    def __init__(self, message: str, record: int | None = None, field: str | None = None):
        super().__init__(message)
        self.record = record
        self.field = field


class SplitError(KurevError):
    """Dataset too small to split into train/test, or a fraction outside [0, 1]."""


class RepositoryError(KurevError):
    """Path is not a readable git repository."""


class AbsentFileError(KurevError):
    """Path does not exist in the repository tree at the given commit."""


class NoKuError(KurevError):
    """PR contains no parseable Java files, so KUREC cannot score it."""


class DegenerateDataError(KurevError):
    """Input has no variance or too few points for the requested analysis."""
