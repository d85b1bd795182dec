"""Exception hierarchy shared across the toolkit."""

from __future__ import annotations


class AgendascopeError(Exception):
    """Base class for all toolkit errors."""


# -- corpus ----------------------------------------------------------------


class DuplicateDocId(AgendascopeError):
    def __init__(self, doc_id: str):
        super().__init__(f"duplicate document id: {doc_id!r}")
        self.doc_id = doc_id


class AllDocumentsEmpty(AgendascopeError):
    pass


class MetadataParseError(AgendascopeError):
    def __init__(self, row: int, message: str):
        super().__init__(f"metadata row {row}: {message}")
        self.row = row


class EmptyDirectory(AgendascopeError):
    pass


# -- model fitting ---------------------------------------------------------


class DimensionMismatch(AgendascopeError):
    pass


class KExceedsVocabulary(AgendascopeError):
    pass


class NonFiniteObjective(AgendascopeError):
    def __init__(self, iteration: int):
        super().__init__(f"objective became non-finite at EM iteration {iteration}")
        self.iteration = iteration


class HessianNotPD(AgendascopeError):
    """A curvature or covariance matrix could not be factored.

    Indefinite E-step curvature is first damped toward the identity; this
    escapes ``fit`` and ``e_step_doc`` when a curvature block is non-finite
    or cannot be damped to positive definite, and ``e_step_doc`` raises it
    for a ``sigma_inv`` that is not positive definite. The effects draws
    raise it for a document's posterior covariance ``nu`` that is not
    positive semidefinite, naming the document.
    """


class SingularDesign(AgendascopeError):
    pass


# -- metrics ---------------------------------------------------------------


class TermAbsentFromCorpus(AgendascopeError):
    def __init__(self, term: str):
        super().__init__(f"term {term!r} occurs in no document of the corpus")
        self.term = term


# -- model search ----------------------------------------------------------


class DegenerateX(AgendascopeError):
    pass


class CandidateFailed(AgendascopeError):
    """One candidate fit of a K search failed; the cause is chained."""

    def __init__(self, k: int, cause: BaseException):
        super().__init__(f"candidate k={k} failed: "
                         f"{type(cause).__name__}: {cause}")
        self.k = k


# -- effects ---------------------------------------------------------------


class FormulaSyntaxError(AgendascopeError):
    """Formula text failed to parse; ``offset`` is the byte position."""

    def __init__(self, offset: int, message: str):
        super().__init__(f"formula syntax error at byte {offset}: {message}")
        self.offset = offset


class UnknownCovariate(AgendascopeError):
    def __init__(self, name: str):
        super().__init__(f"formula references unknown covariate {name!r}")
        self.name = name


class NonNumericSpline(AgendascopeError, ValueError):
    """A spline term names a column that holds text."""

    def __init__(self, name: str):
        super().__init__(f"spline term on non-numeric column {name!r}")
        self.name = name


class InsufficientData(AgendascopeError):
    pass


# -- pipeline --------------------------------------------------------------


class MissingArtifact(AgendascopeError):
    def __init__(self, stage: str, path: str | None = None):
        detail = f" (expected at {path})" if path else ""
        super().__init__(f"missing upstream artifact from stage {stage!r}{detail}")
        self.stage = stage
        self.path = path


class CorruptArtifact(AgendascopeError):
    """An artifact exists but cannot be read, e.g. a truncated file."""

    def __init__(self, path: str, reason: str):
        super().__init__(f"corrupt artifact {path}: {reason}")
        self.path = path
        self.reason = reason


class NonFiniteArtifact(AgendascopeError):
    """An artifact to be written holds a NaN or an infinity, which JSON
    cannot encode; nothing is written."""

    def __init__(self, path: str, reason: str):
        super().__init__(f"cannot write {path}: {reason}")
        self.path = path
        self.reason = reason


class ConfigError(AgendascopeError):
    """Run-configuration validation failure; carries every violation."""

    def __init__(self, violations: list[str]):
        super().__init__("invalid run configuration:\n" + "\n".join(f"  - {v}" for v in violations))
        self.violations = violations
