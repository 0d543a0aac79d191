"""Exception hierarchy shared by all icskg modules."""


class IcskgError(Exception):
    """Base class for every error raised by this package."""


# ---------------------------------------------------------------------------
# Graph construction / querying
# ---------------------------------------------------------------------------

class GraphError(IcskgError):
    pass


class InvalidNode(GraphError):
    """Node violates its own invariants (e.g. a Product without a zone)."""


class InvalidCriticality(GraphError):
    """Criticality outside the 0..10 range."""


class KindConflict(GraphError):
    """An existing node id was re-upserted with a different kind."""


class MissingEndpoint(GraphError):
    """Edge references a node id that does not exist."""


class KindConstraintViolation(GraphError):
    """Edge kind does not admit the given endpoint node kinds."""


class GraphNotFinalized(GraphError):
    """Views were requested before the build phase was closed."""


class GraphFinalized(GraphError):
    """Mutation attempted after the graph was frozen."""


class UnknownNode(GraphError):
    pass


class EmptyGraph(GraphError):
    """Analytics requested on a view with no nodes."""


# ---------------------------------------------------------------------------
# Ingestion
# ---------------------------------------------------------------------------

class IngestError(IcskgError):
    pass


class MissingColumn(IngestError):
    """CSV file lacks a required header column."""


class BadEnum(IngestError):
    """A CSV cell holds a value outside its enumeration."""


class DanglingReference(IngestError):
    """A relation row references a node id that was never loaded."""


class CorruptState(IngestError):
    """A saved state file holds a row that cannot be loaded back."""


# ---------------------------------------------------------------------------
# Scenario harness / CLI
# ---------------------------------------------------------------------------

class SelectorEmpty(IcskgError):
    """A scenario selector resolved to zero nodes."""


class StageOrderError(IcskgError):
    """A pipeline stage ran before its prerequisite stage."""


class InvariantViolation(IcskgError):
    """An internal consistency check failed; indicates a bug, exit code 4."""
