"""Exception taxonomy shared across the package."""


class GraphError(Exception):
    """Base class for all library errors."""


class InvalidParameterError(GraphError):
    """A size or option is out of range, meaningless for the operation, or
    not an int (a bool does not count as one)."""


class CapacityError(GraphError):
    """A size limit would be exceeded: the 64-vertex capacity of a graph
    built from a caller's size (``Graph(n, edges)``, a theta spec, a named
    generator), the 258047-vertex graph6 size form on output, the cap on
    maximal independent sets (``SetCountCapError``), or the 2^15-node
    capacity of a slide graph, whose skeleton rows grow with the square of
    its node count.  The CLI exits 3 on this class and every subclass."""


class FormatError(GraphError):
    """Malformed or unreadable text input (edge list, graph6, rotation
    file, slide-graph JSON)."""


class SetCountCapError(CapacityError):
    """Enumeration aborted: more maximal independent sets than the cap allows."""


class InvalidThetaSpecError(InvalidParameterError):
    """A (j, k, l) triple does not describe a simple theta graph; a usage
    error like any other bad parameter."""


class NotALineGraphError(GraphError):
    """No Krausz partition exists: the input is not a line graph."""


class DiamondFoundError(GraphError):
    """The input contains an induced K_4 minus an edge, so no seed exists."""


class RotationError(GraphError):
    """Rotation system inconsistent with the graph."""


class NonSimpleDualError(GraphError):
    """Face tracing produced a dual with loops or parallel edges."""


class NotCubicError(GraphError):
    """Planar-seed input must be 3-regular."""


class NotBipartiteError(GraphError):
    """Planar-seed input must be bipartite."""


class NotConnectedError(GraphError):
    """Operation requires a connected input."""


class NotPlanarEmbeddingError(GraphError):
    """Rotation system does not describe a sphere embedding (Euler check failed)."""


class DeletionPreconditionError(GraphError):
    """Deletion preconditions violated (the target is not an i-set of the
    complement, or it is the only one)."""

