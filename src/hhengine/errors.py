"""Exception types shared across the engine."""


class EngineError(Exception):
    pass


class NotAGroup(EngineError):
    """Cayley table fails a group axiom; args carry the failing witness."""


class CyclicQuiver(EngineError):
    """Path basis would be infinite."""


class AlgebraMismatch(EngineError):
    """Composition attempted over different middle algebras."""


class NotPerfect(EngineError):
    """A complex term is not projective over the required context."""


class ResolutionTooLong(EngineError):
    """Kernel still non-projective at max_length (non-smooth instance)."""


class InvariantViolation(EngineError):
    """An internal witness check failed: a computed section, coordinate or
    closure does not satisfy the identity it was built to satisfy."""


class SerreInverseFailed(EngineError):
    """No quasi-isomorphism witness for serre . anti_serre ~ identity."""


class SpaceMismatch(EngineError):
    pass


class ShapeMismatch(EngineError):
    pass


class BoundaryMismatch(EngineError):
    """Vertical composition of diagram terms with incompatible boundaries."""


class DiagramSyntaxError(EngineError):
    def __init__(self, message, line, column):
        super().__init__(f"{message} at line {line}, column {column}")
        self.line = line
        self.column = column


class UnknownPrimitive(EngineError):
    pass


class SchemaError(EngineError):
    """Workspace file does not match the schema (CLI exit code 2)."""


class TaskError(EngineError):
    """A task failed; args carry the task id (CLI exit code 1)."""


class UnknownTask(EngineError):
    pass
