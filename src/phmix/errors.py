"""Exception types shared across the package."""


class PhmixError(Exception):
    """Base class for all library errors."""


class GeometryError(PhmixError):
    """Invalid domain or mesh construction parameters."""


class ConfigurationError(PhmixError):
    """Invalid configuration value (config file, scenario parameter, ...)."""


class MaterialError(PhmixError):
    """Non-physical material parameter or coefficient."""


class MeshCompatibilityError(PhmixError):
    """Two meshes, or two wall boundaries, that must be equal as values
    are not (`fem.require_fit`)."""


class StateValidityError(PhmixError):
    """A state violates positivity (temperature or specific volume)."""

    def __init__(self, field: str, node: int, value: float):
        self.field = field
        self.node = node
        self.value = value
        super().__init__(f"invalid state: {field}[{node}] = {value!r}")


class StepFailureError(PhmixError):
    """Implicit time step did not converge."""

    def __init__(self, message: str, residual: float, iterations: int):
        self.residual = residual
        self.iterations = iterations
        super().__init__(f"{message} (residual {residual:.3e} after {iterations} iterations)")


class SingularJacobianError(PhmixError):
    """The midpoint Jacobian has an exact zero pivot.

    The factorization found no pivot for the column of azimuthal mode
    `mode` of packed unknown `unknown` (an index into the stepper's x); a
    solid unknown stands for its azimuthal line, the channel's are in mode
    0."""

    def __init__(self, unknown: int, name: str, mode: int):
        self.unknown = unknown
        self.mode = mode
        super().__init__(f"singular Jacobian: zero pivot at unknown {unknown} "
                         f"({name}), azimuthal mode {mode}")
