"""Mixed-dimensional geometric coupling of port-Hamiltonian systems:
a heat-conducting solid coupled to a 1D coolant channel through the
integrate-over-the-cross-section / embed operator pair on a tensor-product
boundary, with machine-checkable structure (adjointness, skew-symmetry,
power balance, entropy production)."""

from .config import GeometryConfig, RunConfig, config_from_dict, \
    config_to_dict, default_config, load_config
from .coupling import check_power_balance, check_transpose_identity, \
    continuous_interconnect, resolve_ports
from .dirac import LineField, SurfaceField, VerificationReport, \
    check_adjointness, check_dirac_pairing, embed, integrate_out, j_matrix, \
    operator_norm_bound_check
from .driver import Problem, build_problem, convergence_study, \
    make_simulation, run_from_config
from .errors import ConfigurationError, GeometryError, MaterialError, \
    MeshCompatibilityError, PhmixError, SingularJacobianError, \
    StateValidityError, StepFailureError
from .fem import CouplingOperators, LineBasis, SurfaceBasis, VolumeBasis, \
    assemble_coupling, assemble_mass, assemble_stiffness, lumped_mass
from .fluid import FluidMaterial, FluidState, FluidSystem, eos, sound_speed
from .geometry import IntervalMesh, SolidDomain, TensorBoundary, \
    build_solid_domain
from .heat import HeatMaterial, HeatState, HeatSystem, energy_density, \
    entropy_of_temperature, temperature_of_entropy
from .simulate import CoupledSimulation, EnergyLedger, LedgerRecord, \
    SCENARIOS, ScenarioSetup, SimConfig, SimResult, build_scenario, \
    measure_pulse_speed, write_fluid_snapshot, write_heat_snapshot

__version__ = "0.1.0"
