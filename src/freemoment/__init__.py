"""Free Gibbs measures, free moment measures, and noncommutative free transport.

Modules:

* ``measure1d``  - compactly supported measures on the line with transport calculus
* ``gibbs1d``    - free Gibbs measures of even polynomial potentials
* ``moment1d``   - the variational free moment-measure solver
* ``ncseries``   - sparse noncommutative power series and their calculus
* ``sdmoments``  - truncated Schwinger-Dyson moment solver
* ``transport``  - the noncommutative transport fixed point
* ``cli``        - command-line front end
* ``jsonio``     - the JSON round trip shared by the serializable types
"""

from .errors import ConvergenceError, FreeMomentError, InvalidInputError, RegimeError
from .gibbs1d import EvenPotential, GibbsSolution, free_gibbs_measure, fourier_coefficients, \
    hilbert_residual, solve_radius
from .measure1d import GridMeasure, displacement_interpolate, \
    hilbert_transform, log_energy, max_correlation, moment, pushforward_monotone, \
    quantile, semicircle, two_point, uniform, dirac, wasserstein2_sq
from .moment1d import MomentProblem, MomentSolution, MonotoneMap, builtin_target, \
    functional_F, minimize_F, recover_potential_derivative, verify_solution
from .ncseries import NCSeries, apply_to_vector, cyclic_gradient, cyclic_symmetrize, \
    difference_quotient, drop_constant, jacobian, log_neumann, multiply, norm_A, norm_AB, \
    number_op, number_op_inverse, substitute, trace_contract
from .sdmoments import TraceTable, pushforward_trace, sd_residual, solve_sd
from .transport import TransportProblem, TransportSolution, lipschitz_bound, \
    picard_map, solve_V, verify_transport

__version__ = "0.1.0"
