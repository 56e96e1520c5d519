"""disspec: a desk-scale spectral laboratory for the damped Bresse beam system.

Builds the first-order symbol matrices, computes and verifies eigenvalue
asymptotics, propagates Fourier modes exactly through Putzer's algorithm,
audits the Lyapunov decay machinery, and runs end-to-end decay-rate
experiments.
"""

from .core_model import (SymbolMatrix, SystemParams, build_matrices,
                         build_symbol, char_poly_coeffs, real_symbol_stack,
                         symbol_stack)
from .decay_lab import (DecayFit, Experiment, FrequencyPartition, Profile,
                        build_initial_state, packet_decay_time, run_decay,
                        three_region_synthesis)
from .errors import (CertificateRefused, DisspecError, PreconditionError,
                     RegimeError, SchemaError, SolverError, TailMassError,
                     UnsupportedRegimeError)
from .lyapunov import (AuditReport, LyapunovConstants, audit_inequality,
                       gronwall_check, sandwich_fit, search_constants)
from .propagator import Rule, SymbolPropagator, default_grid
from .spectral import (BranchRate, CardanoClass, GapCertificate,
                       branch_continuation, cardano_classify, eigenvalues_batch,
                       gap_scan, high_freq_expansion, low_freq_expansion)

__version__ = "0.1.0"
