"""Numerical toolkit for rho-numerical radii, operatorial rho-kernels, and
Harnack domination of finite complex matrices."""

from .determinants import (RecurrenceState, capped_kernel_det, capped_kernel_det_matrix,
                           critical_closed_form, discriminant, kernel_det,
                           kernel_det_matrices, kernel_det_matrix, kernel_det_state,
                           kernel_pivot, mixed_identity_residual, recurrence_roots)
from .errors import (BracketInvalidError, GapTooSmallError, InteriorSingularError,
                     NoRootError, NotHermitianError, NotNilpotentError,
                     NotUnitaryError, SingularError, ToolkitError,
                     TorusSpectrumError)
from .harnack import (HarnackCertificate, HarnackEvidence, NullspaceComparison,
                      are_harnack_equivalent, domination_constant,
                      nullspace_equality, torus_spectrum_check)
from .kernel import (ContractionReport, DiscGrid, congruence_factor, has_torus_spectrum,
                     is_rho_contraction, rho_kernel, torus_nullspace)
from .linalg import as_cmatrix, nullspace, spectral_norm, spectral_radius
from .radius import (AngleSystemReport, RadiusResult, angle_system_report, critical_rho,
                     determinant_radius, nilpotent_margin, omega_of_rho_curve,
                     oscillatory_closed_form, radius_bisect, shift_radius)
from .shifts import make_shift, normalized_shift
from .structure import (MembershipReport, NullProfile, canonical_form_c2,
                        circle_null_vectors, commutant_dimension, membership_necessary_conditions,
                        null_profile, rotation_family_check, unitary_orbit_predicate)
from .verify import CheckResult, VerifyReport, run_battery

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
