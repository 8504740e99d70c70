"""Exact-arithmetic toolkit for the tau-function of topological 2D gravity.

Computes psi-class intersection numbers and connected n-point functions from
the fermionic two-point kernel of the Airy point of the big cell, with a
generic Sato-Grassmannian layer (admissible frames, Plucker minors, Schur
expansions) and a KP wave-function layer used for independent verification.
All arithmetic is exact rational; nothing here ever touches floating point.
"""

from .airy import (Kernel, alternate, check_all_routes, closed_entry,
                   faber_zagier_identity_check, kernel_closed,
                   kernel_diagonal, kernel_frame, kernel_gmatrix,
                   kernel_series, slope_series, wave_series)
from .errors import (AirytauError, CrossCheckError, InsufficientCutoffError,
                     InvalidKeyError, WindowError)
from .grassmann import (AdmissibleFrame, AffineCoords,
                        plucker_from_admissible, plucker_minor,
                        reduction_check, tau_minus_two_point,
                        tau_plus_two_point, tau_polynomial, tau_schur_coeffs)
from .multipoly import MultiPoly
from .npoint import (NPointEngine, free_energy, genus0_check, genus_of,
                     intersection_number, puncture_check)
from .partitions import Partition
from .rational import Rat, double_factorial
from .schur import PowerSums, schur_at
from .series import Laurent2, Series1
from .wave import (TruncatedTau, WaveSeries, bilinear_matrix,
                   differential_fay_check, dual_wave, shifted_fay_check,
                   tau_from_free_energy, theorem_one_point_check,
                   wave_pairing_check, wronskian)

__version__ = "1.0.0"
