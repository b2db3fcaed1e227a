"""talbotlab: numerical laboratory for free-space Talbot-effect qudits.

Synthesizes one- and two-photon quantum-carpet states, applies revival and
phase gates by simulated free-space propagation, and evaluates D-dimensional
CGLMP Bell inequalities both analytically and by full field simulation.
"""

from .bell import (BellResult, ScanRow, bell_analytic, bell_field, bell_point,
                   bell_scan, cglmp_value, joint_prob_analytic, joint_prob_field)
from .constraints import (HardwareSpec, gate_distances, max_dimension,
                          mutual_information)
from .errors import (AliasingRisk, BinMisalignment, GridMismatch, InvalidSpec,
                     NonNormalized, NotCoprime, TalbotLabError, UnderResolved)
from .fields import (GAUSSIAN, TOPHAT, BiphotonField, ModeField,
                     PropagationSpec, SampledField, SlitProfile,
                     biphoton_propagate, fidelity, fresnel_propagate,
                     get_profile, mode_propagate, overlap, periodic_comb,
                     sample, talbot_length)
from .qudits import (GaussCoeffs, QuditState, QuditUnitary, TalbotGeometry,
                     basis_field, bin_outcome_map, closed_form_phases, decode,
                     decode_with_capture, encode, gate_distance_fraction,
                     gauss_coeffs, measurement_basis, measurement_phases,
                     measurement_unitary, pauli_x, phase_gate, talbot_gate)
from .spdc import (BiphotonGaussian, CoeffMatrix, SlitArray,
                   SynthesizerGeometry, apply_dslit, biphoton_amplitude,
                   entangled_coeffs, initial_biphoton_field,
                   maximally_entangled, render_synthesized, schmidt_spectrum,
                   synthesize_single, two_photon_field)

__version__ = "0.1.0"
