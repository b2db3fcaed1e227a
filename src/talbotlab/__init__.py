"""talbotlab: numerical laboratory for free-space Talbot-effect qudits.

Synthesizes one- and two-photon quantum-carpet states, applies revival and
phase gates by simulated free-space propagation, and evaluates
D-dimensional CGLMP Bell inequalities both analytically and by full field
simulation.

The names below are imported from their modules on first access, so
``import talbotlab`` loads no NumPy until a numerical name is used.
"""

from importlib import import_module

# exported name -> the submodule that defines it
_EXPORTS = {
    **dict.fromkeys(("BellResult", "ScanRow", "bell_analytic", "bell_field", "bell_point",
                     "bell_scan", "cglmp_value", "joint_prob_analytic", "joint_prob_field"),
                    "bell"),
    **dict.fromkeys(("gate_distances", "max_dimension", "mutual_information", "talbot_length"),
                    "constraints"),
    **dict.fromkeys(("AliasingRisk", "BinMisalignment", "InvalidSpec", "NonNormalized",
                     "NotCoprime", "TalbotLabError", "UnderResolved"), "errors"),
    **dict.fromkeys(("BiphotonField", "ModeField", "PropagationSpec", "SampledField",
                     "biphoton_propagate", "mode_propagate", "periodic_comb", "sample"),
                    "fields"),
    **dict.fromkeys(("TalbotGeometry", "bin_outcome_map", "gate_distance_fraction",
                     "gauss_coeffs", "measurement_basis", "measurement_phases",
                     "measurement_unitary"), "qudits"),
    **dict.fromkeys(("BiphotonGaussian", "CoeffMatrix", "SlitArray", "SynthesizerGeometry",
                     "apply_dslit", "biphoton_amplitude", "entangled_coeffs",
                     "initial_biphoton_field", "maximally_entangled", "render_synthesized",
                     "synthesize_single", "two_photon_field"), "spdc"),
}

__all__ = sorted(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(import_module(f".{module}", __name__), name)
