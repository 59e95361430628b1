"""Periodic traveling waves of Korteweg-type Hamiltonian systems and
their slow-modulation systems: wave families, averaged quantities,
hyperbolicity of the modulation equations, harmonic and soliton limits,
and closed-form modulational-instability indices."""

from .action import ActionJet, FDConfig, action_gradient, action_hessian, \
    action_value
from .limits import HarmonicPoint, LimitFrame, SolitonPoint, frame_vectors, \
    harmonic_point, limiting_whitham_harmonic, limiting_whitham_soliton, \
    soliton_point, toy_double_root
from .miindex import MIReport, conjugation_check, critical_wavenumber, \
    delta_mi, naive_index, predicted_alpha_sign
from .models import ModelSpec, StructuralMatrices, WaveParams, gkdv_model, \
    model_from_dict, structural_matrices
from .modulation import ModVars, WhithamReport, averaged_identities, \
    coupling_matrix_A, hessianH, modvars_to_params, params_to_modvars, \
    spectrum_and_classification, whitham_matrix, whitham_report
from .profiles import OrbitBracket, WaveState, averaged_state, \
    bracket_near_limit, find_turning_points, orbit_integrals, \
    profile_sample, shooting_oracle
from .sweeps import FitReport, SplitReport, SweepTable, asymptotic_sweep, \
    eigen_splitting_fit, sweep_table

__version__ = "1.0.0"
