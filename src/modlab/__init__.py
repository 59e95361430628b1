"""Periodic traveling waves of Korteweg-type Hamiltonian systems and
their slow-modulation systems: wave families, averaged quantities,
hyperbolicity of the modulation equations, harmonic and soliton limits,
and closed-form modulational-instability indices."""

from .limits import harmonic_point, soliton_point
from .miindex import delta_mi
from .models import WaveParams, gkdv_model, model_from_dict
from .modulation import whitham_report
from .profiles import averaged_state, find_turning_points
from .sweeps import asymptotic_sweep, eigen_splitting_fit, sweep_table

__version__ = "1.0.0"
