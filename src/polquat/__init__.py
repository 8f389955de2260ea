"""Quaternion calculus for fully polarized light.

One quaternion type carries optical signals, waveplates and Stokes vectors;
waveplates act by right multiplication, phase and SOP changes by left
multiplication.  Includes the closed-form solver for the three-waveplate
(QWP-HWP-QWP) endless phase shifter and an independent Jones-matrix oracle
for cross-checking.
"""

from .quaternion import (
    Axis,
    I,
    J,
    K,
    ONE,
    Quaternion,
    allclose,
    precess,
)
from .signal import (
    ClassicalStokes,
    EllipseParams,
    JonesVector,
    OrthogonalityClass,
    StokesQuaternion,
    apply_phase,
    classical_from_jones,
    classify_orthogonality,
    from_ellipse,
    from_jones,
    orthogonal_sop,
    stokes,
    to_classical,
    to_ellipse,
    to_jones,
    waveplate_to_orthogonal,
)
from .components import (
    PartialPolarizer,
    Waveplate,
    WaveplateAxisForm,
    apply,
    axis_retardance,
    compose,
    hwp,
    polarizer_apply,
    qwp,
    rotate_element,
    waveplate_from_axis,
)
from .shifter import (
    Classification,
    RampPoint,
    ShifterSolution,
    WaveplateAngles,
    forward_transform,
    ramp_trajectory,
    singular_signal_conditions,
    solve_angles,
    target_transform,
)

__version__ = "0.1.0"
