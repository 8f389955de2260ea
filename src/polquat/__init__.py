"""Quaternion calculus for fully polarized light.

One quaternion type carries optical signals, waveplates and Stokes vectors;
waveplates act by right multiplication, phase and SOP changes by left
multiplication.  Includes the closed-form solver for the three-waveplate
(QWP-HWP-QWP) endless phase shifter and an independent Jones-matrix oracle
for cross-checking.

The package is lazy (PEP 562): `import polquat` loads no submodule, and each
public name loads the submodule that defines it on first use.  So a command
compiles only the modules its own code imports.
"""

# each public name -> the submodule that defines it; a submodule names itself
_SUBMODULE = {
    **dict.fromkeys(("quaternion", "Axis", "I", "J", "K", "ONE", "Quaternion",
                     "allclose", "precess"), "quaternion"),
    **dict.fromkeys(("signal", "ClassicalStokes", "EllipseParams", "JonesVector",
                     "OrthogonalityClass", "StokesQuaternion", "apply_phase",
                     "classical_from_jones", "classify_orthogonality", "from_ellipse",
                     "from_jones", "orthogonal_sop", "stokes", "to_classical",
                     "to_ellipse", "to_jones"), "signal"),
    **dict.fromkeys(("components", "PartialPolarizer", "Waveplate", "apply", "compose",
                     "hwp", "polarizer_apply", "qwp", "rotate_element",
                     "waveplate_from_axis"), "components"),
    **dict.fromkeys(("shifter", "Classification", "RampPoint", "ShifterSolution",
                     "WaveplateAngles", "forward_transform", "ramp_trajectory",
                     "solve_angles", "target_transform"), "shifter"),
}

__all__ = list(_SUBMODULE)
__version__ = "0.1.0"


def __getattr__(name: str):
    """Load `name` from its submodule and keep it in the package namespace,
    so this runs once per name."""
    module = _SUBMODULE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = import_module("." + module, __name__)
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__() -> list:
    return sorted({*globals(), *__all__})
