import math

import pytest

import dresslines
from dresslines import (
    DriveField,
    LevelScheme,
    ProbeField,
    ProcessKind,
    ThermalEnsemble,
    apply_process_signs,
)


def test_scheme_validation():
    s = LevelScheme(gamma_m=1.0, gamma_n=2.0, gamma_l=0.5)
    assert s.gamma_sum == 3.0
    assert s.gamma_diff == 1.0
    with pytest.raises(ValueError):
        LevelScheme(gamma_m=0.0, gamma_n=1.0, gamma_l=1.0)
    with pytest.raises(ValueError):
        LevelScheme(gamma_m=1.0, gamma_n=-2.0, gamma_l=1.0)
    with pytest.raises(ValueError):
        LevelScheme(gamma_m=math.nan, gamma_n=1.0, gamma_l=1.0)


def test_field_validation():
    DriveField(G=0.0, Omega=-3.0, k=1.0)
    with pytest.raises(ValueError):
        DriveField(G=-1.0, Omega=0.0)
    with pytest.raises(ValueError):
        DriveField(G=1.0, Omega=0.0, k=-2.0)
    with pytest.raises(ValueError):
        ProbeField(G_mu=1.0, theta=3.5)
    with pytest.raises(ValueError):
        ProbeField(G_mu=1.0, theta=-0.1)
    with pytest.raises(ValueError):
        ThermalEnsemble(vbar=0.0)
    # a bool is an int to Python, but no rate, coupling or angle
    with pytest.raises(ValueError, match="finite number"):
        DriveField(G=True, Omega=0.0)
    with pytest.raises(ValueError, match="finite number"):
        LevelScheme(gamma_m=1.0, gamma_n=True, gamma_l=1.0)


@pytest.mark.parametrize("field", [{"G_mu": -1e-3}, {"G_mu": 1e-3, "k_mu": -2.0}],
                         ids=["G_mu", "k_mu"])
def test_probe_field_refuses_a_negative_coupling_or_wave_vector(field):
    with pytest.raises(ValueError):
        ProbeField(**field)


def test_process_kind_signs():
    assert ProcessKind.RAMAN_UPPER_INTERMEDIATE.signs == (1, 1)
    assert ProcessKind.TWO_QUANTUM_LUMINESCENCE.signs == (-1, 1)
    assert ProcessKind.TWO_QUANTUM_ABSORPTION.signs == (1, -1)
    assert ProcessKind.RAMAN_LOWER_INTERMEDIATE.signs == (-1, -1)


def test_apply_process_signs_involution():
    # Applying a kind's signs twice restores the drive and the angle, and
    # the probe sign squares to one.
    drive = DriveField(G=2.0, Omega=3.0, k=4.0)
    for kind in ProcessKind:
        signed, s_mu, theta = apply_process_signs(kind, drive, 0.8)
        back, s_mu2, theta2 = apply_process_signs(kind, signed, theta)
        assert back == drive
        assert s_mu * s_mu2 == 1
        assert theta2 == pytest.approx(0.8, abs=1e-15)


def test_apply_process_signs_values():
    drive = DriveField(G=1.0, Omega=5.0, k=2.0)
    flipped = DriveField(G=1.0, Omega=-5.0, k=2.0)
    assert apply_process_signs(ProcessKind.RAMAN_UPPER_INTERMEDIATE, drive, 0.3) == (
        drive, 1, 0.3)
    assert apply_process_signs(ProcessKind.TWO_QUANTUM_LUMINESCENCE, drive, 0.3) == (
        flipped, 1, math.pi - 0.3)
    assert apply_process_signs(ProcessKind.TWO_QUANTUM_ABSORPTION, drive, 0.3) == (
        drive, -1, math.pi - 0.3)
    assert apply_process_signs(ProcessKind.RAMAN_LOWER_INTERMEDIATE, drive, 0.3) == (
        flipped, -1, 0.3)


def test_every_public_name_resolves():
    for name in dresslines.__all__:
        assert getattr(dresslines, name) is not None, name
    with pytest.raises(AttributeError):
        dresslines.no_such_name


def test_convergence_error_is_one_class():
    from dresslines import model, oracle

    assert dresslines.ConvergenceError is oracle.ConvergenceError is model.ConvergenceError
