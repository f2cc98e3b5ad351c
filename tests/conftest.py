"""Shared meshes, decompositions and ensembles (dense eigh is the slow part)."""

import sys

import pytest

from sobolab import (EnsembleSpec, build, constant_potential, decompose,
                     generate_ensemble)

TWO_PI = "6.283185307179586"


@pytest.fixture(scope="session")
def torus2():
    return build(f"torus:n=2,res=32,L={TWO_PI}")


@pytest.fixture(scope="session")
def torus2_dec0(torus2):
    return decompose(torus2, constant_potential(torus2, 0.0))


@pytest.fixture(scope="session")
def torus2_dec1(torus2):
    return decompose(torus2, constant_potential(torus2, 1.0))


@pytest.fixture(scope="session")
def torus2_unit():
    return build("torus:n=2,res=32,L=1")


@pytest.fixture(scope="session")
def torus2_unit_dec1(torus2_unit):
    return decompose(torus2_unit, constant_potential(torus2_unit, 1.0))


@pytest.fixture(scope="session")
def torus2_fit():
    return build(f"torus:n=2,res=56,L={TWO_PI}")


@pytest.fixture(scope="session")
def torus2_fit_dec1(torus2_fit):
    return decompose(torus2_fit, constant_potential(torus2_fit, 1.0))


@pytest.fixture(scope="session")
def torus3():
    return build(f"torus:n=3,res=14,L={TWO_PI}")


@pytest.fixture(scope="session")
def torus3_dec1(torus3):
    return decompose(torus3, constant_potential(torus3, 1.0))


@pytest.fixture(scope="session")
def torus3_coarse():
    return build(f"torus:n=3,res=10,L={TWO_PI}")


@pytest.fixture(scope="session")
def torus3_coarse_dec1(torus3_coarse):
    return decompose(torus3_coarse, constant_potential(torus3_coarse, 1.0))


@pytest.fixture(scope="session")
def sphere3():
    return build("sphere:r=1,subdiv=3")


@pytest.fixture(scope="session")
def sphere3_dec0(sphere3):
    return decompose(sphere3, constant_potential(sphere3, 0.0))


@pytest.fixture(scope="session")
def sphere3_dec1(sphere3):
    return decompose(sphere3, constant_potential(sphere3, 1.0))


@pytest.fixture(scope="session")
def torus2_members(torus2, torus2_dec1):
    spec = EnsembleSpec(seed=42, size=200, generator="mixed")
    return generate_ensemble(torus2, spec, dec=torus2_dec1)


@pytest.fixture(scope="session")
def torus3_members(torus3, torus3_dec1):
    spec = EnsembleSpec(seed=42, size=200, generator="mixed")
    return generate_ensemble(torus3, spec, dec=torus3_dec1)


@pytest.fixture(scope="session")
def sphere3_members(sphere3, sphere3_dec1):
    spec = EnsembleSpec(seed=42, size=100, generator="mixed")
    return generate_ensemble(sphere3, spec, dec=sphere3_dec1)


@pytest.fixture
def decompose_calls(monkeypatch):
    """Node counts of every dense decomposition made while the test runs.

    The counting wrapper replaces decompose in every sobolab namespace that
    binds it, so calls made through another module are counted too.
    """
    from sobolab import spectral
    original, calls = spectral.decompose, []

    def counting(m, psi):
        calls.append(m.num_nodes)
        return original(m, psi)

    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "sobolab" and \
                getattr(mod, "decompose", None) is original:
            monkeypatch.setattr(mod, "decompose", counting)
    return calls


@pytest.fixture
def norm_calls(monkeypatch):
    """(name, exponent, argument) of every lp_norm, grad_lp_norm and
    _grad_lp_norms call made while the test runs, patched in every sobolab
    namespace as above; _grad_lp_norms records its tuple of exponents."""
    from sobolab import norms
    calls = []

    def counting(original):
        def wrapper(m, u, p):
            calls.append((original.__name__, p, u))
            return original(m, u, p)
        return wrapper

    for fn in (norms.lp_norm, norms.grad_lp_norm, norms._grad_lp_norms):
        wrapped = counting(fn)
        for name, mod in list(sys.modules.items()):
            if name.split(".")[0] == "sobolab" and \
                    getattr(mod, fn.__name__, None) is fn:
                monkeypatch.setattr(mod, fn.__name__, wrapped)
    return calls
