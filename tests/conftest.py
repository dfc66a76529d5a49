"""Session fixtures for the test suite.

The expensive objects (fine-mesh spectra, the aperture sweep, the identity
suites) are computed once per session and shared.  Test modules build their
own coarse meshes whenever a disposable object is enough.
"""

import time

import pytest

import capspectra as cs

APERTURES = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0)


@pytest.fixture(scope="session")
def disk_lam1_by_m():
    """Lowest disk buckling eigenvalue on meshes of 32, 64 and 128 elements."""
    disk = cs.make_cap("flat", 2, 1.0)
    return {m: cs.solve_sector(disk, 0, m=m, count=1)[0].value for m in (32, 64, 128)}


@pytest.fixture(scope="session")
def disk256():
    """First two disk eigenvalues at m=256 plus the wall-clock solve time."""
    disk = cs.make_cap("flat", 2, 1.0)
    t0 = time.perf_counter()
    lam1 = cs.solve_sector(disk, 0, m=256, count=1)[0].value
    lam2 = cs.solve_sector(disk, 1, m=256, count=1)[0].value
    elapsed = time.perf_counter() - t0
    return {"lam1": lam1, "lam2": lam2, "elapsed": elapsed}


@pytest.fixture(scope="session")
def disk_spectrum():
    """Merged disk spectrum with enough entries for the k-indexed inequalities."""
    disk = cs.make_cap("flat", 2, 1.0)
    spectrum, _ = cs.solve_spectrum(disk, m=128, count=6)
    return spectrum


@pytest.fixture(scope="session")
def cap_sweep():
    """Merged cap spectra over dims 2 and 3 and six apertures."""
    out = {}
    for n in (2, 3):
        for ap in APERTURES:
            domain = cs.make_cap("spherical", n, ap)
            spectrum, _ = cs.solve_spectrum(domain, m=128, count=4)
            out[(n, ap)] = spectrum
    return out


@pytest.fixture(scope="session")
def identity_suite_by_m():
    """Identity reports for the unit-aperture cap on a coarse and a fine mesh."""
    domain = cs.make_cap("spherical", 2, 1.0)
    return {m: cs.run_identity_suite(domain, m=m) for m in (32, 128)}
