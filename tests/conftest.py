import os
import sys
from pathlib import Path

import pytest

import angelesco
from angelesco import AngelescoSystem, Interval, plateau_bounds, star_normalize

sys.path.insert(0, str(Path(__file__).parent))  # moment_oracle importable


@pytest.fixture(scope="session")
def touching_system():
    """The reference touching configuration used throughout."""
    return AngelescoSystem(Interval(-2.0, 0.0), Interval(0.0, 1.0))


@pytest.fixture(scope="session")
def touching_info(touching_system):
    sc, _ = star_normalize(touching_system)
    return plateau_bounds(sc)


@pytest.fixture(scope="session")
def gap_system():
    """The pushed configuration with a genuine plateau window."""
    return AngelescoSystem(Interval(-2.0, 0.0), Interval(0.25, 1.0))


@pytest.fixture(scope="session")
def gap_info(gap_system):
    sc, _ = star_normalize(gap_system)
    return plateau_bounds(sc)


@pytest.fixture
def package_env():
    """The environment of a subprocess that imports this package."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        str(Path(angelesco.__file__).parent.parent),
        os.environ.get("PYTHONPATH")])))
