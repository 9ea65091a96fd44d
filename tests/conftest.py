import pytest

from pshardy import exhaustion


@pytest.fixture(scope="session")
def u075():
    # shared across files: the traced levels, swept measures and boundary
    # weights cache on the spec object, so everything downstream reuses
    # one build
    return exhaustion.make_example("um", 0.75)


@pytest.fixture(scope="session")
def u05():
    return exhaustion.make_example("um", 0.5)


@pytest.fixture(scope="session")
def ulog():
    return exhaustion.radial_log()
