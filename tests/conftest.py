import pytest
from hypothesis import settings

from drmtestbed.config import TestbedConfig
from drmtestbed.testbed import Testbed

# Every property test and state machine draws the same examples on every
# run, with no wall-clock deadline and no example database; a test's own
# settings(...) states only its budget.
settings.register_profile("tier1", derandomize=True, deadline=None)
settings.load_profile("tier1")


@pytest.fixture
def config():
    return TestbedConfig()


@pytest.fixture
def bed(config):
    return Testbed(config)
