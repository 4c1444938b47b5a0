import pytest

from stiefel_sr import tolerances


@pytest.fixture
def default_tolerances():
    """Restore the default tolerance record after a test that configures it."""
    yield
    tolerances.configure(**vars(tolerances.Tolerances()))
