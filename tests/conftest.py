import multiprocessing

import pytest


@pytest.fixture(autouse=True)
def no_leaked_workers():
    """A training or decoding worker left running fails the test that started it."""
    yield
    assert multiprocessing.active_children() == []
