import multiprocessing

import pytest


@pytest.fixture(autouse=True)
def no_leaked_workers():
    """A training, decoding or writing worker left running fails the test that started it.

    Leaked workers are stopped first, so the tests after it start clean.
    """
    yield
    leaked = multiprocessing.active_children()
    for proc in leaked:
        proc.terminate()
        proc.join()
    assert leaked == []
