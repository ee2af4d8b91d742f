import multiprocessing

import pytest


@pytest.fixture(autouse=True)
def no_process_left_running():
    # a campaign joins every child it forks, whether it returns or raises
    yield
    assert multiprocessing.active_children() == []
