"""Each test starts from an empty autodiff tape on its thread, so a test that
runs a recording forward without a backward cannot leave nodes behind for a
later test that checks the tape."""

import pytest

from amlora import autodiff as ad


@pytest.fixture(autouse=True)
def _empty_tape():
    ad.reset_tape()
