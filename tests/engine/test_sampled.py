"""The sampled engine is gone; every run is exact.

Sampled results were estimates, so they must never be what a run gets
without asking. There is no engine to choose any more: the one core
runs its exact shortcuts, and a config document naming ``"sampled"``
is rejected (see ``test_fast_engine.TestEngineSelection``).
"""

import pytest

from repro.cpu.core import SMTCore
from repro.service.jobs import config_from_dict


class TestRegistration:
    def test_sampled_is_not_the_default(self):
        assert SMTCore.shortcuts is True
        with pytest.raises(ValueError, match="unknown engine"):
            config_from_dict({"engine": "sampled"})
