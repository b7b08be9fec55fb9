"""The sampled engine is gone; runs default to an exact engine.

Sampled results were estimates, so they must never be what a run gets
without asking. With the engine removed, the default stays ``fast``
(bit-identical to ``reference``) and ``engine="sampled"`` is rejected
(see ``test_fast_engine.TestEngineSelection``).
"""

from repro.experiments.config import SystemConfig


class TestRegistration:
    def test_sampled_is_not_the_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        assert SystemConfig().engine != "sampled"
        assert SystemConfig().engine == "fast"
