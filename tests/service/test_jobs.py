"""Tests for the job/campaign wire format and driver-based expansion."""

import pickle

import pytest

from repro.experiments.config import SystemConfig
from repro.service.jobs import (
    JobSpec,
    campaign_id,
    campaign_jobs,
    campaign_names,
    config_from_dict,
    config_to_dict,
)


class TestConfigCodec:
    def test_round_trip_preserves_identity(self, tiny_config):
        rebuilt = config_from_dict(config_to_dict(tiny_config))
        assert rebuilt == tiny_config
        assert rebuilt.cache_key() == tiny_config.cache_key()

    def test_round_trip_preserves_pickle_bytes(self, tiny_config):
        """The served-result bit-identity guarantee starts here: a
        config that crossed the JSON boundary must pickle to the same
        bytes as the locally built one (enum-ordered latency table,
        interned strings)."""
        rebuilt = config_from_dict(config_to_dict(tiny_config))
        assert pickle.dumps(rebuilt, protocol=pickle.HIGHEST_PROTOCOL) == (
            pickle.dumps(tiny_config, protocol=pickle.HIGHEST_PROTOCOL)
        )

    def test_non_default_fields_survive(self):
        config = SystemConfig(
            scheduler="fcfs", channels=4, fetch_policy="icount", seed=7
        )
        rebuilt = config_from_dict(config_to_dict(config))
        assert rebuilt.scheduler == "fcfs"
        assert rebuilt.channels == 4
        assert rebuilt.cache_key() == config.cache_key()

    def test_sparse_override_dict(self):
        rebuilt = config_from_dict({"scheduler": "fcfs"})
        assert rebuilt == SystemConfig(scheduler="fcfs")

    def test_unknown_field_is_loud(self):
        with pytest.raises(ValueError, match="unknown SystemConfig"):
            config_from_dict({"shedualer": "fcfs"})
        # What a client built before the sampled engine was removed
        # still sends with every config.
        stale = {
            "sampling": {
                "detail_instructions": 2000, "ff_instructions": 18000,
                "window_warmup": 1000, "gap_smoothing": 2,
            },
        }
        with pytest.raises(ValueError, match="unknown SystemConfig"):
            config_from_dict(stale)

    def test_unknown_core_field_is_loud(self, tiny_config):
        doc = config_to_dict(tiny_config)
        doc["core"]["robb_size"] = 9
        with pytest.raises(ValueError, match="unknown CoreParams"):
            config_from_dict(doc)

    def test_unknown_latency_op_is_loud(self, tiny_config):
        doc = config_to_dict(tiny_config)
        doc["core"]["latencies"]["WARP_SHUFFLE"] = 3
        with pytest.raises(ValueError, match="unknown latency op"):
            config_from_dict(doc)


class TestJobSpec:
    def test_round_trip(self, tiny_config):
        spec = JobSpec.of(tiny_config, ["mcf", "gzip"])
        again = JobSpec.from_dict(spec.to_dict())
        assert again == spec
        assert again.run_id == spec.run_id

    def test_empty_apps_rejected(self, tiny_config):
        with pytest.raises(ValueError, match="non-empty"):
            JobSpec.from_dict({"config": {}, "apps": []})
        with pytest.raises(ValueError, match="non-empty"):
            JobSpec.from_dict({"config": {}, "apps": ["mcf", 3]})


class TestCampaignExpansion:
    def test_names_cover_figures_and_ablations(self):
        names = campaign_names()
        assert "fig10" in names and "fig1" in names

    def test_fig10_expands_without_simulating(self, tiny_config):
        jobs = campaign_jobs("fig10", tiny_config, mixes=["2-MEM"])
        # 8 schedulers x 1 mix + baselines; exact count belongs to the
        # driver -- what matters here: multiple jobs, zero simulations,
        # all at the submitted budget.
        assert len(jobs) > 8
        assert all(
            c.instructions_per_thread == tiny_config.instructions_per_thread
            or c.instructions_per_thread
            % tiny_config.instructions_per_thread == 0
            for c, _ in jobs
        )

    def test_jobs_are_deduplicated(self, tiny_config):
        jobs = campaign_jobs("fig10", tiny_config, mixes=["2-MEM", "4-MEM"])
        identities = [(c.cache_key(), a) for c, a in jobs]
        assert len(identities) == len(set(identities))

    def test_fig1_takes_no_mixes(self, tiny_config):
        jobs = campaign_jobs("fig1", tiny_config, mixes=["2-MEM"])
        assert jobs  # mixes ignored for fig1, not an error

    def test_unknown_experiment_is_loud(self, tiny_config):
        with pytest.raises(KeyError, match="unknown campaign"):
            campaign_jobs("fig99", tiny_config)

    def test_campaign_id_stable_and_order_free(self, tiny_config):
        jobs = campaign_jobs("fig10", tiny_config, mixes=["2-MEM"])
        assert campaign_id("fig10", jobs) == campaign_id(
            "fig10", list(reversed(jobs))
        )
        assert campaign_id("fig10", jobs) != campaign_id("fig11", jobs)
