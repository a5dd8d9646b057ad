"""The random scenario generator: determinism, structure, validity."""

import random

import pytest

from repro.sim import Simulator
from repro.topology import (
    PRESETS,
    GeneratorConfig,
    build_random_scenario,
    generate_preset,
    preset_config,
)


def _tiny(**overrides):
    params = dict(n_flows=24, n_links=8)
    params.update(overrides)
    return GeneratorConfig(**params)


class TestDeterminism:
    def test_same_seed_same_object_graph(self):
        a = build_random_scenario(Simulator(), random.Random(7), _tiny())
        b = build_random_scenario(Simulator(), random.Random(7), _tiny())
        assert a.describe() == b.describe()

    def test_different_seed_differs(self):
        a = build_random_scenario(Simulator(), random.Random(7), _tiny())
        b = build_random_scenario(Simulator(), random.Random(8), _tiny())
        assert a.describe() != b.describe()

    def test_generation_independent_of_backend(self):
        """The build consumes only the given rng — which engine drives
        the simulator cannot leak into the scenario structure."""
        a = build_random_scenario(Simulator(compiled=False),
                                  random.Random(3), _tiny())
        b = build_random_scenario(Simulator(), random.Random(3), _tiny())
        assert a.describe() == b.describe()

    def test_generate_preset_seed_matters(self):
        a = generate_preset(Simulator(), "tiny", seed=1)
        b = generate_preset(Simulator(), "tiny", seed=1)
        c = generate_preset(Simulator(), "tiny", seed=2)
        assert a.describe() == b.describe()
        assert a.describe() != c.describe()


class TestStructure:
    def test_population_split_matches_churn_fraction(self):
        config = _tiny(n_flows=40, churn_fraction=0.25)
        scenario = build_random_scenario(Simulator(), random.Random(1),
                                         config)
        assert len(scenario.churn_sources) == 10
        assert len(scenario.bulk_flows) == 30
        assert scenario.n_flows == 40

    def test_paths_use_pool_links_and_complete_the_rtt(self):
        scenario = build_random_scenario(Simulator(), random.Random(2),
                                         _tiny(two_hop_fraction=0.5))
        link_names = {link.name for link in scenario.links}
        for desc in scenario.flow_descriptions:
            if desc.kind != "bulk":
                continue
            for names, reverse in desc.paths:
                assert set(names) <= link_names
                assert reverse >= 0
                forward = sum(link.delay for link in scenario.links
                              if link.name in names)
                assert forward + reverse == pytest.approx(desc.base_rtt)

    def test_algorithm_mix_is_respected(self):
        config = _tiny(n_flows=60, n_links=12, churn_fraction=0.0,
                       algorithm_mix=(("olia", 1.0), ("tcp", 1.0)))
        scenario = build_random_scenario(Simulator(), random.Random(3),
                                         config)
        algorithms = {d.algorithm for d in scenario.flow_descriptions}
        assert algorithms <= {"olia", "tcp"}
        assert "olia" in algorithms and "tcp" in algorithms
        for desc in scenario.flow_descriptions:
            if desc.algorithm == "tcp":
                assert len(desc.paths) == 1
            else:
                assert (config.subflows_min <= len(desc.paths)
                        <= config.subflows_max)

    def test_subflows_land_on_distinct_primary_links(self):
        scenario = build_random_scenario(
            Simulator(), random.Random(4),
            _tiny(churn_fraction=0.0, two_hop_fraction=0.0))
        for desc in scenario.flow_descriptions:
            primaries = [names[0] for names, _ in desc.paths]
            assert len(primaries) == len(set(primaries))

    def test_generated_scenario_runs_and_makes_progress(self):
        sim = Simulator()
        scenario = generate_preset(sim, "tiny", seed=3)
        scenario.start()
        sim.run(until=2.0)
        assert sim.events_processed > 1000
        acked = sum(f.acked_packets for f in scenario.bulk_flows.values())
        assert acked > 0
        assert any(src.flows_started > 0
                   for src in scenario.churn_sources)


class TestConfigValidation:
    def test_rejects_bad_populations(self):
        with pytest.raises(ValueError):
            GeneratorConfig(n_flows=0, n_links=8)
        with pytest.raises(ValueError, match="n_links"):
            GeneratorConfig(n_flows=10, n_links=2, subflows_max=4)
        with pytest.raises(ValueError, match="churn_fraction"):
            _tiny(churn_fraction=1.5)
        with pytest.raises(ValueError, match="subflows"):
            _tiny(subflows_min=3, subflows_max=2)
        with pytest.raises(ValueError, match="capacity"):
            _tiny(capacity_mbps=(5.0, 1.0))
        with pytest.raises(ValueError, match="algorithm_mix"):
            _tiny(algorithm_mix=())

    def test_scaled_shrinks_links_in_step(self):
        config = PRESETS["medium"]
        capped = config.scaled(100)
        assert capped.n_flows == 100
        assert capped.n_links < config.n_links
        assert capped.n_links >= capped.subflows_max
        # Never scales up.
        assert config.scaled(10 * config.n_flows) is config

    def test_presets_span_the_roadmap_range(self):
        assert PRESETS["small"].n_flows == 100
        assert PRESETS["large"].n_flows >= 10_000
        for name, config in PRESETS.items():
            assert config.n_links >= config.subflows_max, name

    def test_unknown_preset_rejected(self):
        with pytest.raises(ValueError, match="bogus"):
            preset_config("bogus")

    def test_mix_names_validated_against_registry(self):
        with pytest.raises(ValueError, match="unknown algorithm"):
            _tiny(algorithm_mix=(("not-an-algo", 1.0),))
        # Known name without a packet layer is rejected too.
        with pytest.raises(ValueError, match="no packet layer"):
            _tiny(algorithm_mix=(("epsilon", 1.0),))

    def test_default_mix_includes_balia(self):
        names = {name for name, _ in _tiny().algorithm_mix}
        assert "balia" in names

    def test_tcp_aliases_build_single_path_flows(self):
        """reno/uncoupled are the tcp spec — single-path like "tcp"."""
        config = _tiny(n_flows=30, churn_fraction=0.0,
                       algorithm_mix=(("reno", 1.0), ("uncoupled", 1.0)))
        scenario = build_random_scenario(Simulator(), random.Random(9),
                                         config)
        for desc in scenario.flow_descriptions:
            assert len(desc.paths) == 1, desc.algorithm


class TestAlgorithmOverride:
    def test_generate_preset_algorithm_override(self):
        scenario = generate_preset(Simulator(), "tiny", seed=3,
                                   algorithms=("balia", "tcp"))
        algorithms = {d.algorithm for d in scenario.flow_descriptions
                      if d.kind == "bulk"}
        assert algorithms <= {"balia", "tcp"}
        assert "balia" in algorithms

    def test_override_is_deterministic(self):
        a = generate_preset(Simulator(), "tiny", seed=5,
                            algorithms=("balia",))
        b = generate_preset(Simulator(), "tiny", seed=5,
                            algorithms=("balia",))
        assert a.describe() == b.describe()

    def test_balia_scenario_runs(self):
        sim = Simulator()
        scenario = generate_preset(sim, "tiny", seed=3,
                                   algorithms=("balia",))
        scenario.start()
        sim.run(until=2.0)
        acked = sum(f.acked_packets for f in scenario.bulk_flows.values())
        assert acked > 0
