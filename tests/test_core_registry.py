"""Unit tests for the cross-layer algorithm registry."""

import pytest

from repro.core import (
    LiaController,
    OliaController,
    RenoController,
    available_algorithms,
    make_controller,
    register_algorithm,
)
from repro.core.registry import (
    LAYERS,
    AlgorithmSpec,
    ParamSpec,
    algorithm_specs,
    get_spec,
    make_allocation_rule,
    make_fluid_algorithm,
    registered,
    unregister_algorithm,
)


class TestRegistry:
    def test_known_algorithms_present(self):
        names = available_algorithms()
        for expected in ("lia", "olia", "reno", "coupled", "ewtcp",
                         "balia", "cubic", "epsilon"):
            assert expected in names

    def test_make_controller_types(self):
        assert isinstance(make_controller("lia"), LiaController)
        assert isinstance(make_controller("olia"), OliaController)
        assert isinstance(make_controller("reno"), RenoController)

    def test_aliases(self):
        assert isinstance(make_controller("tcp"), RenoController)
        assert isinstance(make_controller("uncoupled"), RenoController)

    def test_case_insensitive(self):
        assert isinstance(make_controller("OLIA"), OliaController)

    def test_fresh_instance_each_call(self):
        assert make_controller("lia") is not make_controller("lia")

    def test_unknown_name_lists_known(self):
        with pytest.raises(KeyError, match="olia"):
            make_controller("does-not-exist")

    def test_register_custom_and_duplicate(self):
        class Custom(RenoController):
            name = "custom-test"

        spec = AlgorithmSpec(name="custom-test", controller_factory=Custom)
        register_algorithm(spec)
        try:
            assert isinstance(make_controller("custom-test"), Custom)
            with pytest.raises(ValueError):
                register_algorithm(spec)
        finally:
            unregister_algorithm("custom-test")


class TestAlgorithmSpec:
    def test_capability_flags(self):
        lia = get_spec("lia")
        assert lia.has_packet and lia.has_fluid and lia.has_equilibrium
        assert lia.layers == LAYERS
        stcp = get_spec("stcp")
        assert stcp.layers == ("packet",)
        epsilon = get_spec("epsilon")
        assert epsilon.layers == ("equilibrium",)

    def test_alias_resolves_to_same_spec(self):
        assert get_spec("tcp") is get_spec("reno") is get_spec("UNCOUPLED")

    def test_specs_listed_once_each(self):
        specs = algorithm_specs()
        names = [spec.name for spec in specs]
        assert names == sorted(set(names))
        assert "tcp" in names and "reno" not in names   # aliases collapse

    def test_layer_filtered_names(self):
        packet = set(available_algorithms("packet"))
        fluid = set(available_algorithms("fluid"))
        equilibrium = set(available_algorithms("equilibrium"))
        assert "stcp" in packet and "stcp" not in fluid
        assert "epsilon" in equilibrium and "epsilon" not in packet
        for layer_set in (packet, fluid, equilibrium):
            assert {"lia", "olia", "balia", "tcp", "reno",
                    "uncoupled"} <= layer_set

    def test_missing_layer_raises_loud_keyerror(self):
        with pytest.raises(KeyError, match="no fluid layer"):
            make_fluid_algorithm("stcp")
        with pytest.raises(KeyError, match="no packet layer"):
            make_controller("epsilon")
        with pytest.raises(KeyError, match="no equilibrium layer"):
            make_allocation_rule("cubic")

    def test_params_flow_through_each_layer(self):
        assert make_controller("olia", tie_tolerance=0.25).tie_tolerance \
            == 0.25
        assert make_fluid_algorithm("olia",
                                    tie_tolerance=0.25).tie_tolerance \
            == 0.25
        rule = make_allocation_rule("olia", tie_tolerance=0.25)
        assert callable(rule)

    def test_per_layer_param_defaults_preserved(self):
        """Each layer keeps its historical tie_tolerance default."""
        assert make_controller("olia").tie_tolerance == 0.0
        assert make_fluid_algorithm("olia").tie_tolerance == 1e-3

    def test_undeclared_param_rejected(self):
        with pytest.raises(TypeError, match="does not accept"):
            make_controller("lia", tie_tolerance=0.1)
        with pytest.raises(TypeError, match="does not accept"):
            make_controller("olia", floor=1.0)   # equilibrium-only param

    def test_required_param_enforced(self):
        with pytest.raises(TypeError, match="epsilon"):
            make_allocation_rule("epsilon")
        with pytest.raises(TypeError, match="clock"):
            make_controller("cubic")
        rule = make_allocation_rule("epsilon", epsilon=1.0)
        assert callable(rule)

    def test_make_accepts_spec_instances(self):
        spec = get_spec("lia")
        assert isinstance(make_controller(spec), LiaController)
        assert make_fluid_algorithm(spec).name == "lia"
        assert callable(make_allocation_rule(spec))


class TestRegisterErgonomics:
    def _spec(self, name="throwaway", **kwargs):
        return AlgorithmSpec(name=name,
                             controller_factory=RenoController, **kwargs)

    def test_override_replaces_and_returns_previous(self):
        register_algorithm(self._spec())
        try:
            replaced = register_algorithm(
                self._spec(description="v2"), override=True)
            assert [spec.name for spec in replaced] == ["throwaway"]
            assert get_spec("throwaway").description == "v2"
        finally:
            unregister_algorithm("throwaway")

    def test_unregister_by_alias_removes_all_names(self):
        register_algorithm(self._spec(aliases=("tw",)))
        spec = unregister_algorithm("tw")
        assert spec.name == "throwaway"
        for name in ("throwaway", "tw"):
            with pytest.raises(KeyError):
                get_spec(name)

    def test_unregister_unknown_is_loud(self):
        with pytest.raises(KeyError, match="known"):
            unregister_algorithm("never-registered")

    def test_registered_context_manager_cleans_up(self):
        before = available_algorithms()
        with registered(self._spec()) as spec:
            assert get_spec("throwaway") is spec
        assert available_algorithms() == before
        with pytest.raises(KeyError):
            get_spec("throwaway")

    def test_registered_override_restores_builtin(self):
        original = get_spec("lia")
        custom = AlgorithmSpec(name="lia",
                               controller_factory=RenoController)
        with registered(custom, override=True):
            assert isinstance(make_controller("lia"), RenoController)
            assert not get_spec("lia").has_fluid
        assert get_spec("lia") is original
        assert isinstance(make_controller("lia"), LiaController)

    def test_registered_cleans_up_on_error(self):
        with pytest.raises(RuntimeError):
            with registered(self._spec()):
                raise RuntimeError("boom")
        with pytest.raises(KeyError):
            get_spec("throwaway")

    def test_alias_collision_without_override_rejected(self):
        with pytest.raises(ValueError, match="tcp"):
            register_algorithm(self._spec(aliases=("tcp",)))

    def test_spec_names_must_be_lowercase(self):
        with pytest.raises(ValueError):
            AlgorithmSpec(name="LIA")
        with pytest.raises(ValueError):
            AlgorithmSpec(name="x", aliases=("Y",))


class TestFactoryParity:
    """The three registry factories expose identical name sets per
    capability and fail with the same loud known-names KeyError style."""

    def _accepted_names(self, factory, **params):
        accepted = set()
        for name in available_algorithms():
            try:
                factory(name, **params)
            except KeyError:
                continue
            except TypeError:
                # Known name whose layer needs required params (cubic's
                # clock, epsilon's epsilon): the *name* is accepted.
                accepted.add(name)
            else:
                accepted.add(name)
        return accepted

    def test_name_sets_match_capabilities(self):
        assert self._accepted_names(make_controller) \
            == set(available_algorithms("packet"))
        assert self._accepted_names(make_fluid_algorithm) \
            == set(available_algorithms("fluid"))
        assert self._accepted_names(make_allocation_rule) \
            == set(available_algorithms("equilibrium"))

    def test_all_factories_case_insensitive_with_aliases(self):
        for name in ("TCP", "Reno", "UNCOUPLED", "Lia"):
            make_controller(name)
            make_fluid_algorithm(name)
            make_allocation_rule(name)

    def test_all_factories_fail_with_known_names_keyerror(self):
        for factory in (make_controller, make_fluid_algorithm,
                        make_allocation_rule):
            with pytest.raises(KeyError, match="olia"):
                factory("does-not-exist")

    def test_factories_build_the_layer_objects(self):
        from repro.fluid.dynamics import OliaFluid
        from repro.fluid.equilibrium import lia_allocation, tcp_allocation
        assert isinstance(make_fluid_algorithm("olia"), OliaFluid)
        assert make_allocation_rule("lia") is lia_allocation
        assert make_allocation_rule("tcp") is tcp_allocation


class TestParamSpec:
    def test_defaults_cover_all_layers(self):
        param = ParamSpec("x")
        assert param.layers == LAYERS
        assert not param.required
