"""Algorithm registry: registration, lookup, capability validation."""

import pytest

from repro import Objective, Preferences, available_algorithms
from repro.core.registry import (
    AlgorithmSpec,
    algorithm_specs,
    get_algorithm,
    register_algorithm,
    unregister_algorithm,
)
from repro.exceptions import OptimizerError

WEIGHTED_2D = Preferences.from_maps(
    (Objective.TOTAL_TIME, Objective.TUPLE_LOSS),
    weights={Objective.TOTAL_TIME: 1.0},
)
BOUNDED_2D = Preferences.from_maps(
    (Objective.TOTAL_TIME, Objective.TUPLE_LOSS),
    weights={Objective.TOTAL_TIME: 1.0},
    bounds={Objective.TUPLE_LOSS: 0.0},
)


class TestLookup:
    def test_builtins_registered_in_order(self):
        names = available_algorithms()
        assert names == ("exa", "rta", "ira", "selinger", "wsum", "idp")

    def test_get_algorithm_returns_spec(self):
        spec = get_algorithm("rta")
        assert isinstance(spec, AlgorithmSpec)
        assert spec.name == "rta"

    def test_unknown_algorithm_lists_available(self):
        with pytest.raises(OptimizerError, match="unknown algorithm"):
            get_algorithm("magic")
        with pytest.raises(OptimizerError, match="rta"):
            get_algorithm("magic")

    def test_specs_cover_available_names(self):
        assert tuple(s.name for s in algorithm_specs()) == (
            available_algorithms()
        )


class TestCapabilities:
    def test_declared_capabilities(self):
        assert not get_algorithm("exa").uses_alpha
        assert get_algorithm("exa").supports_bounds
        assert get_algorithm("rta").uses_alpha
        assert not get_algorithm("rta").supports_bounds
        assert get_algorithm("ira").supports_bounds
        assert get_algorithm("selinger").single_objective_only
        assert not get_algorithm("wsum").uses_alpha
        assert get_algorithm("idp").uses_alpha

    def test_selinger_rejects_multiple_objectives(self):
        with pytest.raises(OptimizerError, match="exactly one"):
            get_algorithm("selinger").validate(WEIGHTED_2D)

    def test_selinger_accepts_single_objective(self):
        single = Preferences(
            objectives=(Objective.TOTAL_TIME,), weights=(1.0,)
        )
        get_algorithm("selinger").validate(single)  # must not raise

    def test_bounds_stripped_for_weighted_algorithms(self):
        prepared = get_algorithm("rta").prepare_preferences(BOUNDED_2D)
        assert not prepared.has_bounds
        assert prepared.objectives == BOUNDED_2D.objectives
        assert prepared.weights == BOUNDED_2D.weights

    def test_bounds_kept_for_bounded_algorithms(self):
        prepared = get_algorithm("ira").prepare_preferences(BOUNDED_2D)
        assert prepared is BOUNDED_2D


class TestRegistration:
    def test_duplicate_name_rejected(self):
        with pytest.raises(OptimizerError, match="already registered"):
            register_algorithm("rta")(lambda *a, **k: None)

    def test_conflicting_bounds_declaration_rejected(self):
        with pytest.raises(OptimizerError, match="support and reject"):
            register_algorithm(
                "impossible", supports_bounds=True, rejects_bounds=True
            )

    def test_custom_registration_roundtrip(self):
        @register_algorithm("custom_test_algo", description="test stub")
        def stub(block, cost_model, preferences, *, alpha, config,
                 deadline, strict):
            raise NotImplementedError

        try:
            assert "custom_test_algo" in available_algorithms()
            assert get_algorithm("custom_test_algo").runner is stub
        finally:
            unregister_algorithm("custom_test_algo")
        assert "custom_test_algo" not in available_algorithms()

    def test_bounds_rejection_capability(self):
        register_algorithm("strict_bounds_algo", rejects_bounds=True)(
            lambda *a, **k: None
        )
        try:
            spec = get_algorithm("strict_bounds_algo")
            spec.validate(WEIGHTED_2D)  # unbounded passes
            with pytest.raises(OptimizerError, match="does not accept"):
                spec.validate(BOUNDED_2D)
        finally:
            unregister_algorithm("strict_bounds_algo")
