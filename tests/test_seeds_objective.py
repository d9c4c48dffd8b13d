"""Unit + property tests for the seed-selection objective.

The monotonicity and submodularity properties are what licence the
greedy approximation guarantee, so they are property-tested on random
graphs rather than assumed.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import SelectionError
from repro.history.correlation import CorrelationEdge, CorrelationGraph
from repro.seeds.objective import SeedSelectionObjective
from tests.oracles import ScalarObjective


def triangle_graph():
    return CorrelationGraph(
        [0, 1, 2, 3],
        [
            CorrelationEdge(0, 1, 0.9),
            CorrelationEdge(1, 2, 0.9),
            CorrelationEdge(0, 2, 0.8),
        ],
    )


@st.composite
def random_graphs(draw):
    n = draw(st.integers(min_value=3, max_value=8))
    edges = []
    seen = set()
    for _ in range(draw(st.integers(min_value=1, max_value=12))):
        u = draw(st.integers(min_value=0, max_value=n - 1))
        v = draw(st.integers(min_value=0, max_value=n - 1))
        key = (min(u, v), max(u, v))
        if u == v or key in seen:
            continue
        seen.add(key)
        edges.append(
            CorrelationEdge(u, v, draw(st.floats(min_value=0.55, max_value=0.95)))
        )
    return CorrelationGraph(list(range(n)), edges)


class TestValue:
    def test_single_seed_covers_itself_fully(self):
        objective = SeedSelectionObjective(triangle_graph())
        # Seed 3 is isolated: covers exactly itself.
        assert objective.value([3]) == pytest.approx(1.0)

    def test_seed_covers_neighbours_by_fidelity(self):
        objective = SeedSelectionObjective(
            triangle_graph(), min_fidelity=0.01, transform="fidelity"
        )
        # Seed 0: itself (1.0) + road1 (q=0.8) + road2 best path:
        # direct q=0.6 vs 0->1->2 q=0.8*0.8=0.64 -> 0.64.
        assert objective.value([0]) == pytest.approx(1.0 + 0.8 + 0.64)

    def test_variance_transform_is_default(self):
        import math

        objective = SeedSelectionObjective(triangle_graph(), min_fidelity=0.01)
        assert objective.transform == "variance"
        rho = math.sin(math.pi * 0.8 / 2.0)
        influence = objective.influence_map(0)
        assert influence[1] == pytest.approx(rho * rho)
        assert influence[0] == pytest.approx(1.0)  # self-influence stays 1

    def test_unknown_transform_rejected(self):
        with pytest.raises(SelectionError):
            SeedSelectionObjective(triangle_graph(), transform="magic")

    def test_clone_with_weights_shares_cache(self):
        objective = SeedSelectionObjective(triangle_graph())
        objective.influence_map(0)
        clone = objective.clone_with_weights({0: 1.0, 1: 1.0, 2: 0.0, 3: 0.0})
        assert clone.influence_map(0) is objective.influence_map(0)
        assert clone.max_value == 2.0

    def test_duplicates_ignored(self):
        objective = SeedSelectionObjective(triangle_graph())
        assert objective.value([0, 0]) == objective.value([0])

    def test_max_value_is_road_count_for_uniform_weights(self):
        objective = SeedSelectionObjective(triangle_graph())
        assert objective.max_value == 4.0

    def test_all_seeds_reach_ceiling(self):
        objective = SeedSelectionObjective(triangle_graph())
        assert objective.value([0, 1, 2, 3]) == pytest.approx(4.0)
        assert objective.coverage_fraction([0, 1, 2, 3]) == pytest.approx(1.0)

    def test_weighted_roads(self):
        objective = SeedSelectionObjective(
            triangle_graph(), road_weights={0: 2.0, 1: 1.0, 2: 0.0, 3: 0.0}
        )
        assert objective.max_value == 3.0
        assert objective.value([3]) == pytest.approx(0.0)  # covers a 0-weight road

    def test_weight_validation(self):
        with pytest.raises(SelectionError):
            SeedSelectionObjective(triangle_graph(), road_weights={99: 1.0})
        with pytest.raises(SelectionError):
            SeedSelectionObjective(triangle_graph(), road_weights={0: -1.0})


class TestCoverageState:
    def test_gain_then_add_consistent(self):
        objective = SeedSelectionObjective(triangle_graph())
        state = objective.new_state()
        gain = state.gain(0)
        realised = state.add(0)
        assert realised == pytest.approx(gain)
        assert state.value == pytest.approx(gain)

    def test_gain_of_existing_seed_is_zero(self):
        objective = SeedSelectionObjective(triangle_graph())
        state = objective.new_state()
        state.add(0)
        assert state.gain(0) == 0.0

    def test_unknown_candidate_raises(self):
        objective = SeedSelectionObjective(triangle_graph())
        with pytest.raises(SelectionError):
            objective.new_state().gain(42)

    def test_state_value_matches_from_scratch(self):
        objective = SeedSelectionObjective(triangle_graph())
        state = objective.new_state()
        for seed in (1, 3):
            state.add(seed)
        assert state.value == pytest.approx(objective.value([1, 3]))

    def test_duplicate_add_is_a_noop(self):
        """Regression: re-adding a seed used to double-discount residuals.

        ``add(s)`` multiplied the residual by ``1 - q`` again on every
        call, silently corrupting later gain computations. A repeat add
        must leave residual, seed list and value untouched and realise
        zero gain.
        """
        objective = SeedSelectionObjective(triangle_graph())
        state = objective.new_state()
        state.add(0)
        residual_before = state.residual.copy()
        seeds_before = list(state.seeds)
        value_before = state.value

        realised = state.add(0)

        assert realised == 0.0
        assert list(state.seeds) == seeds_before
        assert state.value == value_before
        assert (state.residual == residual_before).all()

    @settings(max_examples=30, deadline=None)
    @given(graph=random_graphs(), data=st.data())
    def test_duplicate_add_noop_property(self, graph, data):
        """add(s); add(s) == add(s), for any graph, seed and prefix."""
        objective = SeedSelectionObjective(graph, min_fidelity=0.01)
        state = objective.new_state()
        prefix = data.draw(
            st.sets(st.sampled_from(graph.road_ids), max_size=len(graph.road_ids))
        )
        for seed in sorted(prefix):
            state.add(seed)
        seed = data.draw(st.sampled_from(graph.road_ids))
        state.add(seed)
        seeds_snapshot = list(state.seeds)
        value_snapshot = state.value
        residual_snapshot = state.residual.copy()
        assert state.add(seed) == 0.0
        assert list(state.seeds) == seeds_snapshot
        assert state.value == value_snapshot
        assert (state.residual == residual_snapshot).all()

    def test_gain_uses_set_membership(self):
        """Every selected seed gains zero, regardless of insertion order."""
        graph = CorrelationGraph(
            list(range(8)),
            [CorrelationEdge(i, i + 1, 0.9) for i in range(7)],
        )
        objective = SeedSelectionObjective(graph, min_fidelity=0.01)
        state = objective.new_state()
        for seed in (5, 1, 7, 3):
            state.add(seed)
        for seed in (1, 3, 5, 7):
            assert state.gain(seed) == 0.0
        for seed in (0, 2, 4, 6):
            assert state.gain(seed) > 0.0

    def test_kernel_and_scalar_states_agree(self):
        from repro.history.fidelity import FidelityCacheService

        graph = triangle_graph()
        kernel = SeedSelectionObjective(
            graph, fidelity_service=FidelityCacheService()
        )
        scalar = ScalarObjective(graph)
        ks, ss = kernel.new_state(), scalar.new_state()
        for seed in (0, 3):
            assert ks.gain(seed) == pytest.approx(ss.gain(seed), abs=1e-12)
            assert ks.add(seed) == pytest.approx(ss.add(seed), abs=1e-12)
        assert ks.value == pytest.approx(ss.value, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(graph=random_graphs(), data=st.data())
def test_monotone(graph, data):
    """Q(S) <= Q(S + {x}) for any S and x."""
    objective = SeedSelectionObjective(graph, min_fidelity=0.01)
    roads = graph.road_ids
    subset = data.draw(st.sets(st.sampled_from(roads), max_size=len(roads) - 1))
    extra = data.draw(st.sampled_from([r for r in roads if r not in subset]))
    assert objective.value(list(subset) + [extra]) >= objective.value(
        list(subset)
    ) - 1e-9


@settings(max_examples=40, deadline=None)
@given(graph=random_graphs(), data=st.data())
def test_submodular(graph, data):
    """gain(x | S) >= gain(x | S + {y}) — diminishing returns."""
    objective = SeedSelectionObjective(graph, min_fidelity=0.01)
    roads = graph.road_ids
    if len(roads) < 3:
        return
    subset = data.draw(
        st.sets(st.sampled_from(roads), max_size=len(roads) - 2)
    )
    rest = [r for r in roads if r not in subset]
    x = data.draw(st.sampled_from(rest))
    y = data.draw(st.sampled_from([r for r in rest if r != x]))

    small = objective.new_state()
    for s in sorted(subset):
        small.add(s)
    gain_small = small.gain(x)
    small.add(y)
    gain_large = small.gain(x)
    assert gain_small >= gain_large - 1e-9


@settings(max_examples=20, deadline=None)
@given(graph=random_graphs())
def test_value_never_exceeds_ceiling(graph):
    objective = SeedSelectionObjective(graph, min_fidelity=0.01)
    all_roads = graph.road_ids
    for size in range(1, len(all_roads) + 1):
        value = objective.value(all_roads[:size])
        assert value <= objective.max_value + 1e-9


def test_brute_force_optimum_sanity():
    """Greedy state values agree with explicit 1-Π(1-q) computation."""
    graph = triangle_graph()
    objective = SeedSelectionObjective(graph, min_fidelity=0.01)
    for combo in itertools.combinations(graph.road_ids, 2):
        maps = [objective.influence_map(s) for s in combo]
        expected = 0.0
        for road in graph.road_ids:
            residual = 1.0
            for influence in maps:
                residual *= 1.0 - influence.get(road, 0.0)
            expected += 1.0 - residual
        assert objective.value(list(combo)) == pytest.approx(expected)
