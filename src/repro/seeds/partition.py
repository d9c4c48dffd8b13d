"""Partition-based approximate seed selection.

The fastest selection variant: split the correlation graph into
``num_partitions`` connected chunks (BFS-grown, deterministic), give
each chunk a budget share proportional to its size, and run lazy greedy
*inside* each chunk with influence restricted to chunk members.

Rationale: influence is local (pruned at a fidelity floor), so the gain
a seed earns outside its own neighbourhood is limited; ignoring
cross-partition coverage loses little objective value but makes every
marginal-gain evaluation touch only a chunk. Experiment F4 measures the
speed-up and F5 the objective cost versus exact greedy.
"""

from __future__ import annotations

from collections import deque
from typing import Sequence

from repro.core.errors import SelectionError
from repro.seeds.greedy import SelectionResult, validate_budget
from repro.seeds.lazy import lazy_greedy_select
from repro.seeds.objective import SeedSelectionObjective


def partition_graph(
    objective: SeedSelectionObjective, num_partitions: int
) -> list[list[int]]:
    """Deterministic BFS-grown partition of the correlation graph.

    Chunks are grown to ``ceil(n / num_partitions)`` roads from the
    smallest-id unassigned road, following correlation edges (strongest
    first, as ordered by the graph), so chunks are connected whenever the
    graph is. Returns non-empty chunks; there may be fewer than requested
    when the graph is small.
    """
    if num_partitions < 1:
        raise SelectionError(f"num_partitions must be >= 1, got {num_partitions}")
    graph = objective.graph
    roads = graph.road_ids
    target = -(-len(roads) // num_partitions)  # ceil division
    unassigned = set(roads)
    partitions: list[list[int]] = []
    while unassigned:
        start = min(unassigned)
        chunk: list[int] = []
        # deque.popleft() is O(1); a list.pop(0) here is O(queue) and made
        # the whole partition quadratic at metropolitan scale (50k+ roads).
        queue: deque[int] = deque([start])
        unassigned.discard(start)
        while queue and len(chunk) < target:
            road = queue.popleft()
            chunk.append(road)
            for neighbour in graph.neighbour_ids(road):
                if neighbour in unassigned:
                    unassigned.discard(neighbour)
                    queue.append(neighbour)
        # Roads pulled into the queue but not placed return to the pool.
        unassigned.update(queue)
        partitions.append(sorted(chunk))
    return partitions


def allocate_budget(partitions: list[list[int]], budget: int) -> list[int]:
    """Largest-remainder proportional budget split, ≥0 per chunk.

    Each chunk gets at most its own size; the total always equals
    ``budget`` (which callers must ensure does not exceed total roads).
    """
    total = sum(len(p) for p in partitions)
    if budget > total:
        raise SelectionError(f"budget {budget} exceeds {total} partitioned roads")
    exact = [budget * len(p) / total for p in partitions]
    shares = [min(len(p), int(e)) for p, e in zip(partitions, exact)]
    remainders = sorted(
        range(len(partitions)),
        key=lambda i: (exact[i] - int(exact[i]), -len(partitions[i])),
        reverse=True,
    )
    shortfall = budget - sum(shares)
    for i in remainders:
        if shortfall == 0:
            break
        room = len(partitions[i]) - shares[i]
        if room > 0:
            add = min(room, shortfall)
            shares[i] += add
            shortfall -= add
    if shortfall:
        # Distribute anything left to whichever chunks still have room.
        for i in range(len(partitions)):
            room = len(partitions[i]) - shares[i]
            add = min(room, shortfall)
            shares[i] += add
            shortfall -= add
            if shortfall == 0:
                break
    return shares


def partition_greedy_select(
    objective: SeedSelectionObjective,
    budget: int,
    num_partitions: int = 8,
    partitions: Sequence[Sequence[int]] | None = None,
) -> SelectionResult:
    """Partitioned lazy greedy; near-greedy quality at a fraction of cost.

    ``partitions`` reuses districts the caller already computed
    (default: ``partition_graph(objective, num_partitions)``).
    """
    validate_budget(objective, budget)
    if partitions is None:
        partitions = partition_graph(objective, num_partitions)
    shares = allocate_budget(partitions, budget)

    seeds: list[int] = []
    evaluations = 0
    for chunk, share in zip(partitions, shares):
        if share == 0:
            continue
        member_weights = {
            road: float(objective.weights[objective.index[road]]) for road in chunk
        }
        local = objective.clone_with_weights(member_weights)
        result = lazy_greedy_select(local, share, candidates=chunk)
        seeds.extend(result.seeds)
        evaluations += result.evaluations

    # Score the combined set against the *global* objective so results
    # are comparable across methods.
    state = objective.new_state()
    gains: list[float] = []
    values: list[float] = []
    for seed in seeds:
        gains.append(state.add(seed))
        values.append(state.value)
    return SelectionResult(
        method="partition-greedy",
        seeds=tuple(seeds),
        gains=tuple(gains),
        values=tuple(values),
        evaluations=evaluations,
    )

