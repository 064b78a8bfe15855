"""Random weighted test networks and a breadth-first component search
(shared by unit and acceptance tests)."""

from __future__ import annotations

import numpy as np

from risknet.network import RiskNetwork


def random_connected(rng: np.random.Generator, n: int, extra_edge_prob: float = 0.4,
                     low: float = 0.1, high: float = 1.0) -> RiskNetwork:
    """Random connected network: a random tree plus extra random edges,
    weights uniform in [low, high]."""
    w = np.zeros((n, n))
    for v in range(1, n):
        parent = int(rng.integers(0, v))
        weight = float(rng.uniform(low, high))
        w[v, parent] = w[parent, v] = weight
    for i in range(n):
        for j in range(i + 1, n):
            if w[i, j] == 0.0 and rng.random() < extra_edge_prob:
                weight = float(rng.uniform(low, high))
                w[i, j] = w[j, i] = weight
    return from_weights(w)


def from_weights(w: np.ndarray, label: str = "test") -> RiskNetwork:
    n = w.shape[0]
    return RiskNetwork(
        window_id=1,
        label=label,
        firms=tuple(f"F{i:02d}" for i in range(n)),
        weights=np.asarray(w, dtype=float),
    )


def bfs_components(weights: np.ndarray) -> tuple[tuple[int, ...], ...]:
    """Components of the positive weights by a per-vertex search: members
    sorted, components ordered by their smallest vertex."""
    n = weights.shape[0]
    seen = [False] * n
    components = []
    for start in range(n):
        if seen[start]:
            continue
        seen[start] = True
        stack, members = [start], [start]
        while stack:
            v = stack.pop()
            for u in range(n):
                if weights[v, u] > 0.0 and not seen[u]:
                    seen[u] = True
                    stack.append(u)
                    members.append(u)
        components.append(tuple(sorted(members)))
    return tuple(components)


def cut_vertices(weights: np.ndarray) -> dict[int, int]:
    """Each vertex whose removal leaves more than one component, with the
    order of the largest component left."""
    n = weights.shape[0]
    cuts = {}
    for v in range(n):
        keep = [i for i in range(n) if i != v]
        pieces = bfs_components(weights[np.ix_(keep, keep)])
        if len(pieces) > 1:
            cuts[v] = max(len(p) for p in pieces)
    return cuts
