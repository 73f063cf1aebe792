"""Shared instance builders for the test suite.

Grid instances use integer Manhattan distances so every cost claim can be
checked with exact arithmetic; Euclidean instances come straight from the
package generator when the float path matters.

Hypothesis runs derandomized by default, so every run tries the same
examples and a failure reproduces as it stands. Run
`pytest --hypothesis-profile=default` to explore with fresh random examples.
"""

from __future__ import annotations

import random

import numpy as np
from hypothesis import settings

from rbmedian.instance import Instance, Solution
from rbmedian.metric import MetricSpace

settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")


def grid_instance(rng: random.Random, n_clients: int, n_red: int, n_blue: int,
                  k_r: int, k_b: int, span: int = 50) -> Instance:
    """Random integer-metric instance: Manhattan distances on grid points."""
    n = n_clients + n_red + n_blue
    pts = [(rng.randrange(span), rng.randrange(span)) for _ in range(n)]
    dist = np.array(
        [[abs(ax - bx) + abs(ay - by) for (bx, by) in pts] for (ax, ay) in pts],
        dtype=np.int64,
    )
    return Instance(
        space=MetricSpace(dist),
        clients=tuple(range(n_clients)),
        red=tuple(range(n_clients, n_clients + n_red)),
        blue=tuple(range(n_clients + n_red, n)),
        k_r=k_r,
        k_b=k_b,
    )


def random_sized_grid(rng: random.Random, max_clients: int = 12,
                      max_per_colour: int = 7) -> Instance:
    """Grid instance with random sizes and budgets, k_r + k_b >= 1."""
    n_red = rng.randint(1, max_per_colour)
    n_blue = rng.randint(1, max_per_colour)
    while True:
        k_r = rng.randint(0, n_red)
        k_b = rng.randint(0, n_blue)
        if k_r + k_b >= 1:
            break
    return grid_instance(rng, rng.randint(1, max_clients), n_red, n_blue, k_r, k_b)


def random_feasible(rng: random.Random, inst: Instance) -> Solution:
    return Solution(
        R=frozenset(rng.sample(list(inst.red), inst.k_r)),
        B=frozenset(rng.sample(list(inst.blue), inst.k_b)),
    )


def same_instance(a: Instance, b: Instance) -> bool:
    """Same roles, budgets and distance table, of the same kind."""
    return ((a.clients, a.red, a.blue, a.k_r, a.k_b, a.space.integral)
            == (b.clients, b.red, b.blue, b.k_r, b.k_b, b.space.integral)
            and np.array_equal(a.space.dist, b.space.dist))


def line_instance(positions_clients, positions_red, positions_blue, k_r, k_b) -> Instance:
    """1-D integer metric: locations at given line coordinates.

    Index layout is clients, then red, then blue, in the order given.
    """
    coords = list(positions_clients) + list(positions_red) + list(positions_blue)
    n = len(coords)
    dist = np.array([[abs(a - b) for b in coords] for a in coords], dtype=np.int64)
    nc, nr = len(positions_clients), len(positions_red)
    return Instance(
        space=MetricSpace(dist),
        clients=tuple(range(nc)),
        red=tuple(range(nc, nc + nr)),
        blue=tuple(range(nc + nr, n)),
        k_r=k_r,
        k_b=k_b,
    )
