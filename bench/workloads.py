"""Seeded workload generator for the shearfield benchmark.

A workload is a list of CLI jobs.  The seed only chooses shear values and
tangent triples; the edges, grids and sizes are fixed here, so every seed
costs the same amount of work.  Inputs are written as shear JSON files into
a scratch directory; the program sees nothing else.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

DEFAULT_SEED = 0

# enumerate_edges(6)[:60] as [p_num, p_den, q_num, q_den]; 32 fan tips.
GRID_EDGES = [
    (1, 0, 0, 1), (0, 1, 1, 1), (1, 1, 1, 0), (1, 0, -1, 1), (-1, 1, 0, 1),
    (0, 1, 1, 2), (1, 2, 1, 1), (1, 1, 2, 1), (2, 1, 1, 0), (1, 0, -2, 1),
    (-2, 1, -1, 1), (-1, 1, -1, 2), (-1, 2, 0, 1), (0, 1, 1, 3), (1, 3, 1, 2),
    (1, 2, 2, 3), (2, 3, 1, 1), (1, 1, 3, 2), (3, 2, 2, 1), (2, 1, 3, 1),
    (3, 1, 1, 0), (1, 0, -3, 1), (-3, 1, -2, 1), (-2, 1, -3, 2), (-3, 2, -1, 1),
    (-1, 1, -2, 3), (-2, 3, -1, 2), (-1, 2, -1, 3), (-1, 3, 0, 1), (0, 1, 1, 4),
    (1, 4, 1, 3), (1, 3, 2, 5), (2, 5, 1, 2), (1, 2, 3, 5), (3, 5, 2, 3),
    (2, 3, 3, 4), (3, 4, 1, 1), (1, 1, 4, 3), (4, 3, 3, 2), (3, 2, 5, 3),
    (5, 3, 2, 1), (2, 1, 5, 2), (5, 2, 3, 1), (3, 1, 4, 1), (4, 1, 1, 0),
    (1, 0, -4, 1), (-4, 1, -3, 1), (-3, 1, -5, 2), (-5, 2, -2, 1), (-2, 1, -5, 3),
    (-5, 3, -3, 2), (-3, 2, -4, 3), (-4, 3, -1, 1), (-1, 1, -3, 4), (-3, 4, -2, 3),
    (-2, 3, -3, 5), (-3, 5, -1, 2), (-1, 2, -2, 5), (-2, 5, -1, 3), (-1, 3, -1, 4),
]

# grid and oracle jobs: x = -2.9, -1.9, ..., 3.1.  Off the integers, where
# every interval field of the edge list vanishes and only rays would count.
GRID_X = ("--from", "-2.9", "--to", "3.1", "--samples", "7")
FOURIER_N_MAX = "16"

# Edges {0, 1/n} and {1/n, 1/(n+1)}: tips of Farey order n + 1 and n + 2.
DEEP_N = (1000, 2000, 4000, 8000)
DEEP_EDGES = [e for n in DEEP_N for e in ((0, 1, 1, n), (1, n, 1, n + 1))]
DEEP_MAX_ORDER = "10000"  # above every deep tip's order
# x = 3e-5, 1.3e-4, ..., 1.23e-3: inside the supports, off their endpoints
DEEP_GRID = ("--from", "0.00003", "--to", "0.00123", "--samples", "13")

TORUS_GRAM_DEPTHS = (5, 6)
TORUS_PAIR_DEPTH = 6


@dataclass(frozen=True)
class Job:
    """One CLI invocation and the check its output must pass."""

    name: str
    argv: tuple
    kind: str


@dataclass(frozen=True)
class Workload:
    name: str
    jobs: tuple
    edge_set: str = ""    # "grid" or "deep": the edge list of the shear file
    values: tuple = ()    # the shear values the seed gave those edges
    triples: tuple = ()   # torus: the two cusp triples of `wp pair`


def shear_values(rng: random.Random, n: int) -> list[float]:
    """n standard normal shear values, none exactly zero."""
    out = []
    while len(out) < n:
        v = rng.gauss(0.0, 1.0)
        if v != 0.0:
            out.append(v)
    return out


def cusp_triple(rng: random.Random) -> tuple[int, int, int]:
    """Integer triple (a, b, -a-b) with every component nonzero, so that
    no quotient edge is skipped and every seed does the same work."""
    while True:
        a, b = rng.randint(-5, 5), rng.randint(-5, 5)
        if a and b and a + b:
            return a, b, -a - b


def write_shears(path: Path, edges, values) -> str:
    doc = {"edges": [{"p": [e[0], e[1]], "q": [e[2], e[3]], "value": v}
                     for e, v in zip(edges, values)]}
    path.write_text(json.dumps(doc))
    return str(path)


def grid_jobs(shears: str) -> tuple:
    s = ("--shears", shears)
    return (
        Job("field", ("field", "eval", *s, *GRID_X), "field"),
        Job("hilbert_closed", ("hilbert", "eval", "--mode", "closed", *s,
                               *GRID_X), "field"),
        Job("hilbert_shear", ("hilbert", "shear", *s, "--edge", "0,1,1,1",
                              "--max-order", "6"), "hilbert_shear"),
        Job("fourier", ("fourier", *s, "--n-max", FOURIER_N_MAX), "fourier"),
        Job("zygmund", ("zygmund", "check", *s), "zygmund"),
        Job("farey_vertices", ("farey", "vertices", "--max-order", "4"), "exact"),
        Job("farey_edges", ("farey", "edges", "--max-order", "4"), "exact"),
    )


def deep_jobs(shears: str) -> tuple:
    # every tip is kept, so each sample walks to every tip's Farey parents;
    # a narrow window keeps the Zygmund scan over the tip-0 fan (indices
    # -n) from outweighing those walks
    s = ("--shears", shears, "--max-order", DEEP_MAX_ORDER)
    return (
        Job("field", ("field", "eval", *s, *DEEP_GRID), "field"),
        Job("hilbert_closed", ("hilbert", "eval", *s, *DEEP_GRID), "field"),
        Job("zygmund", ("zygmund", "check", *s, "--window", "2"), "zygmund"),
    )


def build(name: str, seed: int, workdir: Path) -> Workload:
    """Generate the inputs of workload `name` for `seed` under `workdir`."""
    rng = random.Random(f"{name}:{seed}")
    if name in ("grid", "oracle"):
        # both draw from the same stream, so oracle sees grid's shear file
        values = shear_values(random.Random(f"grid:{seed}"), len(GRID_EDGES))
        path = write_shears(workdir / "grid.json", GRID_EDGES, values)
        if name == "grid":
            jobs = grid_jobs(path)
        else:
            jobs = (Job("oracle", ("hilbert", "eval", "--mode", "oracle",
                                   "--shears", path, *GRID_X), "oracle"),)
        return Workload(name, jobs, "grid", tuple(values))
    if name == "deep":
        values = shear_values(rng, len(DEEP_EDGES))
        path = write_shears(workdir / "deep.json", DEEP_EDGES, values)
        return Workload(name, deep_jobs(path), "deep", tuple(values))
    if name == "torus":
        t1, t2 = cusp_triple(rng), cusp_triple(rng)
        jobs = tuple(Job(f"gram_{d}", ("wp", "gram", "--depth", str(d)), "gram")
                     for d in TORUS_GRAM_DEPTHS)
        # "--t1=-3,..." : a separate "-3,..." would parse as an option
        jobs += (Job("pair", ("wp", "pair", "--depth", str(TORUS_PAIR_DEPTH),
                              "--t1=" + ",".join(map(str, t1)),
                              "--t2=" + ",".join(map(str, t2))), "pair"),)
        return Workload(name, jobs, triples=(t1, t2))
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("grid", "oracle", "torus", "deep")
