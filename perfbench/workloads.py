"""Seeded job generators for the three benchmark workloads.

A workload is one round of jobs: a fixed mix of subcommands and input
sizes, with the inputs and the order drawn from the seed. The benchmark
repeats the round, so every round re-runs the same inputs. Generators
only build plain JSON; bvkit sees nothing but the files written from it.

Each job carries an oracle: a tuple naming the check in `oracles.py`
and the expected values that check needs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from bvkit import complexes
from oracles import rank


@dataclass(frozen=True)
class Job:
    id: str
    command: str
    input: Optional[dict]            # written to <id>.json and passed as --input
    flags: tuple[str, ...] = ()      # further CLI flags, e.g. --fixture
    group: str = ""                  # size class; the command when empty
    size: int = 0                    # vertices, cells or ambient dimension
    oracle: tuple = field(default=())

    def __post_init__(self):
        if not self.group:
            object.__setattr__(self, "group", self.command)


def q(x) -> str:
    return str(Fraction(x))


def rows_json(m) -> list[list[str]]:
    return [[q(x) for x in row] for row in m]


def _rand_weight(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(1, 3), rng.randint(1, 2))


# --- bv-package -------------------------------------------------------

def _weighted_grid(rng, n, holes=(), periodic=False) -> dict:
    """A cubical n-by-n complex whose face weights (the Hodge star of the
    ED metric term) are positive rationals drawn from the seed."""
    w = {("f", (i, j)): _rand_weight(rng) for i in range(n) for j in range(n)}
    return complexes.grid_complex(n, n, holes=list(holes), periodic=periodic,
                                  weights=w).to_dict()


# class -> (complex kind, bf, bv-check count, moduli count). A round of
# 15 jobs puts its tail rank (ten from the top) and its median inside the
# block of ten torus moduli jobs, four and seven jobs up.
BV_MIX = {
    "torus22-bf": ("torus", True, 1, 10),
    "grid22-ed": ("grid", False, 2, 1),
    "annulus3-ed": ("annulus", False, 0, 1),
}


def bv_package(seed: int) -> list[Job]:
    rng = random.Random(f"bv-package:{seed}")
    jobs = []
    for cls, (kind, bf, n_check, n_moduli) in BV_MIX.items():
        for i, command in enumerate(["bv-check"] * n_check
                                    + ["moduli"] * n_moduli):
            if kind == "torus":
                cx = _weighted_grid(rng, 2, periodic=True)
                oracle = ("bf_torus_moduli", 2)
            elif kind == "grid":
                cx = _weighted_grid(rng, 2)
                oracle = ("moduli", {})
            else:
                cx = _weighted_grid(rng, 3, holes=[(1, 1)])
                oracle = ("moduli", {"0": 1, "-1": 1})
            if command == "bv-check":
                oracle = ("bv_passed",)
            data = {"complex": cx, "bf": bf}
            n_coords = 2 * sum(len(c) for c in cx["cells"])
            jobs.append(Job(f"{cls}-{i:02d}-{command}", command, data,
                            group=f"{cls}/{command}", size=n_coords,
                            oracle=oracle))
    rng.shuffle(jobs)
    return jobs


# --- glue -------------------------------------------------------------

def partitioned_graph(shape, rng, n_left, n_right, n_cut) -> dict:
    """Random connected weighted graph split as left/cut/right.

    Each side is a random tree on its vertices plus the cut, with a
    quarter as many extra random edges; one or two left vertices form the
    incoming boundary and one or two right vertices the outgoing one.
    `shape` draws that structure, `rng` the edge weights.
    """
    names_l = [f"l{i}" for i in range(n_left)]
    names_r = [f"r{i}" for i in range(n_right)]
    names_c = [f"c{i}" for i in range(n_cut)]
    lv, rv = names_l + names_c, names_r + names_c

    def connected_edges(vs):
        out = [(vs[shape.randrange(i)], vs[i]) for i in range(1, len(vs))]
        for _ in range(len(vs) // 4):
            out.append(tuple(shape.sample(vs, 2)))
        return out

    edges = connected_edges(lv) + connected_edges(rv)
    names = names_l + names_r + names_c
    bnd = shape.sample(names_l, shape.randint(1, 2))
    bnd += shape.sample(names_r, shape.randint(1, 2))
    enames = [f"e{j}" for j in range(len(edges))]
    cx = {
        "dims": 1,
        "cells": [names, enames],
        "boundary": [{"cell": e, "faces": [[a, "-1"], [b, "1"]]}
                     for e, (a, b) in zip(enames, edges)],
        "boundary_flags": sorted(bnd),
        "weights": [["1"] * len(names),
                    [q(Fraction(rng.randint(1, 6), rng.randint(1, 3)))
                     for _ in edges]],
        "cubical": True,
    }
    return {"complex": cx, "cut": names_c, "left": lv, "right": rv}


def boundary_vertices(cx: dict) -> list[str]:
    flagged = set(cx["boundary_flags"])
    return [v for v in cx["cells"][0] if v in flagged]


# class -> (graph count, (left, right, cut) vertex counts, commands).
# Elimination cost swings by a factor of two between random structures of
# one size, so each graph's structure is drawn once, from its id; the seed
# draws weights, boundary values and the order.
GLUE_MIX = {
    "g50": (8, (23, 23, 3), ("glue", "dtn", "hj-action")),
    "g100": (4, (47, 47, 4), ("glue", "dtn", "hj-action")),
    "g200": (1, (96, 96, 5), ("glue",)),
}
GRID_DTN = (1, 10)   # planar grid(10, 10) DtN jobs per round, grid side
# unit-weight paths whose DtN map is [[s, -s], [-s, s]] with s = 1/(n - 1);
# these millisecond jobs put the round's median among the g50 jobs
PATH_DTN = range(3, 17)


def glue(seed: int) -> list[Job]:
    rng = random.Random(f"glue:{seed}")
    jobs = []
    for cls, (count, sizes, commands) in GLUE_MIX.items():
        for g in range(count):
            gid = f"{cls}-{g:02d}"
            part = partitioned_graph(random.Random(f"glue-shape:{gid}"), rng,
                                     *sizes)
            cx = part["complex"]
            nv = len(cx["cells"][0])
            for command in commands:
                if command == "glue":
                    data, oracle = part, ("glued",)
                elif command == "dtn":
                    data, oracle = cx, ("dtn_laplacian", boundary_vertices(cx))
                else:
                    values = {v: q(Fraction(rng.randint(-4, 4),
                                            rng.randint(1, 3)))
                              for v in cx["boundary_flags"]}
                    data = {"complex": cx, "boundary_values": values}
                    oracle = ("hj_matches_dtn", f"{gid}-dtn", values)
                jobs.append(Job(f"{gid}-{command}", command, data,
                                group=f"{cls}/{command}", size=nv,
                                oracle=oracle))
    count, n = GRID_DTN
    for g in range(count):
        w = {("h", (i, j)): _rand_weight(rng)
             for i in range(n) for j in range(n + 1)}
        w.update({("w", (i, j)): _rand_weight(rng)
                  for i in range(n + 1) for j in range(n)})
        cx = complexes.grid_complex(n, n, weights=w).to_dict()
        jobs.append(Job(f"grid{n}-{g:02d}-dtn", "dtn", cx,
                        group=f"grid{n}/dtn", size=len(cx["cells"][0]),
                        oracle=("dtn_laplacian", boundary_vertices(cx))))
    for n in PATH_DTN:
        cx = complexes.path_complex(n).to_dict()
        jobs.append(Job(f"path{n}-dtn", "dtn", cx, group="path/dtn", size=n,
                        oracle=("dtn_schur", f"1/{n - 1}")))
    rng.shuffle(jobs)
    return jobs


# --- small-jobs -------------------------------------------------------

def standard_omega(n_pairs: int) -> list[list[int]]:
    """Matrix of PresymplecticSpace.standard(n_pairs)."""
    n = 2 * n_pairs
    m = [[0] * n for _ in range(n)]
    for i in range(n_pairs):
        m[n_pairs + i][i] = 1
        m[i][n_pairs + i] = -1
    return m


def matmul(a, b):
    return [[sum(x * b[k][j] for k, x in enumerate(row))
             for j in range(len(b[0]))] for row in a]


def _block(a, b, c, d):
    return [ra + rb for ra, rb in zip(a, b)] + [rc + rd for rc, rd in zip(c, d)]


def symplectomorphism(rng, n) -> list[list[int]]:
    """Product of three random symplectic factors of the standard form:
    lower and upper symmetric shears and diag(A, A^-T) with A elementary."""
    eye = [[int(i == j) for j in range(n)] for i in range(n)]
    zero = [[0] * n for _ in range(n)]
    m = [[int(i == j) for j in range(2 * n)] for i in range(2 * n)]
    for _ in range(3):
        kind = rng.randrange(3) if n > 1 else rng.randrange(2)
        if kind < 2:
            s = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    s[i][j] = s[j][i] = rng.randint(-2, 2)
            g = _block(eye, zero, s, eye) if kind == 0 \
                else _block(eye, s, zero, eye)
        else:
            i, j = rng.sample(range(n), 2)
            t = rng.choice([-2, -1, 1, 2])
            a = [row[:] for row in eye]
            a[i][j] = t
            a_inv_t = [row[:] for row in eye]
            a_inv_t[j][i] = -t
            g = _block(a, zero, zero, a_inv_t)
        m = matmul(g, m)
    return m


def relation_json(omega_src, omega_tgt, body) -> dict:
    return {"source": {"omega": rows_json(omega_src)},
            "target": {"omega": rows_json(omega_tgt)},
            "body": rows_json(body)}


def graph_body(f) -> list[list[int]]:
    """Body rows (e_i, f e_i) of the graph of the square matrix f."""
    n = len(f)
    return [[int(i == j) for j in range(n)] + [f[k][i] for k in range(n)]
            for i in range(n)]


def random_body(rng, dim, count) -> list[list[int]]:
    return [[rng.randint(-3, 3) for _ in range(2 * dim)]
            for _ in range(count)]


def path_laplacian(weights) -> list[list[Fraction]]:
    n = len(weights) + 1
    lap = [[Fraction(0)] * n for _ in range(n)]
    for e, w in enumerate(weights):
        for a, b in ((e, e), (e + 1, e + 1)):
            lap[a][b] += w
        lap[e][e + 1] -= w
        lap[e + 1][e] -= w
    return lap


def momentum_constraints(rng, n_pairs, k) -> list[list[int]]:
    """k independent momentum constraints on n_pairs Darboux pairs."""
    while True:
        rows = [[rng.randint(-2, 2) for _ in range(n_pairs)]
                for _ in range(k)]
        if rank(rows) == k:
            return [[0] * n_pairs + r for r in rows]


FIXTURE_NAMES = ("interval", "path3", "path5", "grid", "disk", "annulus",
                 "circle", "torus", "oscillator", "free_particle", "dirac")

# command -> jobs per round
SMALL_MIX = {
    "compose": 40,
    "check-relation": 32,
    "reduce": 20,
    "collar": 20,
    "bfv-resolve": 20,
    "corner": 20,
    "boundary-bfv": 20,
    "fixtures": 11,
}

PAIRS = [(n, k) for n in range(1, 5) for k in range(1, n + 1)]

# (pairs, constraints, truncation) of the bfv-cohomology jobs of a round.
# Three heavy jobs sit above a block of ten equal ones, so the round's tail
# rank (ten jobs from the top) falls inside that block; the light ones
# take well under the block's time.
BFV_COHOMOLOGY = (
    [(4, 4, 3), (4, 3, 3), (3, 3, 3)] + [(4, 4, 2)] * 10
    + [(n, k, 2) for n, k in PAIRS if (n, k) != (4, 4)]
    + [(1, 1, 3), (2, 1, 3), (2, 2, 3), (3, 1, 3)])


def _small_job(rng, command, i) -> Job:
    """The i-th job of a command: sizes cycle with i, values are drawn."""
    jid = f"{command}-{i:02d}"
    if command == "compose":
        n = 1 + (i // 2) % 4
        om = standard_omega(n)
        if i % 2 == 0:
            f, g = symplectomorphism(rng, n), symplectomorphism(rng, n)
            data = {"first": relation_json(om, om, graph_body(f)),
                    "second": relation_json(om, om, graph_body(g))}
            return Job(jid, command, data, size=2 * n,
                       oracle=("compose_graphs", matmul(g, f)))
        body = random_body(rng, 2 * n, 1 + (i // 8) % (2 * n + 1))
        ident = graph_body([[int(a == b) for b in range(2 * n)]
                            for a in range(2 * n)])
        data = {"first": relation_json(om, om, body),
                "second": relation_json(om, om, ident)}
        return Job(jid, command, data, size=2 * n,
                   oracle=("compose_identity", body))
    if command == "check-relation":
        if i % 4 == 0:
            order = 1 + (i // 4) % 4
            return Job(jid, command, None,
                       flags=("--fixture", "dirac", "--order", str(order)),
                       size=order + 2, oracle=("dirac",))
        n = 1 + i % 4
        om = standard_omega(n)
        body = random_body(rng, 2 * n, 1 + (i // 4) % (2 * n + 1))
        return Job(jid, command, relation_json(om, om, body), size=2 * n,
                   oracle=("classified", om, body))
    if command in ("reduce", "collar"):
        n = 3 + i % 5
        weights = [_rand_weight(rng) for _ in range(n - 1)]
        lap = path_laplacian(weights)
        alpha = [row if a in (0, n - 1) else [Fraction(0)] * n
                 for a, row in enumerate(lap)]
        if command == "reduce":
            data = {"alpha": rows_json(alpha)}
        else:
            data = {"complex": complexes.path_complex(n, weights).to_dict(),
                    "fields": [{"name": "phi", "cell_dim": 0}],
                    "action": rows_json(lap)}
        return Job(jid, command, data, size=n, oracle=("reduced", alpha))
    if command == "bfv-resolve":
        n, k = PAIRS[i % len(PAIRS)]
        data = {"n_pairs": n,
                "constraints": rows_json(momentum_constraints(rng, n, k))}
        return Job(jid, command, data, size=2 * n,
                   oracle=("resolved", 2 * n + 2 * k))
    if command == "bfv-cohomology":
        n, k, t = BFV_COHOMOLOGY[i]
        data = {"n_pairs": n, "truncation": t,
                "constraints": rows_json(momentum_constraints(rng, n, k))}
        return Job(jid, command, data, group=f"{command}/t{t}",
                   size=2 * n + 2 * k,
                   oracle=("bfv_degree0", 2 * (n - k), t))
    if command == "corner":
        n = 3 + i % 6
        return Job(jid, command, complexes.path_complex(n).to_dict(), size=n,
                   oracle=("corner_pairs", 2))
    if command == "boundary-bfv":
        n = 3 + i % 7
        data = {"complex": complexes.circle_complex(n).to_dict(), "d": 2}
        return Job(jid, command, data, size=n,
                   oracle=("dims", {"-1": 1, "0": 2, "1": 1}))
    name = FIXTURE_NAMES[i % len(FIXTURE_NAMES)]
    flags = ("--fixture", name)
    if name in ("grid", "circle", "torus", "dirac"):
        flags += ("--order", str(2 + (i // len(FIXTURE_NAMES)) % 3))
    return Job(jid, command, None, flags=flags, oracle=("fixture", name))


def small_jobs(seed: int) -> list[Job]:
    rng = random.Random(f"small-jobs:{seed}")
    mix = dict(SMALL_MIX, **{"bfv-cohomology": len(BFV_COHOMOLOGY)})
    jobs = [_small_job(rng, command, i)
            for command, count in mix.items() for i in range(count)]
    rng.shuffle(jobs)
    return jobs


WORKLOADS = {"bv-package": bv_package, "glue": glue, "small-jobs": small_jobs}
