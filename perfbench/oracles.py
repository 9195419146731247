"""Correctness checks for benchmark jobs, independent of report digests.

Passing reports of one command are often byte-identical across inputs
(every passing `bv-check` report is), so a digest alone cannot tell a
right answer from a wrong one. Each job therefore names an oracle: a
closed-form value, a structural property recomputed here with plain
Fractions, or a cross-check against another job of the same round.
`check` returns None for a correct report, else the reason it is wrong.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from bvkit.complexes import cohomology, torus_complex


def rref(rows) -> list[list[Fraction]]:
    """Nonzero rows of the reduced row-echelon form, pivots scaled to 1."""
    a = [[Fraction(x) for x in r] for r in rows]
    out, col = [], 0
    width = len(a[0]) if a else 0
    while a and col < width:
        piv = next((r for r in a if r[col] != 0), None)
        if piv is not None:
            a.remove(piv)
            piv = [x / piv[col] for x in piv]
            a = [[x - r[col] * y for x, y in zip(r, piv)] for r in a]
            out = [[x - r[col] * y for x, y in zip(r, piv)] for r in out]
            out.append(piv)
        col += 1
    return out


def rank(rows) -> int:
    return len(rref(rows))


def fracs(m) -> list[list[Fraction]]:
    return [[Fraction(x) for x in row] for row in m]


def monomial_count(n_vars: int, max_len: int) -> int:
    """Monomials of word length at most max_len in n_vars even variables."""
    if n_vars == 0:
        return 1
    return sum(math.comb(n_vars + k - 1, k) for k in range(max_len + 1))


@lru_cache(maxsize=None)
def bf_torus_moduli(n: int) -> dict[str, int]:
    """Abelian BF on the closed n-by-n torus: the ghost carries H^0, the
    fields A and B carry H^1 and H^2, their antifields H^1 and H^0, and
    the ghost antifield H^2."""
    t = torus_complex(n, n)
    h0, h1, h2 = (cohomology(t, k).dimension for k in range(3))
    out = {"1": h0, "0": h1 + h2, "-1": h1 + h0, "-2": h2}
    return {d: v for d, v in out.items() if v}


def _twisted_pairing(om, u, v) -> Fraction:
    n = len(om)
    s = sum(u[a] * om[a][b] * v[b] for a in range(n) for b in range(n))
    t = sum(u[n + a] * om[a][b] * v[n + b] for a in range(n) for b in range(n))
    return t - s


def _nonzero(dims: dict) -> dict:
    return {d: v for d, v in dims.items() if v}


def check(job, report: dict, results: dict) -> str | None:
    """Oracle verdict for one report; `results` maps the round's job ids
    to their reports, for checks that compare two jobs."""
    if report["status"] != "pass":
        return f"status {report['status']}"
    p = report["payload"]
    kind, *args = job.oracle
    if kind == "bv_passed":
        ok = p["passed"] is True
    elif kind == "moduli":
        ok = _nonzero(p["dims"]) == args[0]
    elif kind == "bf_torus_moduli":
        ok = _nonzero(p["dims"]) == bf_torus_moduli(args[0])
    elif kind == "glued":
        ok = p["exact"] is True and p["lagrangian"] is True
    elif kind == "dtn_laplacian":
        m = fracs(p["matrix"])
        ok = (sorted(p["vertices"]) == sorted(args[0])
              and all(m[i][j] == m[j][i] for i in range(len(m))
                      for j in range(len(m)))
              and all(sum(row) == 0 for row in m)
              and all(m[i][i] > 0 for i in range(len(m))))
    elif kind == "dtn_schur":
        s = Fraction(args[0])
        ok = fracs(p["matrix"]) == [[s, -s], [-s, s]]
    elif kind == "hj_matches_dtn":
        dtn_id, values = args
        ref = results.get(dtn_id)
        if ref is None or ref["status"] != "pass":
            return f"no passing {dtn_id} report to compare with"
        phi = [Fraction(values[v]) for v in ref["payload"]["vertices"]]
        lam = fracs(ref["payload"]["matrix"])
        want = sum(phi[i] * lam[i][j] * phi[j] for i in range(len(phi))
                   for j in range(len(phi))) / 2
        ok = Fraction(p["action"]) == want
    elif kind == "compose_graphs":
        gf = args[0]
        body = fracs(p["relation"]["body"])
        n = len(gf)
        ok = p["lagrangian"] is True and len(body) == n and all(
            row[n:] == [sum(gf[i][k] * row[k] for k in range(n))
                        for i in range(n)] for row in body)
    elif kind == "compose_identity":
        ok = fracs(p["relation"]["body"]) == rref(args[0])
    elif kind == "dirac":
        ok = p["isotropic"] is True and p["lagrangian"] is False
    elif kind == "classified":
        om, body = args
        iso = all(_twisted_pairing(om, u, v) == 0 for u in body for v in body)
        ok = p["body_dim"] == rank(body) and p["isotropic"] is iso
    elif kind == "reduced":
        alpha = args[0]
        n = len(alpha)
        d = [[alpha[b][a] - alpha[a][b] for b in range(n)] for a in range(n)]
        ok = p["preboundary_dim"] == n and p["dim"] == rank(d)
    elif kind == "resolved":
        ok = p["dim"] == args[0]
    elif kind == "bfv_degree0":
        ok = p["dims"]["0"] == monomial_count(*args)
    elif kind == "corner_pairs":
        ok = sorted(d for _, d in p["labels"]) == [0] * args[0] + [1] * args[0]
    elif kind == "dims":
        ok = p["dims"] == args[0]
    elif kind == "fixture":
        ok = p["fixture"] == args[0]
    else:
        raise ValueError(f"unknown oracle {kind!r}")
    return None if ok else f"oracle {kind} does not hold"
