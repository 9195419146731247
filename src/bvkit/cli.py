"""Batch command-line driver: every pipeline as a subcommand with JSON
file I/O, canned fixture generators, and machine-readable reports.

Reports are JSON objects with sorted keys; rationals serialize as "p/q"
strings (the "/q" dropped when the denominator is one) so entries are
exact. A report re-run on the same inputs and seed is byte-identical.
Exit status: 0 when every residual vanishes, 1 when one does not, 2 on
malformed input or an unknown fixture.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional

from .bvbfv import (
    ConstraintSet,
    bfv_cohomology,
    bfv_resolve,
    boundary_bfv_reduction,
    build_ed_package,
    check_bvbfv,
    corner_extend,
    moduli_of_vacua,
)
from .collar import (
    BoundaryPackage,
    FieldSpec,
    QuadraticLocalTheory,
    boundary_one_form,
    preboundary_reduce,
)
from .complexes import (
    CellComplex,
    annulus_complex,
    circle_complex,
    grid_complex,
    path_complex,
    torus_complex,
)
from .graded import (
    GradedSymplecticSpace,
    GradedVectorSpace,
    TruncatedPolynomialAlgebra,
    poisson_bracket,
)
from .numkit import Matrix, Subspace, frac, vec
from .relations import LinearRelation, compose
from .symplect import OneForm, PresymplecticSpace
from .theories import (
    ScalarFieldTheory,
    dirac_counterexample,
    dtn,
    glue_scalar,
    on_shell_action,
    subgraph_theory,
)

__all__ = ["main", "run"]

EXIT = {"pass": 0, "fail": 1, "error": 2}


def mat_to_json(m: Matrix) -> list[list[str]]:
    return [[str(x) for x in row] for row in m.entries]


def mat_from_json(rows) -> Matrix:
    return Matrix.from_rows([[frac(x) for x in row] for row in rows])


def space_from_json(d: dict) -> PresymplecticSpace:
    omega = mat_from_json(d["omega"])
    return PresymplecticSpace(omega.rows, omega)


def relation_from_json(d: dict) -> LinearRelation:
    src = space_from_json(d["source"])
    tgt = space_from_json(d["target"])
    body = [tuple(frac(x) for x in row) for row in d["body"]]
    return LinearRelation(src, tgt,
                          Subspace.from_span(src.dim + tgt.dim, body))


def relation_to_json(rel: LinearRelation) -> dict:
    return {
        "source": {"omega": mat_to_json(rel.source.omega)},
        "target": {"omega": mat_to_json(rel.target.omega)},
        "body": [[str(x) for x in b] for b in rel.body.basis],
    }


def package_to_json(pkg: BoundaryPackage) -> dict:
    out = {
        "dim": pkg.boundary_space.dim,
        "preboundary_dim": pkg.preboundary_dim,
        "omega": mat_to_json(pkg.boundary_space.omega),
        "projection": mat_to_json(pkg.projection),
        "basic": pkg.basic,
        "alpha": None,
    }
    if pkg.alpha is not None:
        out["alpha"] = mat_to_json(pkg.alpha.coeff)
    return out


def residual(name: str, value) -> dict:
    if isinstance(value, Matrix):
        zero = value.is_zero()
        body = mat_to_json(value)
    elif hasattr(value, "is_zero"):
        zero = value.is_zero()
        body = [[list(m), str(c)] for m, c in value.terms]
    else:
        zero = frac(value) == 0
        body = str(value)
    return {"name": name, "zero": zero, "value": None if zero else body}


class CommandError(ValueError):
    pass


def _load_input(cfg) -> dict:
    if not cfg.input:
        raise CommandError("this command requires --input")
    try:
        with open(cfg.input) as fh:
            data = json.load(fh)
    except OSError as e:
        raise CommandError(f"cannot read input: {e}")
    except json.JSONDecodeError as e:
        raise CommandError(f"malformed JSON: {e}")
    if not isinstance(data, dict):
        raise CommandError("input must be a JSON object")
    return data


def _complex_of(data: dict) -> CellComplex:
    try:
        return CellComplex.from_dict(data)
    except (IndexError, KeyError, TypeError, ValueError) as e:
        raise CommandError(f"malformed complex JSON: {e!r}")


def _scalar_theory(data: dict) -> ScalarFieldTheory:
    return ScalarFieldTheory(_complex_of(data))


def _darboux(n_pairs: int) -> GradedSymplecticSpace:
    std = PresymplecticSpace.standard(n_pairs)
    labels = [(f"q{i}", 0) for i in range(n_pairs)]
    labels += [(f"p{i}", 0) for i in range(n_pairs)]
    return GradedSymplecticSpace(GradedVectorSpace.make(labels), std.omega, 0)


def _constraint_set(data: dict) -> ConstraintSet:
    n_pairs = int(data["n_pairs"])
    rows = tuple(vec([frac(x) for x in row]) for row in data["constraints"])
    for row in rows:
        if len(row) != 2 * n_pairs:
            raise CommandError("constraint length must be 2 * n_pairs")
    return ConstraintSet(_darboux(n_pairs), rows)


def _ed_input(data: dict):
    if "complex" in data:
        m = _complex_of(data["complex"])
    else:
        name = data.get("fixture", "disk")
        size = int(data.get("size", 2))
        if name == "disk":
            m = grid_complex(size, size)
        elif name == "annulus":
            m = annulus_complex(size)
        elif name == "torus":
            m = torus_complex(size, size)
        else:
            raise CommandError(f"unknown bulk fixture {name!r}")
    return build_ed_package(m, bf=bool(data.get("bf", False)))


def cmd_check_relation(cfg) -> dict:
    if cfg.fixture == "dirac":
        _, rel, _ = dirac_counterexample(cfg.order or 1)
    else:
        rel = relation_from_json(_load_input(cfg))
    c = rel.classify()
    return {
        "payload": {
            "isotropic": c.is_isotropic,
            "coisotropic": c.is_coisotropic,
            "lagrangian": c.is_lagrangian,
            "canonical": rel.is_canonical(),
            "body_dim": rel.body.dim,
        },
        "residuals": [],
    }


def cmd_compose(cfg) -> dict:
    data = _load_input(cfg)
    first = relation_from_json(data["first"])
    second = relation_from_json(data["second"])
    out = compose(first, second)
    return {
        "payload": {
            "relation": relation_to_json(out),
            "lagrangian": out.is_canonical(),
        },
        "residuals": [],
    }


def cmd_reduce(cfg) -> dict:
    data = _load_input(cfg)
    coeff = mat_from_json(data["alpha"])
    const = vec([frac(x) for x in data["const"]]) if "const" in data else None
    pkg = preboundary_reduce(OneForm(coeff.rows, coeff, const))
    return {"payload": package_to_json(pkg), "residuals": []}


def cmd_dtn(cfg) -> dict:
    t = _scalar_theory(_load_input(cfg))
    op = dtn(t)
    return {
        "payload": {"vertices": list(op.vertices),
                    "matrix": mat_to_json(op.matrix)},
        "residuals": [],
    }


def cmd_glue(cfg) -> dict:
    data = _load_input(cfg)
    whole = _scalar_theory(data["complex"])
    cut = list(data["cut"])
    lv, rv = set(data["left"]), set(data["right"])
    g = whole.graph
    e_left, e_right = [], []
    for e, faces in zip(g.cells[1], g.faces(1)):
        ends = {g.cells[0][i] for i, _ in faces}
        (e_left if ends <= lv else e_right).append(e)
    wb = set(whole.boundary_names())
    t_left = subgraph_theory(whole, sorted(lv),
                             sorted(set(cut) | (wb & (lv - set(cut)))),
                             edges=e_left)
    t_right = subgraph_theory(whole, sorted(rv),
                              sorted(set(cut) | (wb & (rv - set(cut)))),
                              edges=e_right)
    rep = glue_scalar(whole, cut, t_left, t_right)
    mismatch = 0 if rep.exact else 1
    return {
        "payload": {"exact": rep.exact, "lagrangian": rep.lagrangian,
                    "relation": relation_to_json(rep.composite)},
        "residuals": [residual("gluing_mismatch", mismatch)],
    }


def cmd_hj_action(cfg) -> dict:
    data = _load_input(cfg)
    t = _scalar_theory(data["complex"])
    values = {k: frac(v) for k, v in data["boundary_values"].items()}
    return {
        "payload": {"action": str(on_shell_action(t, values))},
        "residuals": [],
    }


def cmd_collar(cfg) -> dict:
    data = _load_input(cfg)
    cx = _complex_of(data["complex"])
    layout = tuple(FieldSpec(f["name"], int(f["cell_dim"]),
                             int(f.get("degree", 0)))
                   for f in data["fields"])
    t = QuadraticLocalTheory(cx, layout, mat_from_json(data["action"]))
    pkg = preboundary_reduce(boundary_one_form(t))
    return {"payload": package_to_json(pkg), "residuals": []}


def cmd_bfv_resolve(cfg) -> dict:
    cs = _constraint_set(_load_input(cfg))
    ext, s, q = bfv_resolve(cs)
    master = poisson_bracket(s, s, ext)
    return {
        "payload": {
            "dim": ext.base.dim,
            "labels": [[n, d] for n, d in ext.base.labels],
            "generator": [[list(m), str(c)] for m, c in s.terms],
            "field": mat_to_json(q.matrix),
        },
        "residuals": [residual("master_bracket", master),
                      residual("field_square", q.matrix @ q.matrix)],
    }


def cmd_bfv_cohomology(cfg) -> dict:
    data = _load_input(cfg)
    cs = _constraint_set(data)
    _, _, q = bfv_resolve(cs)
    alg = TruncatedPolynomialAlgebra(q.space, int(data.get("truncation", 2)))
    dims = {str(d): bfv_cohomology(q, alg, d) for d in (-1, 0, 1)}
    return {"payload": {"dims": dims}, "residuals": []}


def cmd_bv_check(cfg) -> dict:
    rep = check_bvbfv(_ed_input(_load_input(cfg)))
    return {
        "payload": {"passed": rep.passed},
        "residuals": [residual(k, v) for k, v in sorted(rep.residuals.items())],
    }


def cmd_moduli(cfg) -> dict:
    mod = moduli_of_vacua(_ed_input(_load_input(cfg)))
    return {
        "payload": {"dims": {str(d): v for d, v in sorted(mod.items())}},
        "residuals": [],
    }


def cmd_corner(cfg) -> dict:
    cd = corner_extend(_complex_of(_load_input(cfg)))
    return {
        "payload": {"labels": [[n, d] for n, d in cd.space.labels],
                    "basic": cd.package.basic},
        "residuals": [residual("corner_field_square", cd.q_corner)],
    }


def cmd_boundary_bfv(cfg) -> dict:
    data = _load_input(cfg)
    dims = boundary_bfv_reduction(_complex_of(data["complex"]),
                                  int(data["d"]))
    return {
        "payload": {"dims": {str(d): v for d, v in sorted(dims.items())}},
        "residuals": [],
    }


def _order_of(cfg, default: int) -> int:
    if cfg is None or getattr(cfg, "order", None) is None:
        return default
    return cfg.order


FIXTURES = {
    "interval": lambda cfg: path_complex(2).to_dict(),
    "path3": lambda cfg: path_complex(3).to_dict(),
    "path5": lambda cfg: path_complex(5).to_dict(),
    "grid": lambda cfg: grid_complex(_order_of(cfg, 2),
                                     _order_of(cfg, 2)).to_dict(),
    "disk": lambda cfg: grid_complex(2, 2).to_dict(),
    "annulus": lambda cfg: annulus_complex(_order_of(cfg, 3)).to_dict(),
    "circle": lambda cfg: circle_complex(_order_of(cfg, 5)).to_dict(),
    "torus": lambda cfg: torus_complex(_order_of(cfg, 3),
                                       _order_of(cfg, 3)).to_dict(),
    "oscillator": lambda cfg: {"kind": "oscillator", "mass": "1",
                               "stiffness": "1", "t0": "0", "t1": "1"},
    "free_particle": lambda cfg: {"kind": "free_particle", "mass": "1",
                                  "t0": "0", "t1": "1"},
    "dirac": lambda cfg: relation_to_json(
        dirac_counterexample(_order_of(cfg, 1))[1]),
}


def cmd_fixtures(cfg) -> dict:
    name = cfg.fixture
    if name not in FIXTURES:
        raise CommandError(f"unknown fixture {name!r}")
    return {"payload": {"fixture": name, "data": FIXTURES[name](cfg)},
            "residuals": []}


COMMANDS = {
    "check-relation": cmd_check_relation,
    "compose": cmd_compose,
    "reduce": cmd_reduce,
    "dtn": cmd_dtn,
    "glue": cmd_glue,
    "hj-action": cmd_hj_action,
    "collar": cmd_collar,
    "bfv-resolve": cmd_bfv_resolve,
    "bfv-cohomology": cmd_bfv_cohomology,
    "bv-check": cmd_bv_check,
    "moduli": cmd_moduli,
    "corner": cmd_corner,
    "boundary-bfv": cmd_boundary_bfv,
    "fixtures": cmd_fixtures,
}


def run(cfg) -> dict:
    """Execute one subcommand and return the completed report dict."""
    report = {"command": cfg.command, "seed": cfg.seed,
              "payload": None, "residuals": [], "status": "pass"}
    try:
        out = COMMANDS[cfg.command](cfg)
        report["payload"] = out["payload"]
        report["residuals"] = out["residuals"]
        if any(not r["zero"] for r in out["residuals"]):
            report["status"] = "fail"
    except CommandError as e:
        report["status"] = "error"
        report["payload"] = {"diagnostic": str(e)}
    except (ArithmeticError, KeyError, TypeError, ValueError) as e:
        report["status"] = "error"
        report["payload"] = {"diagnostic": f"{type(e).__name__}: {e}"}
    return report


def render(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="bvkit")
    ap.add_argument("command", choices=sorted(COMMANDS))
    ap.add_argument("--input", default=None)
    ap.add_argument("--output", default=None)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--fixture",
                    default=os.environ.get("BVKIT_FIXTURE"))
    ap.add_argument("--order", type=int, default=None)
    return ap


def main(argv: Optional[list[str]] = None) -> int:
    cfg = build_parser().parse_args(argv)
    report = run(cfg)
    text = render(report)
    if cfg.output:
        with open(cfg.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT[report["status"]]


if __name__ == "__main__":
    sys.exit(main())
