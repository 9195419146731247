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
import sys
from fractions import Fraction
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
    poisson_bracket,
)
from .numkit import Matrix, Subspace, frac, frac_reader
from .relations import LinearRelation, compose
from .symplect import OneForm, PresymplecticSpace, Reduction
from .theories import (
    ScalarFieldTheory,
    dirac_counterexample,
    dtn,
    glue_scalar,
    on_shell_action,
)

__all__ = ["main", "run"]

EXIT = {"pass": 0, "fail": 1, "error": 2}


def mat_to_json(m: Matrix) -> list[list[str]]:
    """Dense rows of strings, written from the nonzeros of `m.data`."""
    out = [["0"] * m.cols for _ in range(m.rows)]
    for line, row in zip(out, m.data):
        for j, x in row.items():
            line[j] = str(x)
    return out


class CommandError(ValueError):
    pass


def _json_row(row, what: str, number=frac) -> list:
    """One JSON list of numbers; a string or any other value is refused
    rather than read one character or key at a time."""
    if not isinstance(row, list):
        raise CommandError(f"{what} must be a list, got {row!r}")
    return [number(x) for x in row]


def mat_from_json(rows, number=frac, what: str = "matrix row") -> Matrix:
    """`number` reads each entry: pass one `frac_reader()` per document."""
    dense = [_json_row(row, what, number) for row in rows]
    width = len(dense[0]) if dense else 0
    if any(len(r) != width for r in dense):
        raise ValueError("column count mismatch")
    return Matrix(len(dense), width,
                  [{j: x for j, x in enumerate(r) if x} for r in dense])


def space_from_json(d: dict, number=frac) -> PresymplecticSpace:
    omega = mat_from_json(d["omega"], number)
    return PresymplecticSpace(omega.rows, omega)


def relation_from_json(d: dict, number=frac) -> LinearRelation:
    src = space_from_json(d["source"], number)
    tgt = space_from_json(d["target"], number)
    body = mat_from_json(d["body"], number, "body row")
    if body.rows and body.cols != src.dim + tgt.dim:
        raise ValueError("spanning vectors do not match ambient dimension")
    return LinearRelation(src, tgt,
                          Subspace.from_span(src.dim + tgt.dim, body.data))


def relation_to_json(rel: LinearRelation) -> dict:
    return {
        "source": {"omega": mat_to_json(rel.source.omega)},
        "target": {"omega": mat_to_json(rel.target.omega)},
        "body": mat_to_json(rel.body.matrix()),
    }


def package_to_json(red: Reduction, alpha: Optional[OneForm]) -> dict:
    return {
        "dim": red.space.dim,
        "preboundary_dim": red.projection.cols,
        "omega": mat_to_json(red.space.omega),
        "projection": mat_to_json(red.projection),
        "basic": alpha is not None,
        "alpha": None if alpha is None else mat_to_json(alpha.coeff),
    }


def residual(name: str, value) -> dict:
    if isinstance(value, Matrix):
        zero = value.is_zero()
        body = None if zero else mat_to_json(value)
    elif hasattr(value, "is_zero"):
        zero = value.is_zero()
        body = [[list(m), str(c)] for m, c in value.terms]
    else:
        zero = frac(value) == 0
        body = str(value)
    return {"name": name, "zero": zero, "value": None if zero else body}


class _Decimal(Fraction):
    """A JSON number with a fraction or exponent part: its exact value,
    with the text as written for its repr, so that a diagnostic names
    `0.5` as the input had it. `frac` reads it as a plain entry. An
    exponent beyond 9999 is refused: its power of ten is built in full,
    and at 1e10000000 that alone takes seconds."""

    __slots__ = ("_text",)

    def __new__(cls, text: str):
        exponent = text.lower().partition("e")[2]
        if len(exponent.lstrip("+-").lstrip("0")) > 4:
            raise CommandError(f"JSON number {text} has an exponent beyond "
                               f"9999")
        self = super().__new__(cls, text)
        self._text = text
        return self

    def __repr__(self) -> str:
        return self._text


# a type error about such a value still names its type `Fraction`
_Decimal.__name__ = _Decimal.__qualname__ = "Fraction"


def _load_input(cfg) -> dict:
    if not cfg.input:
        raise CommandError("this command requires --input")
    try:
        with open(cfg.input) as fh:
            data = json.load(fh, parse_float=_Decimal)
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


def _count(data: dict, key: str, default: Optional[int] = None) -> int:
    """A non-negative JSON integer field (not a bool, float or string)."""
    x = data.get(key, default) if default is not None else data[key]
    if type(x) is not int or x < 0:
        raise CommandError(f"{key} must be a non-negative integer, got {x!r}")
    return x


def _integer(data: dict, key: str, default: int = 0) -> int:
    """A JSON integer field of either sign (not a bool, float or string)."""
    x = data.get(key, default)
    if type(x) is not int:
        raise CommandError(f"{key} must be an integer, got {x!r}")
    return x


def _constraint_set(data: dict) -> ConstraintSet:
    n_pairs = _count(data, "n_pairs")
    number = frac_reader()
    rows = []
    for row in data["constraints"]:
        row = _json_row(row, "constraint", number)
        if len(row) != 2 * n_pairs:
            raise CommandError("constraint length must be 2 * n_pairs")
        rows.append(tuple(row))
    return ConstraintSet(_darboux(n_pairs), tuple(rows))


def _annulus(size: int) -> CellComplex:
    if size < 3 or size % 2 == 0:
        raise CommandError(
            f"annulus size must be odd and at least 3, got {size}")
    return annulus_complex(size)


def _ed_input(data: dict):
    if "complex" in data:
        m = _complex_of(data["complex"])
    else:
        name = data.get("fixture", "disk")
        size = _count(data, "size", 3 if name == "annulus" else 2)
        if name in ("disk", "torus") and size < 1:
            raise CommandError(f"{name} size must be at least 1, got {size}")
        if name == "disk":
            m = grid_complex(size, size)
        elif name == "annulus":
            m = _annulus(size)
        elif name == "torus":
            m = torus_complex(size, size)
        else:
            raise CommandError(f"unknown bulk fixture {name!r}")
    bf = data.get("bf", False)
    if type(bf) is not bool:
        raise CommandError(f"bf must be true or false, got {bf!r}")
    return build_ed_package(m, bf=bf)


def cmd_check_relation(cfg) -> dict:
    if cfg.fixture == "dirac":
        _, rel, _ = dirac_counterexample(_order_of(cfg, 1))
    else:
        rel = relation_from_json(_load_input(cfg), frac_reader())
    c = rel.classify()
    return {
        "payload": {
            "isotropic": c.is_isotropic,
            "coisotropic": c.is_coisotropic,
            "lagrangian": c.is_lagrangian,
            "canonical": c.is_lagrangian,
            "body_dim": rel.body.dim,
        },
        "residuals": [],
    }


def cmd_compose(cfg) -> dict:
    data = _load_input(cfg)
    number = frac_reader()
    first = relation_from_json(data["first"], number)
    second = relation_from_json(data["second"], number)
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
    number = frac_reader()
    coeff = mat_from_json(data["alpha"], number)
    const = _json_row(data.get("const", []), "const", number)
    # OneForm checks alpha's shape before the const length is checked, so
    # that a bad alpha is named first; it takes only the entries that fit
    alpha = OneForm(coeff.rows, coeff,
                    {j: x for j, x in enumerate(const[:coeff.rows]) if x})
    if "const" in data and len(const) != coeff.rows:
        raise ValueError("const length mismatch")
    return {"payload": package_to_json(*preboundary_reduce(alpha)),
            "residuals": []}


def cmd_dtn(cfg) -> dict:
    t = _scalar_theory(_load_input(cfg))
    op = dtn(t)
    return {
        "payload": {"vertices": list(op.vertices),
                    "matrix": mat_to_json(op.matrix)},
        "residuals": [],
    }


def _vertex_names(data: dict, key: str, names: set) -> list:
    """data[key] as a list of vertex names of the complex; the first entry
    that is not one is named, in input order."""
    xs = data[key]
    if not isinstance(xs, list):
        raise CommandError(f"{key} must be a list of vertex names, "
                           f"got {xs!r}")
    for x in xs:
        if isinstance(x, (list, dict)) or x not in names:
            raise CommandError(f"{key} entry {x!r} is not a vertex of the "
                               f"complex")
    return xs


def cmd_glue(cfg) -> dict:
    data = _load_input(cfg)
    whole = _scalar_theory(data["complex"])
    names = set(whole.vertex_names)
    cut, left, right = (_vertex_names(data, key, names)
                        for key in ("cut", "left", "right"))
    rep = glue_scalar(whole, cut, left, right)
    mismatch = 0 if rep.exact else 1
    return {
        "payload": {"exact": rep.exact, "lagrangian": rep.lagrangian,
                    "relation": relation_to_json(rep.composite)},
        "residuals": [residual("gluing_mismatch", mismatch)],
    }


def cmd_hj_action(cfg) -> dict:
    data = _load_input(cfg)
    t = _scalar_theory(data["complex"])
    given = data["boundary_values"]
    if not isinstance(given, dict):
        raise CommandError(
            f"boundary_values must be a JSON object, got {given!r}")
    values = {}
    for k, v in given.items():
        try:
            values[k] = frac(v)
        except (ArithmeticError, TypeError, ValueError):
            raise CommandError(f"boundary value of {k!r} must be a number, "
                               f"got {v!r}")
    for v in t.boundary_names():
        if v not in values:
            raise CommandError(f"boundary_values gives no value for "
                               f"boundary vertex {v!r}")
    return {
        "payload": {"action": str(on_shell_action(t, values))},
        "residuals": [],
    }


def cmd_collar(cfg) -> dict:
    data = _load_input(cfg)
    cx = _complex_of(data["complex"])
    layout = []
    for f in data["fields"]:
        cell_dim = _count(f, "cell_dim")
        if cell_dim > cx.dim:
            raise CommandError(f"cell_dim {cell_dim} exceeds the complex's "
                               f"dimension {cx.dim}")
        layout.append(FieldSpec(f["name"], cell_dim, _integer(f, "degree")))
    t = QuadraticLocalTheory(cx, tuple(layout),
                             mat_from_json(data["action"], frac_reader()))
    return {"payload": package_to_json(*preboundary_reduce(
        boundary_one_form(t))), "residuals": []}


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
    dims = bfv_cohomology(q, _count(data, "truncation", 2), (-1, 0, 1))
    return {"payload": {"dims": {str(d): n for d, n in dims.items()}},
            "residuals": []}


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
                    "basic": cd.alpha is not None},
        "residuals": [residual("corner_field_square", cd.q_corner)],
    }


def cmd_boundary_bfv(cfg) -> dict:
    data = _load_input(cfg)
    dims = boundary_bfv_reduction(_complex_of(data["complex"]),
                                  _count(data, "d"))
    return {
        "payload": {"dims": {str(d): v for d, v in sorted(dims.items())}},
        "residuals": [],
    }


def _order_of(cfg, default: int) -> int:
    if cfg is None or getattr(cfg, "order", None) is None:
        return default
    if cfg.order < 1:
        raise CommandError(f"order must be at least 1, got {cfg.order}")
    return cfg.order


FIXTURES = {
    "interval": lambda cfg: path_complex(2).to_dict(),
    "path3": lambda cfg: path_complex(3).to_dict(),
    "path5": lambda cfg: path_complex(5).to_dict(),
    "grid": lambda cfg: grid_complex(_order_of(cfg, 2),
                                     _order_of(cfg, 2)).to_dict(),
    "disk": lambda cfg: grid_complex(2, 2).to_dict(),
    "annulus": lambda cfg: _annulus(_order_of(cfg, 3)).to_dict(),
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
    ap.add_argument("--fixture", default=None)
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
