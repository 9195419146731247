import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from bvkit import cli
from bvkit.collar import prism
from bvkit.complexes import (
    annulus_complex,
    circle_complex,
    grid_complex,
    path_complex,
    torus_complex,
)
from bvkit.numkit import Matrix
from bvkit.theories import MechanicsFixture, mechanics_relation
from test_complexes import disjoint_union, with_boundary_vertices


def run_cli(tmp_path, args, payload=None):
    argv = list(args)
    if payload is not None:
        path = tmp_path / "input.json"
        path.write_text(json.dumps(payload))
        argv += ["--input", str(path)]
    out = tmp_path / "report.json"
    argv += ["--output", str(out)]
    code = cli.main(argv)
    text = out.read_text()
    return code, json.loads(text), text


def test_dtn_path_oracles(tmp_path):
    for n, scale in ((3, "1/2"), (5, "1/4")):
        fix = cli.FIXTURES[f"path{n}"](None)
        code, rep, _ = run_cli(tmp_path, ["dtn"], fix)
        assert code == 0
        neg = str(-Fraction(scale))
        assert rep["payload"]["matrix"] == [[scale, neg], [neg, scale]]


@pytest.mark.parametrize("command", ["dtn", "glue", "hj-action"])
def test_a_negative_edge_weight_exits_2_naming_the_edge(tmp_path, command):
    """The Dirichlet energy is a minimum only for non-negative weights.
    path5 with weights (2, -1, 1, 1) once gave the DtN map
    [[2/3, -2/3], [-2/3, 2/3]]; now each scalar command refuses it and
    names the edge. A zero weight is still read."""
    def payload(weights):
        cx = cli.FIXTURES["path5"](None)
        cx["weights"][1] = weights
        return {"dtn": cx,
                "glue": {"complex": cx, "cut": ["v2"],
                         "left": ["v0", "v1", "v2"],
                         "right": ["v2", "v3", "v4"]},
                "hj-action": {"complex": cx,
                              "boundary_values": {"v0": "1", "v4": "0"}},
                }[command]

    code, rep, _ = run_cli(tmp_path, [command], payload(["2", "-1", "1", "1"]))
    assert code == 2
    assert rep["payload"] == {
        "diagnostic": "NegativeWeight: edge 'e1' has negative weight -1"}
    code, rep, _ = run_cli(tmp_path, [command], payload(["2", "0", "1", "1"]))
    assert code == 0
    if command == "dtn":
        assert rep["payload"]["matrix"] == [["0", "0"], ["0", "0"]]


def _one_face_sign_flipped(cx):
    """cx's JSON with the sign of the first face of square f0_0 flipped,
    so that the boundary of that square's boundary is not zero."""
    data = cx.to_dict()
    entry = next(e for e in data["boundary"] if e["cell"] == "f0_0")
    face, sign = entry["faces"][0]
    entry["faces"][0] = [face, str(-Fraction(sign))]
    return data


@pytest.mark.parametrize("command, data", [
    ("bv-check", {"complex": _one_face_sign_flipped(grid_complex(2, 2))}),
    ("moduli", {"complex": _one_face_sign_flipped(grid_complex(2, 2))}),
    ("boundary-bfv", {"complex": _one_face_sign_flipped(torus_complex(2, 2)),
                      "d": 3}),
])
def test_a_complex_whose_boundary_has_a_boundary_exits_2(tmp_path, command,
                                                         data):
    """Such a complex once got as far as `field must square to zero` in
    bv-check and moduli, and a report that passed in boundary-bfv; now
    reading it fails, naming the square."""
    code, rep, _ = run_cli(tmp_path, [command], data)
    assert code == 2
    assert rep["payload"] == {"diagnostic": (
        "malformed complex JSON: ValueError(\"the boundary of the boundary "
        "of cell 'f0_0' is not zero\")")}


def test_glue_path(tmp_path):
    fix = cli.FIXTURES["path5"](None)
    payload = {"complex": fix, "cut": ["v2"],
               "left": ["v0", "v1", "v2"], "right": ["v2", "v3", "v4"]}
    code, rep, _ = run_cli(tmp_path, ["glue"], payload)
    assert code == 0
    assert rep["payload"]["exact"] and rep["payload"]["lagrangian"]


def test_hj_action_path3(tmp_path):
    payload = {"complex": cli.FIXTURES["path3"](None),
               "boundary_values": {"v0": "1", "v2": "0"}}
    code, rep, _ = run_cli(tmp_path, ["hj-action"], payload)
    assert code == 0
    assert rep["payload"]["action"] == "1/4"


def test_check_relation_dirac_fixture(tmp_path):
    code, rep, _ = run_cli(
        tmp_path, ["check-relation", "--fixture", "dirac", "--order", "2"])
    assert code == 0
    assert rep["payload"]["isotropic"] is True
    assert rep["payload"]["lagrangian"] is False


def test_compose_free_particle(tmp_path):
    rel = mechanics_relation(MechanicsFixture("free_particle"))
    one = cli.relation_to_json(rel)
    code, rep, _ = run_cli(tmp_path, ["compose"],
                           {"first": one, "second": one})
    assert code == 0
    assert rep["payload"]["lagrangian"] is True
    # composite of two unit time steps is the graph of [[1, 2], [0, 1]]
    two = mechanics_relation(MechanicsFixture("free_particle", t1=2))
    got = cli.relation_from_json(rep["payload"]["relation"])
    assert got.body == two.body


def test_reduce_one_form(tmp_path):
    payload = {"alpha": [["0", "0", "0"],
                         ["1", "0", "0"],
                         ["0", "0", "0"]]}
    code, rep, _ = run_cli(tmp_path, ["reduce"], payload)
    assert code == 0
    assert rep["payload"]["dim"] == 2
    assert rep["payload"]["preboundary_dim"] == 3
    assert rep["payload"]["basic"] is True


def test_collar_scalar_path(tmp_path):
    fix = cli.FIXTURES["path3"](None)
    lap = [["1", "-1", "0"], ["-1", "2", "-1"], ["0", "-1", "1"]]
    payload = {"complex": fix,
               "fields": [{"name": "phi", "cell_dim": 0}],
               "action": lap}
    code, rep, _ = run_cli(tmp_path, ["collar"], payload)
    assert code == 0
    assert rep["payload"]["preboundary_dim"] == 3
    assert rep["payload"]["dim"] % 2 == 0


def test_bv_check_and_determinism(tmp_path):
    payload = {"fixture": "disk", "size": 1}
    code, rep, text = run_cli(tmp_path, ["bv-check", "--seed", "7"], payload)
    assert code == 0 and rep["status"] == "pass"
    assert rep["seed"] == 7
    assert all(r["zero"] for r in rep["residuals"])
    _, _, text2 = run_cli(tmp_path, ["bv-check", "--seed", "7"], payload)
    assert text == text2


def test_moduli_annulus(tmp_path):
    code, rep, _ = run_cli(tmp_path, ["moduli"],
                           {"fixture": "annulus", "size": 3})
    assert code == 0
    dims = {k: v for k, v in rep["payload"]["dims"].items() if v}
    assert dims == {"0": 1, "-1": 1}


@pytest.mark.parametrize("command", ["moduli", "bv-check"])
def test_annulus_fixture_size(tmp_path, command):
    """The annulus fixture defaults to size 3, as `fixtures` does, and an
    even size or one below 3 is malformed input naming the size."""
    code, rep, text = run_cli(tmp_path, [command], {"fixture": "annulus"})
    assert code == 0 and rep["status"] == "pass"
    assert run_cli(tmp_path, [command],
                   {"fixture": "annulus", "size": 3})[2] == text
    for size in (0, 1, 2, 4):
        code, rep, _ = run_cli(tmp_path, [command],
                               {"fixture": "annulus", "size": size})
        assert code == 2 and rep["status"] == "error"
        assert rep["payload"]["diagnostic"] == (
            f"annulus size must be odd and at least 3, got {size}")


def test_annulus_fixture_order(tmp_path):
    """`fixtures --fixture annulus` checks --order as the bulk fixture
    checks its size, and an accepted order still gives annulus_complex."""
    for n in (1, 2, 4):
        code, rep, _ = run_cli(tmp_path, ["fixtures", "--fixture", "annulus",
                                          "--order", str(n)])
        assert code == 2 and rep["status"] == "error"
        assert rep["payload"]["diagnostic"] == (
            f"annulus size must be odd and at least 3, got {n}")
    for n in (3, 5):
        code, rep, _ = run_cli(tmp_path, ["fixtures", "--fixture", "annulus",
                                          "--order", str(n)])
        assert code == 0
        assert rep["payload"]["data"] == annulus_complex(n).to_dict()


def test_bfv_commands(tmp_path):
    payload = {"n_pairs": 2, "constraints": [["0", "0", "1", "0"]],
               "truncation": 2}
    code, rep, _ = run_cli(tmp_path, ["bfv-resolve"], payload)
    assert code == 0
    assert all(r["zero"] for r in rep["residuals"])
    code, rep, _ = run_cli(tmp_path, ["bfv-cohomology"], payload)
    assert code == 0
    assert rep["payload"]["dims"] == {"-1": 0, "0": 6, "1": 0}


def test_boundary_bfv_circle(tmp_path):
    """Circles at d = 2 and tori at d = 3 through the report path: one
    class in degrees +-1 and 2(n1 - n0 + b0) in degree 0, which is 2 on a
    circle and 2 n^2 + 2 on torus(n, n)."""
    cases = [(cli.FIXTURES["circle"](None), 2, 2)]
    cases += [(circle_complex(n).to_dict(), 2, 2) for n in (3, 40, 400)]
    cases += [(torus_complex(n, n).to_dict(), 3, 2 * n * n + 2)
              for n in (2, 5, 20)]
    for cx, d, middle in cases:
        code, rep, _ = run_cli(tmp_path, ["boundary-bfv"],
                               {"complex": cx, "d": d})
        assert code == 0
        assert rep["payload"]["dims"] == {"-1": 1, "0": middle, "1": 1}


def test_corner_path(tmp_path):
    fix = cli.FIXTURES["path3"](None)
    code, rep, _ = run_cli(tmp_path, ["corner"], fix)
    assert code == 0
    assert sorted(d for _, d in rep["payload"]["labels"]) == [0, 0, 1, 1]


def test_corner_of_a_tall_cylinder(tmp_path):
    """prism(circle(7), 3): one (ghost, field) pair per corner vertex."""
    code, rep, _ = run_cli(tmp_path, ["corner"],
                           prism(circle_complex(7), 3).to_dict())
    assert code == 0
    degs = [d for _, d in rep["payload"]["labels"]]
    assert len(degs) == 14 and degs.count(1) == 7 and degs.count(0) == 7
    assert rep["payload"]["basic"] is True
    assert rep["residuals"] == [{"name": "corner_field_square",
                                 "value": None, "zero": True}]


@pytest.mark.parametrize("cx", [
    circle_complex(4), torus_complex(2, 2),
    disjoint_union(circle_complex(3, "a"), circle_complex(3, "b"))],
    ids=["circle4", "torus22", "two-circles"])
def test_corner_of_a_closed_complex_is_empty(tmp_path, cx):
    code, rep, _ = run_cli(tmp_path, ["corner"], cx.to_dict())
    assert code == 0
    assert rep["payload"] == {"basic": True, "labels": []}
    assert rep["residuals"] == [{"name": "corner_field_square",
                                 "value": None, "zero": True}]


def test_fixture_bytes_stable(tmp_path):
    _, _, a = run_cli(tmp_path, ["fixtures", "--fixture", "annulus"])
    _, _, b = run_cli(tmp_path, ["fixtures", "--fixture", "annulus"])
    assert a == b


def test_malformed_json_is_error_not_crash(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    out = tmp_path / "r.json"
    code = cli.main(["dtn", "--input", str(path), "--output", str(out)])
    assert code == 2
    rep = json.loads(out.read_text())
    assert rep["status"] == "error"
    assert "diagnostic" in rep["payload"]


def test_missing_input_is_error(tmp_path):
    code, rep, _ = run_cli(tmp_path, ["dtn"])
    assert code == 2 and rep["status"] == "error"


def _path3_weight(w):
    fix = cli.FIXTURES["path3"](None)
    fix["weights"][1][0] = w
    return fix


def _path_edge_weights(n, count):
    fix = cli.FIXTURES[f"path{n}"](None)
    fix["weights"][1] = ["1"] * count
    return fix


def _circle_d(d):
    return {"complex": cli.FIXTURES["circle"](None), "d": d}


def _path3_values(values):
    return {"complex": cli.FIXTURES["path3"](None), "boundary_values": values}


def _plane_relation(omega=None, body=None):
    space = {"omega": omega or [["0", "1"], ["-1", "0"]]}
    return {"source": space, "target": space,
            "body": body or [["1", "0", "1", "0"]]}


def _collar_degree(degree):
    return {"complex": cli.FIXTURES["path3"](None),
            "fields": [{"name": "phi", "cell_dim": 0, "degree": degree}],
            "action": [["1", "-1", "0"], ["-1", "2", "-1"],
                       ["0", "-1", "1"]]}


def _bfv_input(**changes):
    data = {"n_pairs": 1, "truncation": 2, "constraints": [[0, 1]]}
    return dict(data, **changes)


def _path3_face_sign(sign):
    fix = cli.FIXTURES["path3"](None)
    fix["boundary"][0]["faces"][0][1] = sign
    return fix


@pytest.mark.parametrize("args, payload", [
    (["dtn"], _path3_weight("1/0")),
    (["hj-action"], _path3_values({"v0": "1/0", "v2": "0"})),
    (["bfv-resolve"], {"n_pairs": 1, "constraints": [["1/0", "0"]]}),
    (["bv-check"], [1, 2]),
    (["dtn"], {"dims": 2, "cells": [["a", "b"], ["e"]], "boundary": []}),
    (["bv-check"], {"fixture": "disk", "size": 0}),
    (["bv-check"], {"fixture": "disk", "size": -1}),
    (["moduli"], {"fixture": "torus", "size": 0}),
    (["bfv-cohomology"], _bfv_input(truncation=2.7)),
    (["bfv-cohomology"], _bfv_input(truncation=True)),
    (["bfv-cohomology"], _bfv_input(truncation=-3)),
    (["bfv-resolve"], _bfv_input(n_pairs=1.5)),
    (["bfv-resolve"], _bfv_input(n_pairs="1")),
    (["bfv-cohomology"], _bfv_input(constraints=["01"])),
    (["moduli"], {"fixture": "disk", "size": 1, "bf": "false"}),
    (["bv-check"], {"fixture": "disk", "size": 1, "bf": 0}),
    (["bv-check"], {"fixture": "disk", "size": 2.7}),
    (["moduli"], {"fixture": "disk", "size": True}),
    (["boundary-bfv"], _circle_d(7)),
    (["boundary-bfv"], _circle_d(2.9)),
    (["boundary-bfv"], _circle_d(True)),
    (["hj-action"], _path3_values([])),
    (["hj-action"], _path3_values("ab")),
    (["hj-action"], _path3_values(None)),
    (["fixtures", "--fixture", "grid", "--order", "0"], None),
    (["fixtures", "--fixture", "circle", "--order", "0"], None),
    (["fixtures", "--fixture", "torus", "--order", "-1"], None),
    (["check-relation", "--fixture", "dirac", "--order", "0"], None),
    (["dtn"], _path_edge_weights(3, 1)),
    (["dtn"], _path_edge_weights(3, 3)),
    (["glue"], {"complex": _path_edge_weights(5, 3), "cut": ["v2"],
                "left": ["v0", "v1", "v2"], "right": ["v2", "v3", "v4"]}),
    (["check-relation"], _plane_relation(body=["1000"])),
    (["check-relation"], _plane_relation(omega=["00", "00"])),
    (["compose"], {"first": _plane_relation(body=["1010"]),
                   "second": _plane_relation()}),
    (["reduce"], {"alpha": ["01", "00"]}),
    (["reduce"], {"alpha": [["0", "1"], ["0", "0"]], "const": "00"}),
    (["collar"], _collar_degree(2.7)),
    (["collar"], _collar_degree("2")),
    (["collar"], _collar_degree(True)),
    (["check-relation"], _plane_relation(body=[[True, "0", True, "0"]])),
    (["compose"], {"first": _plane_relation(omega=[[False, True],
                                                   ["-1", False]]),
                   "second": _plane_relation()}),
    (["bfv-resolve"], _bfv_input(constraints=[[False, True]])),
    (["reduce"], {"alpha": [["0", "0", "0"], ["1", "0", "0"],
                            ["0", "0", "0"]], "const": ["0", True, "0"]}),
    (["hj-action"], _path3_values({"v0": True, "v2": False})),
    (["dtn"], _path3_weight(True)),
    (["dtn"], _path3_face_sign(True)),
], ids=["dtn-zero-weight-denominator", "hj-action-zero-denominator",
        "bfv-resolve-zero-denominator", "bv-check-top-level-array",
        "dtn-dims-beyond-cells", "bv-check-empty-disk",
        "bv-check-negative-disk", "moduli-empty-torus",
        "bfv-fractional-truncation", "bfv-boolean-truncation",
        "bfv-negative-truncation", "bfv-fractional-pairs",
        "bfv-string-pairs", "bfv-string-constraint-row",
        "moduli-string-bf", "bv-check-integer-bf", "bv-check-fractional-size",
        "moduli-boolean-size", "boundary-bfv-wrong-d",
        "boundary-bfv-fractional-d", "boundary-bfv-boolean-d",
        "hj-action-array-values", "hj-action-string-values",
        "hj-action-null-values", "fixtures-grid-order-zero",
        "fixtures-circle-order-zero", "fixtures-torus-negative-order",
        "check-relation-dirac-order-zero", "dtn-short-edge-weights",
        "dtn-long-edge-weights", "glue-short-edge-weights",
        "check-relation-string-body-row", "check-relation-string-omega-row",
        "compose-string-body-row", "reduce-string-alpha-row",
        "reduce-string-const", "collar-fractional-degree",
        "collar-string-degree", "collar-boolean-degree",
        "check-relation-boolean-body", "compose-boolean-omega",
        "bfv-resolve-boolean-constraint", "reduce-boolean-const",
        "hj-action-boolean-value", "dtn-boolean-weight",
        "dtn-boolean-face-sign"])
def test_bad_numbers_and_non_object_input_are_errors(tmp_path, args, payload):
    code, rep, _ = run_cli(tmp_path, args, payload)
    assert code == 2 and rep["status"] == "error"
    assert rep["payload"]["diagnostic"]


@pytest.mark.parametrize("relation, diagnostic", [
    (_plane_relation(body=[["1", "0", "1", "0"], ["0", "1", "0"]]),
     "ValueError: column count mismatch"),
    (_plane_relation(body=[["1", "0", "1"], ["0", "1", "0"]]),
     "ValueError: spanning vectors do not match ambient dimension"),
    (_plane_relation(body=[["1", "0", "1"], ["0", "1"]]),
     "ValueError: column count mismatch"),
    (_plane_relation(body=[["1", "0", "1", "0"], ["0", "1"], ["x"]]),
     "ValueError: Invalid literal for Fraction: 'x'"),
    (_plane_relation(omega=[["0", "1"], ["-1"]]),
     "ValueError: column count mismatch"),
    (_plane_relation(omega=[["0", "1"], ["-1"]], body=[["1"], ["1", "0"]]),
     "ValueError: column count mismatch"),
], ids=["ragged-body", "narrow-body", "ragged-narrow-body",
        "ragged-body-bad-number", "ragged-omega", "ragged-omega-and-body"])
def test_row_shape_diagnostics(tmp_path, relation, diagnostic):
    """The row checks run in a fixed order: every number of the omegas
    and then of the body is read before the rows' lengths are compared,
    and rows of unequal length are refused before rows of the wrong
    one."""
    for command, payload in (("check-relation", relation),
                             ("compose", {"first": relation,
                                          "second": relation})):
        code, rep, _ = run_cli(tmp_path, [command], payload)
        assert code == 2
        assert rep["payload"]["diagnostic"] == diagnostic


@pytest.mark.parametrize("const", [["1", "0", "3"], ["1"]])
def test_reduce_names_a_const_of_the_wrong_length(tmp_path, const):
    """A const longer or shorter than alpha is named by its length, also
    when its extra entries lie outside alpha's space."""
    payload = {"alpha": [["0", "1"], ["0", "0"]], "const": const}
    code, rep, _ = run_cli(tmp_path, ["reduce"], payload)
    assert code == 2
    assert rep["payload"]["diagnostic"] == "ValueError: const length mismatch"


def test_empty_body_is_the_zero_relation(tmp_path):
    payload = dict(_plane_relation(), body=[])
    code, rep, _ = run_cli(tmp_path, ["check-relation"], payload)
    assert code == 0
    assert rep["payload"]["body_dim"] == 0
    assert rep["payload"]["isotropic"] and not rep["payload"]["lagrangian"]


def test_collar_reads_a_negative_degree(tmp_path):
    # antifields carry negative degrees
    code, rep, _ = run_cli(tmp_path, ["collar"], _collar_degree(-1))
    assert code == 0 and rep["status"] == "pass"


def test_glue_names_the_missing_weights(tmp_path):
    fix = cli.FIXTURES["path5"](None)
    del fix["weights"]
    payload = {"complex": fix, "cut": ["v2"],
               "left": ["v0", "v1", "v2"], "right": ["v2", "v3", "v4"]}
    for command, data in (("dtn", fix), ("glue", payload)):
        code, rep, _ = run_cli(tmp_path, [command], data)
        assert code == 2
        assert rep["payload"]["diagnostic"].startswith("NotCubical: ")


def test_unknown_fixture_is_error(tmp_path):
    code, rep, _ = run_cli(tmp_path, ["fixtures", "--fixture", "nope"])
    assert code == 2 and rep["status"] == "error"


def test_failing_residual_gives_exit_one(tmp_path, monkeypatch):
    def fake(cfg):
        return {"payload": {}, "residuals": [cli.residual("forced", 1)]}

    monkeypatch.setitem(cli.COMMANDS, "dtn", fake)
    code, rep, _ = run_cli(tmp_path, ["dtn"])
    assert code == 1 and rep["status"] == "fail"


def test_readme_flag_list_matches_parser():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    listed = readme.split("Flags:", 1)[1].split("\n\n", 1)[0]
    options = [s for a in cli.build_parser()._actions
               for s in a.option_strings if s not in ("-h", "--help")]
    assert re.findall(r"`(--[a-z-]+)`", listed) == options


def _valid_inputs():
    """One valid --input payload per command that reads one."""
    path3 = cli.FIXTURES["path3"](None)
    plane = {"omega": [["0", "1"], ["-1", "0"]]}
    particle = cli.relation_to_json(
        mechanics_relation(MechanicsFixture("free_particle")))
    return {
        "check-relation": {"source": plane, "target": plane,
                           "body": [["1", "0", "1", "0"],
                                    ["0", "1", "0", "1"]]},
        "compose": {"first": particle, "second": particle},
        "reduce": {"alpha": [["0", "0", "0"], ["1", "0", "0"],
                             ["0", "0", "0"]], "const": ["0", "1", "0"]},
        "dtn": path3,
        "glue": {"complex": cli.FIXTURES["path5"](None), "cut": ["v2"],
                 "left": ["v0", "v1", "v2"], "right": ["v2", "v3", "v4"]},
        "hj-action": {"complex": path3,
                      "boundary_values": {"v0": "1", "v2": "0"}},
        "collar": {"complex": path3,
                   "fields": [{"name": "phi", "cell_dim": 0, "degree": 0}],
                   "action": [["1", "-1", "0"], ["-1", "2", "-1"],
                              ["0", "-1", "1"]]},
        "bfv-resolve": {"n_pairs": 2, "constraints": [["0", "0", "1", "0"]]},
        "bfv-cohomology": {"n_pairs": 1, "constraints": [["0", "1"]],
                           "truncation": 2},
        "bv-check": {"fixture": "disk", "size": 1},
        "moduli": {"complex": cli.FIXTURES["disk"](None), "bf": True},
        "corner": path3,
        "boundary-bfv": {"complex": cli.FIXTURES["circle"](None), "d": 2},
    }


def _rational_inputs():
    """One --input payload per command that reads one, with rational
    entries: weights, relation and form entries, constraints, boundary
    values, and ED on grid(3, 3) with face weights such as 2/3."""
    path3 = path_complex(3, weights=["2/3", "5/2"]).to_dict()
    path5 = path_complex(5, weights=["2/3", "1/2", "3", "7/4"]).to_dict()
    ed = grid_complex(3, 3, weights={("f", i, j): Fraction(2 + i, 3 + j)
                                     for i in range(3)
                                     for j in range(3)}).to_dict()
    plane = {"omega": [["0", "1/2"], ["-1/2", "0"]]}
    particle = cli.relation_to_json(mechanics_relation(
        MechanicsFixture("free_particle", mass=Fraction(3))))
    circle = circle_complex(4).to_dict()
    for entry in circle["boundary"]:
        entry["faces"] = [[v, x + "/2"] for v, x in entry["faces"]]
    return {
        "check-relation": {"source": plane, "target": plane,
                           "body": [["1", "0", "1/2", "0"],
                                    ["0", "1", "0", "2"]]},
        "compose": {"first": particle, "second": particle},
        "reduce": {"alpha": [["0", "0", "0"], ["1/2", "0", "0"],
                             ["0", "2/3", "0"]], "const": ["0", "1/3", "0"]},
        "dtn": path3,
        "glue": {"complex": path5, "cut": ["v2"],
                 "left": ["v0", "v1", "v2"], "right": ["v2", "v3", "v4"]},
        "hj-action": {"complex": path5,
                      "boundary_values": {"v0": "1/3", "v4": "-2"}},
        "collar": {"complex": path3,
                   "fields": [{"name": "phi", "cell_dim": 0, "degree": 0}],
                   "action": [["2/3", "-2/3", "0"], ["-2/3", "19/6", "-5/2"],
                              ["0", "-5/2", "5/2"]]},
        "bfv-resolve": {"n_pairs": 2,
                        "constraints": [["0", "1/2", "1/3", "0"]]},
        "bfv-cohomology": {"n_pairs": 2,
                           "constraints": [["0", "0", "1/2", "2/3"]],
                           "truncation": 2},
        "bv-check": {"complex": ed},
        "moduli": {"complex": ed},
        "corner": path3,
        "boundary-bfv": {"complex": circle, "d": 2},
    }


def _integral_inputs():
    """`_valid_inputs` with ED on grid(3, 3) and an hj-action whose
    quadratic form is an integer, so that its halving is the int / int
    case."""
    ed = {"complex": grid_complex(3, 3).to_dict()}
    return {**_valid_inputs(), "bv-check": ed, "moduli": ed,
            "hj-action": {"complex": cli.FIXTURES["interval"](None),
                          "boundary_values": {"v0": "3", "v1": "-2"}}}


# report fields that hold names, not numbers
NAME_FIELDS = {"command", "status", "diagnostic", "labels", "vertices",
               "name"}


def _number_leaves(x, key=None):
    """The string and float leaves of a report outside its name fields."""
    if key in NAME_FIELDS:
        return
    if isinstance(x, dict):
        for k, v in x.items():
            yield from _number_leaves(v, k)
    elif isinstance(x, list):
        for v in x:
            yield from _number_leaves(v, key)
    elif isinstance(x, (str, float)):
        yield x


@pytest.mark.parametrize("inputs", [_integral_inputs, _rational_inputs])
def test_no_float_reaches_a_report(tmp_path, inputs):
    """Every --input command on integral and on rational inputs passes,
    and every number its report writes is an exact "p" or "p/q" string:
    entries are ints or Fractions, and an int / int float would show as
    "0.5" or "1e-05"."""
    cases = inputs()
    assert set(cases) == set(cli.COMMANDS) - {"fixtures"}
    numbers = []
    for command, data in cases.items():
        code, rep, _ = run_cli(tmp_path, [command], data)
        assert code == 0, (command, rep["payload"])
        for x in _number_leaves(rep):
            assert type(x) is str and re.fullmatch(r"-?\d+(/\d+)?", x), (
                command, x)
            numbers.append(Fraction(x))
    assert len(numbers) > 50
    assert any(x.denominator > 1 for x in numbers)


@pytest.mark.parametrize("nx, ny, action", [(3, 2, "121/18"),
                                            (5, 5, "121/15"),
                                            (10, 4, "121/36")])
def test_hj_action_grid_closed_form(tmp_path, nx, ny, action):
    """grid(nx, ny), unit weights, the left column at a = 3 and the right
    column at b = -2/3 as its only boundary: the harmonic field is linear
    along each row, so the on-shell action is (ny + 1)(a - b)^2 / (2 nx)."""
    left = [f"v0_{j}" for j in range(ny + 1)]
    right = [f"v{nx}_{j}" for j in range(ny + 1)]
    cx = with_boundary_vertices(grid_complex(nx, ny), left + right)
    values = {**dict.fromkeys(left, "3"), **dict.fromkeys(right, "-2/3")}
    code, rep, _ = run_cli(tmp_path, ["hj-action"],
                           {"complex": cx.graph.to_dict(),
                            "boundary_values": values})
    assert code == 0
    a, b = Fraction(3), Fraction(-2, 3)
    assert Fraction(rep["payload"]["action"]) == (
        (ny + 1) * (a - b) ** 2 / (2 * nx))
    assert rep["payload"]["action"] == action


@pytest.mark.parametrize("weight, value", [("0.1", "0.1"), ("1e-1", "0.1"),
                                           ("0.1", "1.0E-1")])
def test_json_decimals_are_read_as_written(tmp_path, weight, value):
    """One edge of weight 1/10 with its ends at 1/10 and 0: the action is
    (1/2)(1/10)(1/10)^2 = 1/2000, not the value of the binary doubles."""
    path = tmp_path / "input.json"
    path.write_text(
        '{"complex": {"dims": 1, "cells": [["v0", "v1"], ["e0"]],'
        ' "boundary": [{"cell": "e0", "faces": [["v0", -1], ["v1", 1]]}],'
        ' "boundary_flags": ["v0", "v1"], "cubical": true,'
        f' "weights": [[1, 1], [{weight}]]}},'
        f' "boundary_values": {{"v0": {value}, "v1": 0}}}}')
    out = tmp_path / "report.json"
    code = cli.main(["hj-action", "--input", str(path), "--output", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["payload"]["action"] == "1/2000"


@pytest.mark.parametrize("command, text, diagnostic", [
    ("bfv-resolve", '{"n_pairs": 0.5, "constraints": []}',
     "n_pairs must be a non-negative integer, got 0.5"),
    ("bfv-resolve", '{"n_pairs": 1E-1, "constraints": []}',
     "n_pairs must be a non-negative integer, got 1E-1"),
    ("bv-check", '{"fixture": 0.5}', "unknown bulk fixture 0.5"),
    ("moduli", '{"fixture": "disk", "size": 2.0}',
     "size must be a non-negative integer, got 2.0"),
    ("glue", '{"complex": PATH5, "cut": [0.5], "left": [], "right": []}',
     "cut entry 0.5 is not a vertex of the complex"),
    ("bfv-resolve", '{"n_pairs": 1e10000000, "constraints": []}',
     "JSON number 1e10000000 has an exponent beyond 9999"),
    ("hj-action", '{"complex": PATH5, "boundary_values": {"v0": -2.5E+010000}}',
     "JSON number -2.5E+010000 has an exponent beyond 9999"),
])
def test_json_decimals_in_diagnostics_are_named_as_written(
        tmp_path, command, text, diagnostic):
    """A JSON decimal where a count, a name or a vertex belongs is named
    in the diagnostic by its text, not as the Fraction it reads as; one
    whose exponent would take seconds to expand is refused unread."""
    path = tmp_path / "input.json"
    path.write_text(text.replace(
        "PATH5", json.dumps(cli.FIXTURES["path5"](None))))
    out = tmp_path / "report.json"
    code = cli.main([command, "--input", str(path), "--output", str(out)])
    assert code == 2
    assert json.loads(out.read_text())["payload"]["diagnostic"] == diagnostic


@pytest.mark.parametrize("values, diagnostic", [
    ({"v0": "1"}, "boundary_values gives no value for boundary vertex 'v4'"),
    ({"v0": "1", "v4": [1]},
     "boundary value of 'v4' must be a number, got [1]"),
    ({"v0": "1", "v4": None},
     "boundary value of 'v4' must be a number, got None"),
    ({"v0": "1", "v4": "x"},
     "boundary value of 'v4' must be a number, got 'x'"),
    ({"v0": True, "v4": "1"},
     "boundary value of 'v0' must be a number, got True"),
    ({"v0": "1/0", "v4": "1"},
     "boundary value of 'v0' must be a number, got '1/0'"),
    ({"v0": "1", "v2": "x", "v4": "1"},
     "boundary value of 'v2' must be a number, got 'x'"),
])
def test_hj_action_names_bad_boundary_values(tmp_path, values, diagnostic):
    """On path5, whose boundary is v0 and v4: a missing value or one that
    is not a number is malformed input naming the vertex and the value."""
    code, rep, _ = run_cli(tmp_path, ["hj-action"],
                           {"complex": cli.FIXTURES["path5"](None),
                            "boundary_values": values})
    assert code == 2 and rep["status"] == "error"
    assert rep["payload"]["diagnostic"] == diagnostic


def test_hj_action_reads_only_the_boundary_values_it_needs(tmp_path):
    """A value given at an interior vertex is read but not used."""
    code, rep, _ = run_cli(tmp_path, ["hj-action"],
                           {"complex": cli.FIXTURES["path5"](None),
                            "boundary_values": {"v0": "1", "v2": "7",
                                                "v4": "0"}})
    assert code == 0 and rep["payload"]["action"] == "1/8"


SMALL_VALUES =[0, 1, 2, -1, 3, 0.5, "1", "-1", "1/2", "1/0", "x", "",
                "v0", True, False, None, [], {}, [0], ["v0"]]


def _mutated_input(rng, data):
    """`data` with one to three of its values replaced by, preceded by or
    swapped for a small JSON value, or deleted. Each place is found by a
    walk from the top that stops at each level with even odds, so the
    top-level fields are hit most often."""
    data = json.loads(json.dumps(data))
    for _ in range(rng.randint(1, 3)):
        parent, key = None, None
        x = data
        while isinstance(x, (dict, list)) and x and (
                key is None or rng.random() < 0.5):
            parent, key = x, rng.choice(list(x) if isinstance(x, dict)
                                        else range(len(x)))
            x = x[key]
        if parent is None:
            break
        small = json.loads(json.dumps(rng.choice(SMALL_VALUES)))
        r = rng.random()
        if r < 0.15:
            del parent[key]
        elif r < 0.25 and isinstance(parent, list):
            parent.insert(key, small)
        else:
            parent[key] = small
    return data


def _run_input(tmp_path, command, data):
    """`cli.run` on `data` as the --input file; the report must render
    to JSON that parses back to it, with a status that has an exit code."""
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    cfg = cli.build_parser().parse_args([command, "--input", str(path)])
    report = cli.run(cfg)
    assert json.loads(cli.render(report)) == report
    assert report["status"] in cli.EXIT
    if report["status"] == "error":
        assert report["payload"]["diagnostic"]
    return report


def _fuzz_cases(count):
    """The first `count` seeded (command, input) cases of the fuzz test."""
    import random

    rng = random.Random(101)
    valid = _valid_inputs()
    for _ in range(count):
        command = rng.choice(sorted(valid))
        yield command, _mutated_input(rng, valid[command])


def test_mutated_inputs_give_a_report_for_every_command(tmp_path):
    statuses = {s: 0 for s in cli.EXIT}
    for command, data in _valid_inputs().items():
        assert _run_input(tmp_path, command, data)["status"] == "pass"
    for command, data in _fuzz_cases(1000):
        statuses[_run_input(tmp_path, command, data)["status"]] += 1
    assert statuses["pass"] >= 50 and statuses["error"] >= 500, statuses


def _path5_with_an_integer_name():
    """The glue input on path5 with vertex v1 renamed to the integer 1."""
    data = _valid_inputs()["glue"]
    cx = data["complex"]
    cx["cells"][0] = [1 if v == "v1" else v for v in cx["cells"][0]]
    for entry in cx["boundary"]:
        entry["faces"] = [[1 if v == "v1" else v, x]
                          for v, x in entry["faces"]]
    return {**data, "left": ["v0", 1, "v2"]}


def test_glue_errors_do_not_depend_on_the_string_hash_seed(tmp_path):
    """Fuzz cases whose `cut`, `left` or `right` mix vertex names with
    other values, and a complex with an integer vertex name: each error
    report is the same in processes with different string-hash seeds,
    and names the first bad entry."""
    src = str(Path(cli.__file__).resolve().parents[1])
    cases = dict(enumerate(_fuzz_cases(900)))
    named = dict.fromkeys((426, 639, 825, 899),
                          "is not a vertex of the complex")
    cases["int_name"] = ("glue", _path5_with_an_integer_name())
    named["int_name"] = "cell names must be strings, got 1"
    for k, expected in named.items():
        command, data = cases[k]
        assert command == "glue"
        path = tmp_path / f"case{k}.json"
        path.write_text(json.dumps(data))
        outs = []
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            proc = subprocess.run(
                [sys.executable, "-m", "bvkit.cli", "glue", "--input",
                 str(path)], env=env, capture_output=True, text=True,
                timeout=60)
            assert proc.returncode == 2, proc.stderr
            outs.append(proc.stdout)
        assert outs[0] == outs[1], k
        diagnostic = json.loads(outs[0])["payload"]["diagnostic"]
        assert expected in diagnostic, diagnostic


def test_glue_names_the_first_entry_that_is_not_a_vertex(tmp_path):
    base = _valid_inputs()["glue"]
    for key, value, named in (
            ("left", ["v0", 0, "v9", []], "left entry 0 is"),
            ("right", ["v2", "v3", "x", 1], "right entry 'x' is"),
            ("cut", [["v2"]], "cut entry ['v2'] is"),
            ("cut", "v2", "cut must be a list of vertex names, got 'v2'")):
        report = _run_input(tmp_path, "glue", {**base, key: value})
        assert report["status"] == "error"
        assert report["payload"]["diagnostic"].startswith(named), key


def test_glue_refuses_an_edge_that_crosses_the_cut(tmp_path):
    """A chord from a left-only to a right-only vertex belongs to neither
    half: malformed input naming the edge, not a failed gluing."""
    data = _valid_inputs()["glue"]
    cx = data["complex"]
    cx["cells"][1].append("chord")
    cx["boundary"].append({"cell": "chord", "faces": [["v1", "-1"],
                                                      ["v3", "1"]]})
    cx["weights"][1].append("1")
    code, rep, _ = run_cli(tmp_path, ["glue"], data)
    assert code == 2 and rep["status"] == "error"
    assert rep["payload"]["diagnostic"] == (
        "PartitionMismatch: edge 'chord' crosses the cut")


def test_glue_refuses_a_cut_that_repeats_a_vertex(tmp_path):
    data = {**_valid_inputs()["glue"], "cut": ["v2", "v2"]}
    code, rep, _ = run_cli(tmp_path, ["glue"], data)
    assert code == 2 and rep["status"] == "error"
    assert rep["payload"]["diagnostic"] == (
        "ValueError: order must enumerate the boundary vertices")


def test_sparse_mat_to_json_matches_the_dense_view():
    import random

    rng = random.Random(59)
    shapes = [(0, 0), (0, 4), (4, 0), (3, 3)]
    shapes += [(rng.randint(1, 7), rng.randint(1, 7)) for _ in range(40)]
    for rows, cols in shapes:
        m = Matrix(rows, cols, [
            {j: Fraction(rng.choice((-1, 1)) * rng.randint(1, 9),
                         rng.randint(1, 4))
             for j in range(cols) if rng.random() < 0.3} for _ in range(rows)])
        dense = [[str(x) for x in row] for row in m.entries]
        assert cli.mat_to_json(m) == dense
        assert cli.mat_to_json(Matrix.zeros(rows, cols)) == \
            [["0"] * cols for _ in range(rows)]
    assert cli.mat_to_json(Matrix(2, 2, [{0: Fraction(1, 2)}, {}])) == \
        [["1/2", "0"], ["0", "0"]]


def test_residual_of_a_zero_matrix_has_no_value():
    assert cli.residual("r", Matrix.zeros(3, 2)) == \
        {"name": "r", "zero": True, "value": None}
    assert cli.residual("r", Matrix(1, 2, [{1: Fraction(-3)}])) == \
        {"name": "r", "zero": False, "value": [["0", "-3"]]}


def _tiny_complex(dims, cells, flags=()):
    return {"dims": dims, "cells": cells, "boundary": [],
            "boundary_flags": list(flags)}


@pytest.mark.parametrize("cx", [
    _tiny_complex(0, [["a", "b"], ["e"]]),
    _tiny_complex(-1, [["a", "b"], ["e"]]),
    _tiny_complex(3, [["a", "b"], ["e"]]),
    _tiny_complex(1, [["a", "b"], ["e"], ["f"]]),
], ids=["dims-below-cells", "dims-negative", "dims-beyond-cells",
        "dims-below-three-cell-lists"])
@pytest.mark.parametrize("command", [
    "dtn", "glue", "hj-action", "collar", "bv-check", "moduli", "corner",
    "boundary-bfv"])
def test_dims_that_disagree_with_the_cell_lists_are_errors(tmp_path, cx,
                                                          command):
    data = {"dtn": cx, "corner": cx,
            "glue": {"complex": cx, "cut": [], "left": [], "right": []},
            "hj-action": {"complex": cx, "boundary_values": {}},
            "collar": {"complex": cx, "action": [],
                       "fields": [{"name": "x", "cell_dim": 0}]},
            "bv-check": {"complex": cx}, "moduli": {"complex": cx},
            "boundary-bfv": {"complex": cx, "d": 2}}[command]
    report = _run_input(tmp_path, command, data)
    assert report["status"] == "error"
    assert "malformed complex JSON" in report["payload"]["diagnostic"]


@pytest.mark.parametrize("cell_dim", [5, 2, -1, "1", True, 0.0, None])
def test_collar_refuses_a_cell_dimension_the_complex_lacks(tmp_path,
                                                           cell_dim):
    data = {"complex": cli.FIXTURES["path3"](None), "action": [],
            "fields": [{"name": "x", "cell_dim": cell_dim}]}
    report = _run_input(tmp_path, "collar", data)
    assert report["status"] == "error"
    assert "cell_dim" in report["payload"]["diagnostic"]


def test_corner_refuses_a_complex_without_edges(tmp_path):
    data = _tiny_complex(0, [["a"]], ["a"])
    code, rep, _ = run_cli(tmp_path, ["corner"], data)
    assert code == 2
    assert "corners need a complex with edges" in rep["payload"]["diagnostic"]
