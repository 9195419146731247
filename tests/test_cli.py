import json
import re
from fractions import Fraction
from pathlib import Path

import pytest

from bvkit import cli
from bvkit.theories import MechanicsFixture, mechanics_relation


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
    payload = {"complex": cli.FIXTURES["circle"](None), "d": 2}
    code, rep, _ = run_cli(tmp_path, ["boundary-bfv"], payload)
    assert code == 0
    assert rep["payload"]["dims"] == {"-1": 1, "0": 2, "1": 1}


def test_corner_path(tmp_path):
    fix = cli.FIXTURES["path3"](None)
    code, rep, _ = run_cli(tmp_path, ["corner"], fix)
    assert code == 0
    assert sorted(d for _, d in rep["payload"]["labels"]) == [0, 0, 1, 1]


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


@pytest.mark.parametrize("args, payload", [
    (["dtn"], _path3_weight("1/0")),
    (["hj-action"], {"complex": cli.FIXTURES["path3"](None),
                     "boundary_values": {"v0": "1/0", "v2": "0"}}),
    (["bfv-resolve"], {"n_pairs": 1, "constraints": [["1/0", "0"]]}),
    (["bv-check"], [1, 2]),
    (["dtn"], {"dims": 2, "cells": [["a", "b"], ["e"]], "boundary": []}),
], ids=["dtn-zero-weight-denominator", "hj-action-zero-denominator",
        "bfv-resolve-zero-denominator", "bv-check-top-level-array",
        "dtn-dims-beyond-cells"])
def test_bad_numbers_and_non_object_input_are_errors(tmp_path, args, payload):
    code, rep, _ = run_cli(tmp_path, args, payload)
    assert code == 2 and rep["status"] == "error"
    assert rep["payload"]["diagnostic"]


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
