import itertools
import json
import math
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import CONFIG_DIR, random_hurwitz
from gascert import ConfigError, model, numerics
from gascert.cli import build_parser, main
from gascert.config import dump_report, load_config, parse_config
from gascert.riccati import certify
from gascert.sim import simulate

DC = str(CONFIG_DIR / "dc_pair.json")
TOY = str(CONFIG_DIR / "toy_pair.json")
WEAK = str(CONFIG_DIR / "weak_pair.json")
UNSTABLE = str(CONFIG_DIR / "unstable_pair.json")
MESH = str(CONFIG_DIR / "mesh6.json")

# one number field of toy_pair per kind of field, and the path its error names
NUMBER_FIELDS = {
    "gamma": (("tuning", "gamma"), "config.tuning.gamma"),
    "theta_max": (("tuning", "theta_max"), "config.tuning.theta_max"),
    "eps0": (("tuning", "eps0"), "config.tuning.eps0"),
    "Q_entry": (("tuning", "Q", 1, 0), "config.tuning.Q"),
    "B_entry": (("subsystems", 0, "B", 0, 0), "config.subsystems[0].B"),
    "C_entry": (("subsystems", 1, "C", 0, 0), "config.subsystems[1].C"),
    "reference_model_entry": (("reference_model", 0, 1), "config.reference_model"),
    "edge_A_entry": (("edges", 0, "A", 0, 0), "config.edges[0].A"),
    "horizon": (("scenario", "horizon"), "config.scenario.horizon"),
    "dt": (("scenario", "dt"), "config.scenario.dt"),
    "x0_entry": (("scenario", "x0", "a", 1), "config.scenario.x0.a"),
    "theta_entry": (("scenario", "theta", "a", 0, 0), "config.scenario.theta.a"),
    "schedule_time": (("scenario", "references", "b", "times", 1), "config.scenario.references.b"),
    "schedule_value": (("scenario", "references", "a", "values", 0, 0),
                       "config.scenario.references.a"),
    "disturbance_value": (("scenario", "disturbances", "a", "values", 1, 0),
                          "config.scenario.disturbances.a"),
}
# "bool_entry" set at an entry puts a boolean among numbers, as in [[true, 0.0]]
NOT_NUMBERS = {"nan": float("nan"), "infinity": float("inf"), "int_beyond_double": 10 ** 400,
               "string": "1.0", "bool_matrix": [[True]], "bool_entry": True}


def _replaced(doc, path, value):
    """A copy of ``doc`` with the field at ``path`` (keys and indices) set to ``value``."""
    doc = json.loads(json.dumps(doc))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


class TestConfigParsing:
    def test_loads_benchmark(self):
        net, scenario, data = load_config(DC)
        assert net.ids == ["dgu1", "dgu2"]
        assert scenario is None
        assert net.subsystem("dgu1").B.tolist() == [[1.34e7], [-8.12e5], [0.0]]
        assert net.subsystem("dgu1").dim == 3
        # edge blocks arrive augmented with the coupling entry in place
        edge = net.in_edges("dgu1")[0]
        assert edge.A.shape == (3, 3)
        assert edge.A[1, 1] == 5.32e4

    def test_loads_scenario(self):
        net, scenario, _ = load_config(TOY)
        assert scenario is not None
        assert scenario.dt == 1e-3
        assert scenario.references["b"].at(1.5)[0] == 0.8
        assert np.array_equal(scenario.theta["a"], [[0.3], [-0.2]])

    def test_missing_field_named(self):
        doc = json.loads(open(TOY, "rb").read())
        del doc["subsystems"][0]["B"]
        with pytest.raises(ConfigError, match=r"subsystems\[0\].B"):
            parse_config(doc)

    def test_unknown_edge_id_named(self):
        doc = json.loads(open(TOY, "rb").read())
        doc["edges"][0]["from"] = "ghost"
        with pytest.raises(ConfigError, match="ghost"):
            parse_config(doc)

    def test_bad_matrix_named(self):
        doc = json.loads(open(TOY, "rb").read())
        doc["subsystems"][1]["C"] = [["x"]]
        with pytest.raises(ConfigError, match=r"subsystems\[1\].C"):
            parse_config(doc)

    def test_scenario_unknown_subsystem(self):
        doc = json.loads(open(TOY, "rb").read())
        doc["scenario"]["references"]["ghost"] = {"times": [0.0], "values": [[1.0]]}
        with pytest.raises(ConfigError, match="ghost"):
            parse_config(doc)

    def test_scenario_wrong_state_length(self):
        doc = json.loads(open(TOY, "rb").read())
        doc["scenario"]["x0"]["a"] = [0.4]  # augmented state has 2 entries
        with pytest.raises(ConfigError, match=r"x0.a"):
            parse_config(doc)

    def test_duplicate_id_named(self):
        doc = json.loads(open(TOY, "rb").read())
        doc["subsystems"][1]["id"] = "a"
        with pytest.raises(ConfigError, match=r"^config\.subsystems\[1\]\.id: duplicate id 'a'$"):
            parse_config(doc)

    def test_integers_within_double_range_read(self):
        # 2**70 is beyond int64, so numpy reads it as an object array
        doc = _replaced(TOY_DOC, ("tuning", "gamma"), 2 ** 70)
        doc["scenario"]["x0"]["a"] = [2 ** 70, 0]
        net, scenario = parse_config(doc)
        assert net.tuning["a"].gamma == 2.0 ** 70
        assert scenario.x0["a"].tolist() == [2.0 ** 70, 0.0]

    def test_shared_tuning_built_once(self):
        net, _ = parse_config(TOY_DOC)
        assert net.tuning["a"] is net.tuning["b"]

    @pytest.mark.parametrize("edit,message", [
        (lambda doc: doc["tuning"].update(gamma=-1.0), "config.tuning: gamma must be positive"),
        (lambda doc: doc["tuning"].update(gamma="x"), "config.tuning.gamma: not a numeric array"),
        (lambda doc: doc["tuning"].pop("eps0"), "config.tuning.eps0: missing required field"),
        (lambda doc: doc["subsystems"][1].update(tuning=dict(doc["tuning"], eps0=0.0)),
         "config.subsystems[1].tuning: eps0 must be positive"),
        (lambda doc: doc["reference_model"][1].__setitem__(0, "x"),
         "config.reference_model: not a numeric array"),
        (lambda doc: doc["subsystems"][1].update(reference_model=[[-1.0, True], [-1.0, 0.0]]),
         "config.subsystems[1].reference_model: not a numeric array"),
        (lambda doc: doc.update(reference_model={"A_nominal": [[0.0]], "K_x": "x",
                                                 "K_xi": [[1.0]]}),
         "config.reference_model.K_x: not a numeric array"),
        (lambda doc: doc.update(reference_model={"A_nominal": [[0.0]], "K_x": [[2.0]]}),
         "config.reference_model.K_xi: missing required field"),
        (lambda doc: doc.update(reference_model=3.0),
         "config.reference_model: expected a matrix or gain blocks"),
        (lambda doc: (doc.update(reference_model=GAIN_BLOCKS),
                      doc["subsystems"][1].update(B=[[1.0, 1.0]])),
         "config.reference_model: subsystem b: gain blocks do not match (m, n) / (m, q)"),
        (lambda doc: doc["subsystems"][1].update(reference_model=GAIN_BLOCKS, B=[[1.0, 1.0]]),
         "config.subsystems[1].reference_model: gain blocks do not match (m, n) / (m, q)"),
    ], ids=["tuning_value", "tuning_number", "tuning_missing", "own_tuning", "reference_model",
            "own_reference_model", "gain_block_number", "gain_block_missing", "not_a_model",
            "gain_block_misfit", "own_gain_block_misfit"])
    def test_section_errors_named_where_they_are(self, edit, message):
        # a shared section is named at top level, not under the first subsystem using it
        doc = json.loads(json.dumps(TOY_DOC))
        edit(doc)
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            parse_config(doc)

    def test_shared_gain_block_misfit_one_line_error(self, tmp_path, capsys):
        # a shared section that misfits one subsystem's blocks names that subsystem
        doc = json.loads(json.dumps(TOY_DOC))
        doc["reference_model"] = GAIN_BLOCKS
        doc["subsystems"][1]["B"] = [[1.0, 1.0]]
        cfg = tmp_path / "misfit.json"
        cfg.write_text(json.dumps(doc))
        assert main(["riccati", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: config.reference_model: subsystem b: "
                                "gain blocks do not match (m, n) / (m, q)\n")

    def test_gain_blocks_use_each_subsystems_own_blocks(self):
        # [[A_nominal - B K_x, B K_xi], [-C, 0]] with toy_pair's A_nominal, C and gains
        doc = json.loads(json.dumps(TOY_DOC))
        doc["reference_model"] = {"A_nominal": [[0.0]], "K_x": [[2.0]], "K_xi": [[1.0]]}
        doc["subsystems"][1]["B"] = [[2.0]]
        net, _ = parse_config(doc)
        assert net.desired["a"].tolist() == [[-2.0, 1.0], [-1.0, 0.0]]
        assert net.desired["b"].tolist() == [[-4.0, 2.0], [-1.0, 0.0]]

    def test_shared_gain_blocks_read_and_solved_once(self, monkeypatch):
        # each block of a shared section is read once for both subsystems, and
        # each assembled desired matrix is eigen-solved once, as a member of a
        # stack (of one, for the assembly's Hurwitz test), on the record the
        # assembly hands the network
        doc = json.loads(json.dumps(TOY_DOC))
        doc["reference_model"] = json.loads(json.dumps(GAIN_BLOCKS))
        doc["subsystems"][1]["B"] = [[2.0]]
        read, members = [], []
        real, spectra = numerics.numeric_array, numerics._spectra
        monkeypatch.setattr(numerics, "numeric_array",
                            lambda value, name="array": read.append(value) or real(value, name))
        for module in (numerics, model):
            monkeypatch.setattr(module, "_spectra",
                                lambda recs: members.extend(recs) or spectra(recs))
        net, _ = parse_config(doc)
        blocks = doc["reference_model"]
        assert [sum(v is blocks[key] for v in read) for key in blocks] == [1, 1, 1]
        for sid in net.ids:
            Am = net.desired[sid]
            assert sum(r.A.shape == Am.shape and np.array_equal(r.A, Am) for r in members) == 1
            assert any(r.A is Am for r in members)

    def test_baseline_gain_reaches_the_simulation(self):
        # a subsystem's baseline_gain is its state-feedback gain: u_bl = -K xbar
        doc = json.loads(json.dumps(TOY_DOC))
        doc["subsystems"][0]["baseline_gain"] = [[0.5, 0.25]]
        net, sc = parse_config(doc)
        assert net.baseline["a"].tolist() == [[0.5, 0.25]]
        assert net.baseline["b"].tolist() == [[0.0, 0.0]]
        trace = simulate(net, sc, mode="decentralized")
        assert np.allclose(trace.u_bl["a"], -trace.xbar["a"] @ net.baseline["a"].T,
                           rtol=1e-15, atol=0.0)
        assert np.any(trace.u_bl["a"]) and not np.any(trace.u_bl["b"])

    @pytest.mark.parametrize("gain,message", [
        ([[float("nan"), 0.0]], "config.subsystems[0].baseline_gain: non-finite entries"),
        ([["0.5", 0.0]], "config.subsystems[0].baseline_gain: not a numeric array"),
        ([[0.5]], "config: subsystem a: baseline gain is (1, 1), expected (1, 2)"),
    ], ids=["nan", "string", "wrong_shape"])
    def test_bad_baseline_gain_one_line_error(self, gain, message, tmp_path, capsys):
        doc = json.loads(json.dumps(TOY_DOC))
        doc["subsystems"][0]["baseline_gain"] = gain
        cfg = tmp_path / "baseline.json"
        cfg.write_text(json.dumps(doc, allow_nan=True))
        assert main(["riccati", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_flat_matrix_read_as_a_row(self, tmp_path, capsys):
        # as as_matrix reads it everywhere: a flat C is one row, and a flat
        # B of two entries is a 1x2 row that C's two columns do not fit
        doc = json.loads(open(DC, "rb").read())
        doc["subsystems"][0]["C"] = [0.0, 1.0]
        net, _ = parse_config(doc)
        assert net.subsystem("dgu1").C[:1, :2].tolist() == [[0.0, 1.0]]
        doc["subsystems"][0]["B"] = [1.34e7, -8.12e5]
        cfg = tmp_path / "flat.json"
        cfg.write_text(json.dumps(doc))
        assert main(["riccati", str(cfg)]) == 1
        assert capsys.readouterr().err == ("error: config.subsystems[0]: subsystem dgu1: "
                                           "C has 2 cols, expected 1\n")

    def test_scenario_wrong_theta_shape(self):
        doc = json.loads(open(TOY, "rb").read())
        doc["scenario"]["theta"]["a"] = [[0.3]]
        with pytest.raises(ConfigError, match=r"theta.a"):
            parse_config(doc)


class TestReportSerializer:
    def test_sorted_keys_and_float_format(self):
        text = dump_report({"b": 0.1, "a": [1, 2.0], "c": {"y": True, "x": None}})
        assert text.index('"a"') < text.index('"b"') < text.index('"c"')
        assert "0.10000000000000001" in text
        assert json.loads(text) == {"a": [1, 2.0], "b": 0.1,
                                    "c": {"x": None, "y": True}}

    def test_numpy_values(self):
        text = dump_report({"m": np.eye(2), "v": np.float64(2.5), "n": np.int64(3),
                            "f": np.bool_(False)})
        doc = json.loads(text)
        assert doc["m"] == [[1.0, 0.0], [0.0, 1.0]]
        assert doc["v"] == 2.5
        assert doc["n"] == 3
        assert doc["f"] is False

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            dump_report({"bad": float("inf")})


class TestExitCodes:
    def test_connective_fail_on_benchmark(self, capsys):
        assert main(["connective", DC]) == 2
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdict"] == "fail"
        assert not doc["conditions"]["diagonal_dominance"]

    def test_connective_pass_on_weak_pair(self, capsys):
        assert main(["connective", WEAK]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdict"] == "pass"

    def test_connective_missing_field(self, tmp_path, capsys):
        doc = json.loads(open(TOY, "rb").read())
        del doc["subsystems"][0]["C"]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["connective", str(bad)]) == 1
        err = capsys.readouterr().err
        assert "subsystems[0].C" in err

    def test_riccati_certified_toy(self, capsys):
        assert main(["riccati", TOY]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdict"] == "certified"
        assert doc["subsystems"]["a"]["P"] is not None

    def test_riccati_fails_when_coupling_inflated(self, tmp_path, capsys):
        doc = json.loads(open(TOY, "rb").read())
        doc["edges"][0]["A"] = [[10.0]]  # past the margin for subsystem "a"
        cfg = tmp_path / "inflated.json"
        cfg.write_text(json.dumps(doc))
        assert main(["riccati", str(cfg)]) == 2
        out = json.loads(capsys.readouterr().out)
        assert out["verdict"] == "not-certified"
        assert out["failing"] == ["a"]

    @pytest.mark.parametrize("edge", [{"A": [[1.5e154]]}, {"A": [[1e155]]}, {"norm_bound": 1e200}],
                             ids=["matrix", "matrix_1e155", "bound_only"])
    def test_overflowing_coupling_energy_is_a_verdict(self, edge, tmp_path, capsys):
        # squaring the coupling gain overflows: Xi2 was inf, and riccati ended
        # in "error: reports must not contain non-finite numbers" (exit 1).
        # Now its subsystem is uncertified with null energy and margin; the
        # path gain of the same edge is finite, and smallgain fails the pair
        doc = json.loads(open(TOY, "rb").read())
        doc["edges"][0] = {"from": "b", "to": "a", **edge}
        cfg = tmp_path / "huge.json"
        cfg.write_text(json.dumps(doc))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["riccati", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.err == ""
        out = json.loads(captured.out)
        assert (out["verdict"], out["failing"]) == ("not-certified", ["a"])
        sub = out["subsystems"]["a"]
        assert (sub["coupling_energy"], sub["margin"], sub["epsilon"], sub["P"]) == \
            (None, None, None, None)
        assert sub["reason"] == "coupling energy overflows: N * Xi2 is beyond the float range"
        assert sub["distance"] > 0.0 and out["subsystems"]["b"]["P"] is not None
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["smallgain", str(cfg)]) == 2
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        assert captured.err == ""
        assert report["verdict"] == "fail"
        assert math.isfinite(report["hinf_product"]) and report["hinf_product"] > 1e153

    @pytest.mark.parametrize("edge", [{"norm_bound": 1e200}, {"A": [[1e308]]}],
                             ids=["bound_only", "matrix"])
    def test_overflowing_pair_is_a_verdict(self, edge, tmp_path, capsys):
        # both edges huge: smallgain's products overflowed, and it ended in
        # "error: reports must not contain non-finite numbers"; with the 1e308
        # blocks connective's M did too, and it ended in "error: M: non-finite
        # entries" (exit 1 each).  Now each overflowed number is null and a
        # failed condition, and every command exits 2
        doc = json.loads(open(TOY, "rb").read())
        doc["edges"] = [{"from": "b", "to": "a", **edge}, {"from": "a", "to": "b", **edge}]
        cfg = tmp_path / "huge_pair.json"
        cfg.write_text(json.dumps(doc))
        out = {}
        for command in ("riccati", "connective", "smallgain"):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert main([command, str(cfg)]) == 2
            captured = capsys.readouterr()
            assert captured.err == ""
            out[command] = json.loads(captured.out)
        assert out["riccati"]["verdict"] == "not-certified"
        small = out["smallgain"]
        assert (small["verdict"], small["hinf_product"], small["raw_gain_product"]) == \
            ("fail", None, None)
        assert [(p["pair"], p["hinf_product"], p["raw_gain_product"], p["pass"])
                for p in small["pairs"]] == [(["a", "b"], None, None, False)]
        agg = out["connective"]
        M, offsets = np.array(agg["aggregate_matrix"], dtype=float), agg["offsets"]
        assert agg["verdict"] == "fail" and not agg["conditions"]["diagonal_dominance"]
        assert np.isfinite(np.diag(M)).all() and all(math.isfinite(x) for x in offsets)
        if "A" in edge:  # 1e308 times lam_max(P) / lam_min(P) > 1: null entries
            assert agg["aggregate_matrix"][0][1] is None and agg["aggregate_matrix"][1][0] is None
            assert not any(agg["conditions"].values())
        else:
            assert np.isfinite(M).all()

    def test_riccati_benchmark_margin_golden(self, capsys):
        # no external expectation exists for this margin; it is frozen as a
        # regression anchor: -53200 (sqrt of the coupling energy) plus the
        # distance 0.013980367771379707 that an independent sigma_min
        # frequency sweep gives for the reference model
        assert main(["riccati", DC]) == 2
        doc = json.loads(capsys.readouterr().out)
        sub = doc["subsystems"]["dgu1"]
        assert sub["margin"] == pytest.approx(-53199.98601963223, rel=1e-9)
        assert sub["coupling_energy"] == pytest.approx(5.32e4 ** 2, rel=1e-12)
        assert doc["failing"] == ["dgu1", "dgu2"]

    def test_smallgain_benchmark(self, capsys):
        assert main(["smallgain", DC]) == 2
        doc = json.loads(capsys.readouterr().out)
        assert doc["raw_gain_product"] == pytest.approx(2.05884e9, rel=1e-12)
        assert doc["verdict"] == "fail"

    def test_smallgain_no_coupling(self, tmp_path, capsys):
        doc = json.loads(open(WEAK, "rb").read())
        doc["edges"] = []
        cfg = tmp_path / "decoupled.json"
        cfg.write_text(json.dumps(doc))
        assert main(["smallgain", str(cfg)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["hinf_product"] == 0.0

    def test_smallgain_weak_pair_passes(self, capsys):
        assert main(["smallgain", WEAK]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["hinf_product"] < 1.0

    def test_simulate_toy(self, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        assert main(["simulate", TOY, "--mode", "dist", "--out", str(out)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["certified"] is True
        assert doc["samples"] == 2001
        header = out.read_text().splitlines()[0]
        assert header == "time,subsystem,series,index,value"

    def test_simulate_divergence_exit_3(self, tmp_path, capsys):
        out = tmp_path / "boom.csv"
        assert main(["simulate", UNSTABLE, "--mode", "dec", "--out", str(out)]) == 3
        doc = json.loads(capsys.readouterr().out)
        assert doc["metrics"]["diverged"] is True

    @pytest.mark.parametrize("mode", ["dist", "dec"])
    def test_simulate_initial_state_beyond_the_guard_exit_3(self, tmp_path, capsys, mode):
        # the first sample escaped the divergence guard: exit 1 with
        # "reports must not contain non-finite numbers"
        doc = json.loads(open(TOY, "rb").read())
        doc["scenario"]["x0"] = {"a": [1e160, 0]}
        cfg = tmp_path / "huge_x0.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "huge_x0.csv"
        assert main(["simulate", str(cfg), "--mode", mode, "--out", str(out)]) == 3
        captured = capsys.readouterr()
        assert captured.err == ""
        report = json.loads(captured.out)
        assert report["samples"] == 0 and report["metrics"]["diverged"] is True
        assert out.read_text() == "time,subsystem,series,index,value\n"

    def test_overflowing_slack_is_not_certified(self, tmp_path, capsys):
        # gamma = 1e160, so gamma^2 and the slack overflow: the subsystems are
        # not certified, with a finite report, and simulate runs uncertified
        # (its RK4 step diverges on these fast dynamics)
        doc = json.loads(open(TOY, "rb").read())
        doc["reference_model"] = [[-1e160, 0.0], [0.0, -1e160]]
        cfg = tmp_path / "fast.json"
        cfg.write_text(json.dumps(doc))
        assert main(["riccati", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.err == ""
        report = json.loads(captured.out)
        assert report["verdict"] == "not-certified" and report["failing"] == ["a", "b"]
        for rec in report["subsystems"].values():
            assert rec["epsilon"] is None and rec["P"] is None
            assert rec["reason"] == "slack epsilon overflows: gamma^2 is beyond the float range"
            assert rec["distance"] == 1e160 and rec["margin"] > 0.0
        out = tmp_path / "fast.csv"
        assert main(["simulate", str(cfg), "--mode", "dist", "--out", str(out)]) == 3
        captured = capsys.readouterr()
        assert captured.err == "" and json.loads(captured.out)["certified"] is False

    def test_simulate_zero_horizon(self, tmp_path, capsys):
        doc = json.loads(open(TOY, "rb").read())
        doc["scenario"]["horizon"] = 0.0
        cfg = tmp_path / "zero.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "zero.csv"
        assert main(["simulate", str(cfg), "--mode", "dist", "--out", str(out)]) == 0
        assert json.loads(capsys.readouterr().out)["samples"] == 1

    def test_simulate_without_scenario_errors(self, tmp_path, capsys):
        out = tmp_path / "none.csv"
        assert main(["simulate", DC, "--mode", "dist", "--out", str(out)]) == 1
        assert "scenario" in capsys.readouterr().err

    @pytest.mark.parametrize("edit,field", [
        (lambda doc: doc["tuning"].update(theta_max=0), "theta_max"),
        (lambda doc: doc["edges"][0].update(A=None, bound_only=True, norm_bound=0.1),
         "bound_only"),
        (lambda doc: doc["scenario"].update(horizon=0.0105), "horizon"),
    ], ids=["theta_max_zero", "bound_only_edge", "horizon_off_grid"])
    def test_simulate_precondition_one_line_error(self, edit, field, tmp_path, capsys):
        doc = json.loads(open(TOY, "rb").read())
        edit(doc)
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match=field):
            net, scenario, _ = load_config(cfg)
            simulate(net, scenario, mode="distributed")
        out = tmp_path / "bad.csv"
        assert main(["simulate", str(cfg), "--mode", "dist", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert field in captured.err
        assert len(captured.err.splitlines()) == 1
        assert not out.exists()

    def test_theta_max_zero_still_simulates_decentralized(self, tmp_path, capsys):
        # the bound only enters the projection law of the distributed mode
        doc = json.loads(open(TOY, "rb").read())
        doc["tuning"]["theta_max"] = 0
        doc["scenario"]["horizon"] = 0.01
        cfg = tmp_path / "tmax0.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "tmax0.csv"
        assert main(["simulate", str(cfg), "--mode", "dec", "--out", str(out)]) == 0
        assert json.loads(capsys.readouterr().out)["samples"] == 11

    @pytest.mark.parametrize("edit,field", [
        (lambda sc: sc["x0"].update(a=["x", 0]), "config.scenario.x0.a: not a numeric array"),
        (lambda sc: sc.update(xhat0={"b": [[0.1], [0.2, 0.3]]}),
         "config.scenario.xhat0.b: not a numeric array"),
        (lambda sc: sc["references"].update(a=["x"]), "config.scenario.references.a: "),
        (lambda sc: sc["disturbances"].update(a=[[1.0], [2.0, 3.0]]),
         "config.scenario.disturbances.a: "),
        (lambda sc: sc.update(references="abc"), "config.scenario.references: expected an object"),
        (lambda sc: sc.update(disturbances=[1.0]),
         "config.scenario.disturbances: expected an object"),
        (lambda sc: sc.update(theta="abc"), "config.scenario.theta: expected an object"),
        (lambda sc: sc.update(theta_hat0=3), "config.scenario.theta_hat0: expected an object"),
        (lambda sc: sc.update(x0=[0.4, 0.0]), "config.scenario.x0: expected an object"),
        (lambda sc: sc.update(xhat0="x"), "config.scenario.xhat0: expected an object"),
        (lambda sc: sc["references"]["a"].update(values=[[[1.0]]]),
         "config.scenario.references.a: schedule values must be at most 2-D"),
        (lambda sc: sc["disturbances"].update(a=[[None]]),
         "config.scenario.disturbances.a: schedule values: not a numeric array"),
        (lambda sc: sc["disturbances"].update(a=[None]),
         "config.scenario.disturbances.a: schedule values: not a numeric array"),
        (lambda sc: sc["references"]["b"].update(values=[[0.5], [None]]),
         "config.scenario.references.b: schedule values: not a numeric array"),
        (lambda sc: sc["references"]["b"].update(times=[0.0, None]),
         "config.scenario.references.b: schedule times: not a numeric array"),
    ], ids=["x0_non_numeric", "xhat0_ragged", "constant_schedule_non_numeric",
            "constant_schedule_ragged", "references_not_object", "disturbances_not_object",
            "theta_not_object", "theta_hat0_not_object", "x0_not_object", "xhat0_not_object",
            "schedule_values_3d", "constant_schedule_3d", "constant_schedule_null",
            "schedule_null_value", "schedule_null_time"])
    def test_malformed_scenario_one_line_error(self, edit, field, tmp_path, capsys):
        doc = json.loads(open(TOY, "rb").read())
        edit(doc["scenario"])
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match=f"^{re.escape(field)}"):
            parse_config(doc)
        for argv in (["riccati", str(cfg)],
                     ["simulate", str(cfg), "--out", str(tmp_path / "bad.csv")]):
            assert main(argv) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith(f"error: {field}")
            assert len(captured.err.splitlines()) == 1

    @pytest.mark.parametrize("sub", ["riccati", "connective", "smallgain", "simulate"])
    def test_scenario_misfit_rejected_at_load(self, sub, tmp_path, capsys):
        # a scenario that does not fit its network fails every subcommand
        doc = json.loads(open(TOY, "rb").read())
        doc["scenario"]["references"]["a"]["values"] = [[1.0, 2.0]]
        cfg = tmp_path / "wide.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "wide.csv"
        assert main([sub, str(cfg)] + (["--out", str(out)] if sub == "simulate" else [])) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: config.scenario.references.a: "
                                "schedule is 2 wide, expected 1\n")
        assert not out.exists()

    def test_empty_schedule_one_line_error(self, tmp_path, capsys):
        # an empty schedule's values were read as one empty row, and the error
        # blamed the row count ("schedule has 0 breakpoints but 1 rows")
        doc = json.loads(open(TOY, "rb").read())
        doc["scenario"]["references"]["a"] = {"times": [], "values": []}
        cfg = tmp_path / "empty.json"
        cfg.write_text(json.dumps(doc))
        assert main(["riccati", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: config.scenario.references.a: "
                                "schedule needs at least one breakpoint\n")

    def test_duplicate_id_one_line_error(self, tmp_path, capsys):
        doc = json.loads(open(TOY, "rb").read())
        doc["subsystems"][1]["id"] = "a"
        cfg = tmp_path / "dup.json"
        cfg.write_text(json.dumps(doc))
        assert main(["connective", str(cfg)]) == 1
        assert capsys.readouterr().err == "error: config.subsystems[1].id: duplicate id 'a'\n"

    @pytest.mark.parametrize("k,edit", [
        (0, {"A": [[0.0]], "B": [[0.0]]}),
        (1, {"A": [[-1.0, 0.0], [0.0, -2.0]], "B": [[1.0], [0.0]], "C": [[1.0, 0.0]],
             "E": [[1.0], [0.0]]}),
    ], ids=["zero_input", "unreachable_mode"])
    def test_uncontrollable_plant_one_line_error(self, k, edit, tmp_path, capsys):
        doc = json.loads(open(TOY, "rb").read())
        doc["subsystems"][k].update(edit)
        cfg = tmp_path / "uncontrollable.json"
        cfg.write_text(json.dumps(doc))
        sid = doc["subsystems"][k]["id"]
        for command in ("riccati", "connective", "smallgain"):
            assert main([command, str(cfg)]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (f"error: config.subsystems[{k}]: subsystem {sid}: "
                                    "(A, B) is not controllable\n")

    def test_unknown_plant_skips_controllability(self, tmp_path, capsys):
        # with A null there is no pair (A, B) to test, even for B = 0
        doc = json.loads(open(TOY, "rb").read())
        doc["subsystems"][0].update(A=None, B=[[0.0]])
        cfg = tmp_path / "unknown_plant.json"
        cfg.write_text(json.dumps(doc))
        assert main(["riccati", str(cfg)]) == 0
        assert json.loads(capsys.readouterr().out)["verdict"] == "certified"

    def test_repeated_edge_one_line_error(self, tmp_path, capsys):
        doc = json.loads(open(TOY, "rb").read())
        doc["edges"].append({"from": "b", "to": "a", "A": [[0.2]]})
        cfg = tmp_path / "repeated_edge.json"
        cfg.write_text(json.dumps(doc))
        for command in ("riccati", "connective", "smallgain"):
            assert main([command, str(cfg)]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "error: config: edge b->a: repeated edge; declare each pair once\n"

    def test_self_edge_one_line_error(self, tmp_path, capsys):
        doc = json.loads(open(TOY, "rb").read())
        doc["edges"].append({"from": "a", "to": "a", "A": [[0.1]]})
        cfg = tmp_path / "self_edge.json"
        cfg.write_text(json.dumps(doc))
        for argv in (["riccati"], ["connective"], ["smallgain"],
                     ["simulate", "--out", str(tmp_path / "t.csv")]):
            assert main([argv[0], str(cfg), *argv[1:]]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == ("error: config.edges[2]: edge a->a: "
                                    "a subsystem cannot be coupled to itself\n")
        assert not (tmp_path / "t.csv").exists()

    def test_overflowing_lyapunov_norms_one_line_error(self, tmp_path, capsys):
        # the true P is about 1.7e300; scipy's 1.7e-100 passed a residual
        # test whose norms had overflowed, and the report read pass
        doc = json.loads(open(TOY, "rb").read())
        doc["reference_model"] = (np.array(doc["reference_model"]) * 1e-100).tolist()
        doc["tuning"]["Q"] = (np.array(doc["tuning"]["Q"]) * 1e200).tolist()
        cfg = tmp_path / "lyapunov_overflow.json"
        cfg.write_text(json.dumps(doc))
        assert main(["connective", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: Lyapunov residual ")
        assert len(captured.err.splitlines()) == 1

    def test_huge_reference_model_weight_accepted(self, tmp_path, capsys):
        # ||A_m||_F overflowed and ||P||_F, scaled with Q, underflowed: the
        # residual bound read nan and refused an accurate weight (exit 1)
        doc = json.loads(open(TOY, "rb").read())
        doc["reference_model"] = [[-1e300, 1e300], [-1e300, -1e300]]
        cfg = tmp_path / "huge_reference_model.json"
        cfg.write_text(json.dumps(doc))
        assert main(["connective", str(cfg)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        report = json.loads(captured.out)
        assert report["verdict"] == "pass"
        for sid in ("a", "b"):
            assert report["subsystems"][sid]["lambda_max_P"] == pytest.approx(5e-301, rel=1e-12)

    def test_solver_warning_not_written(self, tmp_path):
        # scipy warns of an eigenvalue pair summing to nearly zero and returns a
        # negative definite P, which the residual test refuses (its norms once
        # underflowed to 0 <= 0, and the definiteness check refused it instead);
        # stderr holds the error line alone
        doc = json.loads(open(TOY, "rb").read())
        doc["reference_model"] = (np.array(doc["reference_model"]) * 1e-300).tolist()
        cfg = tmp_path / "tiny_reference_model.json"
        cfg.write_text(json.dumps(doc))
        done = subprocess.run([sys.executable, "-m", "gascert.cli", "connective", str(cfg)],
                              capture_output=True, text=True, timeout=120,
                              env={**os.environ, "PYTHONPATH": str(CONFIG_DIR.parents[1] / "src")})
        assert done.returncode == 1
        assert done.stdout == ""
        assert done.stderr == ("error: Lyapunov residual 1.414e+00 exceeds "
                               "1e-10 * scale (1.414e-10)\n")

    def test_line_breaks_in_message_stay_on_one_line(self, tmp_path, capsys):
        doc = json.loads(open(TOY, "rb").read())
        doc["scenario"]["theta"]["a\nb\u2028c"] = None
        cfg = tmp_path / "nl.json"
        cfg.write_text(json.dumps(doc))
        assert main(["riccati", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err == "error: config.scenario.theta.a\\nb\\nc: unknown subsystem id\n"

    def test_missing_file(self, capsys):
        assert main(["connective", "/nonexistent/cfg.json"]) == 1

    @pytest.mark.parametrize("command", ["riccati", "connective", "smallgain"])
    @pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf"])
    def test_bad_tol_rejected(self, command, tol, capsys):
        # no subcommand takes a tolerance: --tol is an unknown option
        assert main([command, TOY, "--tol", tol]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert f"--tol {tol}" in captured.err
        assert len(captured.err.splitlines()) == 1

    @pytest.mark.parametrize("argv", [
        [], ["riccati"], ["bogus", TOY], ["riccati", TOY, "--bogus"],
        ["simulate", TOY, "--mode", "dist"], ["simulate", TOY, "--mode", "x", "--out", "t.csv"],
        ["riccati", TOY, "--tol", "abc"], ["riccati", TOY, "--tol", "1e-6"],
    ], ids=["no_command", "no_config", "unknown_command", "unknown_option", "missing_out",
            "bad_mode", "tol_not_a_number", "tol_removed"])
    def test_usage_error_one_line(self, argv, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: gascert")
        assert len(captured.err.splitlines()) == 1
        assert not (tmp_path / "t.csv").exists()

    @pytest.mark.parametrize("argv", [["--help"], ["riccati", "--help"], ["--version"]])
    def test_help_and_version_exit_0(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith(("usage: gascert", "gascert "))

    def test_parser_built_once_on_first_call(self, capsys):
        # importing the CLI builds no parser; main builds one on its first call
        code = ("import gascert.cli as cli; before = cli.build_parser.cache_info().currsize; "
                "cli.main(['--bogus']); print(before, cli.build_parser.cache_info().currsize)")
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=120,
                              env={**os.environ, "PYTHONPATH": str(CONFIG_DIR.parents[1] / "src")})
        assert done.stdout.split() == ["0", "1"]
        assert done.stderr.startswith("error: gascert")
        assert len(done.stderr.splitlines()) == 1
        # later calls reuse it, after a usage error and --help as well
        parser = build_parser()
        assert main(["riccati", TOY, "--bogus"]) == 1
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert main(["riccati", TOY]) == 0
        assert build_parser() is parser

    def test_matrix_and_bound_one_line_error(self, tmp_path, capsys):
        doc = json.loads(open(TOY, "rb").read())
        doc["edges"][1]["norm_bound"] = 0.05
        cfg = tmp_path / "both.json"
        cfg.write_text(json.dumps(doc))
        for command in ("riccati", "connective", "smallgain"):
            assert main([command, str(cfg)]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == ("error: config.edges[1]: edge a->b: give a coupling "
                                    "matrix A or a norm_bound, not both\n")

    def test_neither_matrix_nor_bound_one_line_error(self, tmp_path, capsys):
        doc = json.loads(open(TOY, "rb").read())
        doc["edges"][0] = {"from": "b", "to": "a", "A": None}
        cfg = tmp_path / "neither.json"
        cfg.write_text(json.dumps(doc))
        for command in ("riccati", "connective", "smallgain"):
            assert main([command, str(cfg)]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == ("error: config.edges[0]: edge b->a: give a coupling "
                                    "matrix A or a norm_bound, not neither\n")

    @pytest.mark.parametrize("value", list(NOT_NUMBERS))
    @pytest.mark.parametrize("field", list(NUMBER_FIELDS))
    def test_not_a_finite_number_one_line_error(self, field, value, tmp_path, capsys):
        path, named = NUMBER_FIELDS[field]
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(_replaced(TOY_DOC, path, NOT_NUMBERS[value])))
        assert main(["riccati", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {named}: ")
        assert len(captured.err.splitlines()) == 1

    @pytest.mark.parametrize("sub", ["riccati", "connective", "smallgain", "simulate"])
    def test_int_beyond_double_one_line_error(self, sub, tmp_path, capsys):
        doc = _replaced(TOY_DOC, ("tuning", "gamma"), 10 ** 400)
        cfg = tmp_path / "big.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "big.csv"
        assert main([sub, str(cfg)] + (["--out", str(out)] if sub == "simulate" else [])) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err == ("error: config.tuning.gamma: not a numeric array "
                                "(int too large to convert to float)\n")

    def test_deeply_nested_document_one_line_error(self, tmp_path, capsys):
        # deeper than the JSON decoder's recursion limit
        cfg = tmp_path / "deep.json"
        cfg.write_text('{"subsystems": ' + "[" * 100000 + "]" * 100000 + "}")
        assert main(["riccati", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: config: not valid JSON (maximum recursion depth")
        assert len(captured.err.splitlines()) == 1

    def test_bound_only_key_ignored(self, tmp_path, capsys):
        # the edge is bound-only because it has no matrix, whatever the key says
        doc = json.loads(open(TOY, "rb").read())
        doc["edges"][0] = {"from": "b", "to": "a", "norm_bound": 0.1, "bound_only": False}
        doc["edges"][1]["bound_only"] = True
        cfg = tmp_path / "key.json"
        cfg.write_text(json.dumps(doc))
        net, _, _ = load_config(cfg)
        assert net.in_edges("a")[0].A is None
        assert net.in_edges("b")[0].A is not None
        assert main(["riccati", str(cfg)]) == 0
        assert json.loads(capsys.readouterr().out)["verdict"] == "certified"

    def test_unallocatable_step_count_one_line_error(self, tmp_path, capsys):
        # numpy refuses 1e300 steps without allocating anything
        doc = json.loads(open(TOY, "rb").read())
        doc["scenario"].update(horizon=1.0, dt=1e-300)
        cfg = tmp_path / "steps.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "steps.csv"
        assert main(["simulate", str(cfg), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: scenario needs 1e+300 steps of dt 1e-300: "
                                "the state history cannot be allocated\n")
        assert not out.exists()

    @pytest.mark.parametrize("cmd", ["riccati", "simulate"])
    def test_infinite_step_count_one_line_error(self, cmd, tmp_path, capsys):
        # horizon / dt overflows to inf before any step count is rounded
        doc = json.loads(open(TOY, "rb").read())
        doc["scenario"].update(horizon=1e300, dt=1e-300)
        cfg = tmp_path / "steps.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "steps.csv"
        assert main([cmd, str(cfg)] + (["--out", str(out)] if cmd == "simulate" else [])) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err == ("error: config.scenario: horizon 1e+300 is not a finite, "
                                "whole number of steps of dt 1e-300\n")

    def test_network_maps_read_only_after_load(self):
        net, _, _ = load_config(TOY)
        with pytest.raises(TypeError):
            net.desired["a"] = np.eye(2)
        assert certify(net).certified


def _field_paths(node, prefix=()):
    """The key/index path of every field of a JSON document, nested ones too."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    paths = []
    for key, child in items:
        paths.append(prefix + (key,))
        if isinstance(child, (dict, list)):
            paths += _field_paths(child, prefix + (key,))
    return paths


TOY_DOC = json.loads(open(TOY, "rb").read())
GAIN_BLOCKS = {"A_nominal": [[0.0]], "K_x": [[2.0]], "K_xi": [[1.0]]}
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=4) | st.floats()
    | st.integers(min_value=2 ** 1024) | st.integers(max_value=-(2 ** 1024)),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=10,
) | st.lists(st.lists(st.booleans() | st.floats(-2.0, 2.0), min_size=1, max_size=3),
             min_size=1, max_size=3)  # booleans among numbers, as in [[true, 0.0]]


SIM_DOC = json.loads(json.dumps(TOY_DOC))
SIM_DOC["scenario"]["horizon"] = 0.01
SIM_PATHS = [p for p in _field_paths(SIM_DOC)
             if p not in (("scenario", "horizon"), ("scenario", "dt"))]


VERDICTS = {"riccati": ("certified", "not-certified"), "connective": ("pass", "fail"),
            "smallgain": ("pass", "fail")}


@st.composite
def whole_documents(draw):
    """A valid document: 1-4 subsystems of random n, m and q, A known or null;
    tuning and reference model shared or per subsystem, the model explicit or
    as gain blocks; edges as matrices or norm bounds.  Hypothesis draws the
    structure, a seeded generator the numbers.  A shared section makes every
    subsystem the same size, and shared gain blocks the same B and C, so
    each assembled model is Hurwitz by construction."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    N = draw(st.integers(1, 4))
    shared_tuning, shared_model, gain_blocks = (draw(st.booleans()) for _ in range(3))

    def size():
        n = draw(st.integers(1, 3))
        q = draw(st.integers(1, min(n, 2) if gain_blocks else 2))  # C B of full row rank q
        return n, draw(st.integers(q if gain_blocks else 1, 3)), q

    def tuning(p):
        L = rng.normal(size=(p, p))
        return {"Q": (L @ L.T + p * np.eye(p)).tolist(), "gamma": rng.uniform(0.5, 30.0),
                "theta_max": rng.uniform(0.0, 3.0), "eps0": rng.uniform(0.01, 1.0)}

    def model(B, C):
        (n, m), q = B.shape, C.shape[0]
        if not gain_blocks:
            return random_hurwitz(rng, n + q).tolist()
        # [[-a I, B K_xi], [-C, 0]] with C B K_xi = c I: eigenvalues -a and
        # the roots of s^2 + a s + c
        K_x = rng.normal(size=(m, n))
        return {"A_nominal": (B @ K_x - rng.uniform(1.0, 5.0) * np.eye(n)).tolist(),
                "K_x": K_x.tolist(),
                "K_xi": (rng.uniform(0.05, 0.5) * np.linalg.pinv(C @ B)).tolist()}

    sizes = [size()] * N if shared_tuning or shared_model else [size() for _ in range(N)]
    ids, subs, BC = [f"s{k}" for k in range(N)], [], None
    for sid, (n, m, q) in zip(ids, sizes):
        if BC is None or not (shared_model and gain_blocks):
            BC = rng.normal(size=(n, m)), rng.normal(size=(q, n))
        sub = {"id": sid, "A": rng.normal(size=(n, n)).tolist() if draw(st.booleans()) else None,
               "B": BC[0].tolist(), "C": BC[1].tolist()}
        if draw(st.booleans()):
            sub["E"] = rng.normal(size=(n, draw(st.integers(1, 2)))).tolist()
        if not shared_tuning:
            sub["tuning"] = tuning(n + q)
        if not shared_model:
            sub["reference_model"] = model(*BC)
        subs.append(sub)
    doc = {"subsystems": subs, "edges": []}
    if shared_tuning:
        doc["tuning"] = tuning(n + q)  # every subsystem's size
    if shared_model:
        doc["reference_model"] = model(*BC)
    for (src, (n_src, _, _)), (dst, (n_dst, _, _)) in itertools.permutations(zip(ids, sizes), 2):
        if draw(st.booleans()):
            scale = rng.uniform(0.01, 2.0)
            edge = ({"A": (scale * rng.normal(size=(n_dst, n_src))).tolist()}
                    if draw(st.booleans()) else {"norm_bound": scale})
            doc["edges"].append({"from": src, "to": dst, **edge})
    return doc


class TestConfigFuzz:
    # about 200 examples per command
    @settings(max_examples=600, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(command=st.sampled_from(sorted(VERDICTS)), path=st.sampled_from(_field_paths(TOY_DOC)),
           value=JSON_VALUES)
    def test_one_field_replaced(self, command, path, value, tmp_path, capsys):
        doc = _replaced(TOY_DOC, path, value)
        cfg = tmp_path / "fuzz.json"
        cfg.write_text(json.dumps(doc))
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main([command, str(cfg)])
        assert not caught, [str(w.message) for w in caught]
        captured = capsys.readouterr()
        assert rc in (0, 1, 2)
        if rc == 1:
            assert captured.out == ""
            assert captured.err.startswith("error: ")
            assert len(captured.err.splitlines()) == 1
        else:
            assert json.loads(captured.out)["verdict"] in VERDICTS[command]

    # about 100 examples per mode; horizon and dt keep their short-run
    # values, since large valid ones mean long runs, not errors
    @settings(max_examples=200, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(mode=st.sampled_from(["dec", "dist"]), path=st.sampled_from(SIM_PATHS),
           value=JSON_VALUES)
    def test_one_field_replaced_simulate(self, mode, path, value, tmp_path, capsys):
        doc = _replaced(SIM_DOC, path, value)
        cfg, out = tmp_path / "fuzz.json", tmp_path / "fuzz.csv"
        cfg.write_text(json.dumps(doc))
        out.unlink(missing_ok=True)
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["simulate", str(cfg), "--mode", mode, "--out", str(out)])
        assert not caught, [str(w.message) for w in caught]
        captured = capsys.readouterr()
        assert rc in (0, 1, 3)
        if rc == 1:
            assert captured.out == ""
            assert captured.err.startswith("error: ")
            assert len(captured.err.splitlines()) == 1
        else:
            report = json.loads(captured.out)
            assert report["metrics"]["diverged"] is (rc == 3)
            assert out.exists()

    # whole documents: each certification command ends in a report (exit 0
    # or 2) or in one error line (exit 1), and a second run repeats its bytes
    @settings(max_examples=30, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(doc=whole_documents())
    def test_whole_generated_document(self, doc, tmp_path, capsys):
        parse_config(doc)  # the strategy builds valid documents
        cfg = tmp_path / "whole.json"
        cfg.write_text(json.dumps(doc))
        for command in sorted(VERDICTS):
            runs = []
            for _ in range(2):
                capsys.readouterr()
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    rc = main([command, str(cfg)])
                assert not caught, [str(w.message) for w in caught]
                runs.append((rc, *capsys.readouterr()))
            assert runs[1] == runs[0]
            rc, out, err = runs[0]
            if rc == 1:
                assert out == "" and err.startswith("error: ") and len(err.splitlines()) == 1
            else:
                assert rc in (0, 2) and err == ""
                assert json.loads(out)["verdict"] == VERDICTS[command][rc // 2]


class TestDeterminism:
    @pytest.mark.parametrize("command,config", [
        ("connective", DC), ("connective", WEAK), ("connective", TOY),
        ("riccati", DC), ("riccati", TOY), ("riccati", MESH),
        ("smallgain", DC), ("smallgain", WEAK),
    ])
    def test_reports_byte_identical(self, command, config, capsys):
        main([command, config])
        first = capsys.readouterr().out
        main([command, config])
        second = capsys.readouterr().out
        assert first == second
        assert first.strip()

    def test_trace_byte_identical(self, tmp_path, capsys):
        out1, out2 = tmp_path / "t1.csv", tmp_path / "t2.csv"
        main(["simulate", TOY, "--mode", "dist", "--out", str(out1)])
        rep1 = capsys.readouterr().out
        main(["simulate", TOY, "--mode", "dist", "--out", str(out2)])
        rep2 = capsys.readouterr().out
        assert out1.read_bytes() == out2.read_bytes()
        # the report embeds the trace path, which differs; compare the rest
        assert rep1.replace("t1.csv", "X") == rep2.replace("t2.csv", "X")
