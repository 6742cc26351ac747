import hashlib
import json
import math
import os
import shlex
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import bootperc
from bootperc import cli
from bootperc.cli import build_parser, main

SPEC_07 = {"rule": "power", "constants": {"beta": 0.7}, "r": 2, "alpha": 2.0}


def run(tmp_path, args, name="out.txt"):
    out = tmp_path / name
    code = main(args + ["--out", str(out)])
    return code, (out.read_text() if out.exists() else "")


def write_spec(tmp_path, doc):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    return str(path)


# ---------------------------------------------------------------------------
# happy paths

def test_critical_values(tmp_path):
    code, text = run(tmp_path, ["critical", "--n", "10000", "--p", "0.001",
                                "--r", "2"])
    assert code == 0
    doc = json.loads(text)
    assert float(doc["result"]["t_c"]) == pytest.approx(100.0, rel=1e-9)
    assert float(doc["result"]["a_c"]) == pytest.approx(50.0, rel=1e-9)
    assert doc["config"]["n"] == 10000


def test_regime_command(tmp_path):
    spec = write_spec(tmp_path, SPEC_07)
    code, text = run(tmp_path, ["regime", "--spec", spec])
    assert code == 0
    assert json.loads(text)["result"]["regime"] == "bc_vanishes/acnp_diverges"


def test_rate_command_matches_library(tmp_path):
    from bootperc.ratefun import minimize_rate
    code, text = run(tmp_path, ["rate", "--alpha", "2", "--r", "2"])
    assert code == 0
    doc = json.loads(text)
    x0, j0 = minimize_rate(2.0, 2)
    assert float(doc["result"]["x0"]) == pytest.approx(x0, abs=1e-9)
    assert float(doc["result"]["J_x0"]) == pytest.approx(j0, rel=1e-12)


def test_rate_curve_is_monotone_past_the_minimum(tmp_path):
    curve = tmp_path / "curve.csv"
    code = main(["rate", "--alpha", "2", "--r", "2", "--curve-out", str(curve),
                 "--curve-points", "120", "--out", str(tmp_path / "o.json")])
    assert code == 0
    rows = [line.split(",") for line in curve.read_text().splitlines()[1:]]
    xs = [float(a) for a, _ in rows]
    js = [float(b) for _, b in rows]
    past = [j for x, j in zip(xs, js) if x > 1.0]  # alpha/r = 1
    assert all(b > a for a, b in zip(past, past[1:]))


def test_simulate_histogram_p_zero(tmp_path):
    code, text = run(tmp_path, ["simulate", "--sampler", "markchain",
                                "--n", "6", "--p", "0", "--r", "2", "--a", "3",
                                "--replicates", "500", "--seed", "4"])
    assert code == 0
    lines = text.strip().splitlines()
    assert lines[0].startswith("# config ")
    assert lines[1] == "final_size,count"
    assert lines[2] == "3,500"


_SIMULATE = ["simulate", "--sampler", "markchain", "--n", "12", "--p", "0.15",
             "--r", "2", "--a", "2", "--replicates", "400", "--seed", "3"]
_SIMULATE_CONFIG = (
    '{"a": 2, "command": "simulate", "emit": "histogram", "format": "%s", '
    '"n": 12, "p": 0.15, "r": 2, "replicates": 400, "sampler": "markchain", '
    '"seed": 3, "stream": 0}')


@pytest.mark.parametrize("fmt,expected", [
    ("csv", "# config " + _SIMULATE_CONFIG % "csv" + "\nfinal_size,count\n"
     "2,326\n3,56\n4,10\n5,1\n6,3\n7,2\n8,1\n10,1\n"),
    ("json", '{"config": ' + _SIMULATE_CONFIG % "json" + ', "result": '
     '{"histogram": {"10": 1, "2": 326, "3": 56, "4": 10, "5": 1, "6": 3, '
     '"7": 2, "8": 1}, "replicates": 400}}\n')])
def test_simulate_histogram_stdout_is_pinned(fmt, expected, capsys):
    # rows ascend by final size; JSON keys sort as strings
    assert main(_SIMULATE + ["--format", fmt]) == 0
    assert capsys.readouterr().out == expected


def test_simulate_rows_emission(tmp_path):
    code, text = run(tmp_path, ["simulate", "--sampler", "activation",
                                "--n", "6", "--p", "0.4", "--r", "2", "--a", "2",
                                "--replicates", "3", "--seed", "4",
                                "--emit", "rows"])
    assert code == 0
    lines = text.strip().splitlines()
    assert lines[1] == "replicate,final_size,stop_time"
    assert len(lines) == 5


def test_exact_pmf_csv_normalizes(tmp_path):
    code, text = run(tmp_path, ["exact", "--n", "6", "--p", "0.4", "--r", "2",
                                "--a", "2"])
    assert code == 0
    rows = [line.split(",") for line in text.strip().splitlines()[2:]]
    total = sum(float(p) for _, p, _ in rows)
    assert total == pytest.approx(1.0, abs=1e-9)
    assert rows[0][0] == "2"


def test_exact_truncate_value(tmp_path):
    code, text = run(tmp_path, ["exact", "--n", "6", "--p", "0.4", "--r", "2",
                                "--a", "2", "--truncate", "3"])
    assert code == 0
    doc = json.loads(text)
    from bootperc.core import ModelParams
    from bootperc.oracle import exact_stop_cdf
    want = float(exact_stop_cdf(ModelParams(n=6, p=0.4, r=2, a=2), 3))
    assert float(doc["result"]["prob"]) == pytest.approx(want, rel=1e-12)


def test_exact_truncate_below_seeds_is_zero(tmp_path):
    code, text = run(tmp_path, ["exact", "--n", "6", "--p", "0.4", "--r", "2",
                                "--a", "4", "--truncate", "2"])
    assert code == 0
    assert float(json.loads(text)["result"]["prob"]) == 0.0


def test_r_of_n_or_more_keeps_only_the_seeds(tmp_path):
    # no node hears r >= n others, so A* = a with no draw and no DP; an r of
    # 31 digits would size an array by r or loop r - 1 times
    model = ["--n", "50", "--p", "0.1", "--r", "1" + "0" * 30, "--a", "3"]
    for sampler in ("markchain", "leap", "activation"):
        code, text = run(tmp_path, ["simulate", "--sampler", sampler,
                                    "--replicates", "20"] + model)
        assert code == 0, sampler
        assert text.strip().splitlines()[1:] == ["final_size,count", "3,20"]
    code, text = run(tmp_path, ["tail", "estimate", "--splitting", "--tau",
                                "3", "--replicates", "40"] + model)
    assert code == 0 and json.loads(text)["result"]["p_hat"] == 1.0
    code, text = run(tmp_path, ["exact"] + model)
    rows = [line.split(",") for line in text.strip().splitlines()[2:]]
    assert code == 0 and [k for k, p, _ in rows if float(p)] == ["3"]
    code, text = run(tmp_path, ["exact", "--truncate", "10"] + model)
    assert code == 0 and json.loads(text)["result"]["prob"] == 1.0


def test_exact_cap_refuses_both_paths(tmp_path):
    # a 1e6-state truncated pass is refused up front with exit code 2
    assert run(tmp_path, ["exact", "--n", "1000000", "--p", "1e-3", "--r", "2",
                          "--a", "5", "--truncate", "1000000"])[0] == 2
    small = ["exact", "--n", "200", "--p", "0.05", "--r", "2", "--a", "5"]
    assert run(tmp_path, small + ["--truncate", "150", "--cap", "100"])[0] == 2
    assert run(tmp_path, small + ["--truncate", "150"])[0] == 0
    assert run(tmp_path, small + ["--cap", "100"])[0] == 2


def test_tail_predict(tmp_path):
    spec = write_spec(tmp_path, SPEC_07)
    code, text = run(tmp_path, ["tail", "predict", "--spec", spec,
                                "--n", "100000", "--family", "between_acnp_n",
                                "--eps", "0.5"])
    assert code == 0
    doc = json.loads(text)["result"]
    assert doc["table_row"] == "table3/col4"
    assert float(doc["speed_at_n"]) == pytest.approx(50.0, rel=1e-6)


# one spec per regime label, with a family whose cell that label has
PINNED_SPECS = [
    ({"rule": "scaled_log", "constants": {"c": 0.5}, "r": 2, "alpha": 2.0},
     "asym_bc:1.0", "2.0"),
    ({"rule": "log_form", "constants": {"d": -math.log(2)}, "r": 2,
      "alpha": 2.0}, "asym_acnp:1.0", "0.5"),
    (SPEC_07, "const:2.0", "0.5"),
    ({"rule": "power", "constants": {"c": 1.0, "beta": 2 / 3}, "r": 2,
      "alpha": 2.0}, "const:1.0", "0.5"),
    ({"rule": "power", "constants": {"beta": 0.6}, "r": 2, "alpha": 2.0},
     "const:1.0", "0.5"),
]
_REGIME_ECHO = '{"config": {"command": "regime", "format": "json", ' \
    '"spec": "spec.json"}, "result": '
_PREDICT_ECHO = '{"config": {"command": "tail", "eps": %s, "family": "%s", ' \
    '"format": "json", "levels": 4, "method": "exact_dp", "mode": "predict", ' \
    '"n": 10000, "replicates": 10000, "seed": 0, "spec": "spec.json", ' \
    '"splitting": false, "stream": 0}, "result": '
PINNED_REGIME = [
    '{"regime": "bc_diverges"}}',
    '{"b": 2.0, "regime": "bc_finite"}}',
    '{"regime": "bc_vanishes/acnp_diverges"}}',
    '{"gamma": 0.5, "regime": "bc_vanishes/acnp_finite"}}',
    '{"regime": "bc_vanishes/acnp_vanishes"}}',
]
PINNED_PREDICT = [
    '{"eps": 2.0, "log_base": "e", "log_prob_prediction": -177.89512748446396, '
    '"n": 10000, "rate_at_eps": 0.3862943611198906, "regime": "bc_diverges", '
    '"speed_at_n": 460.51701859880967, "table_row": "table1/col1"}}',
    '{"eps": 0.5, "log_base": "e", "log_prob_prediction": -19.013930858669095, '
    '"n": 10000, "rate_at_eps": 0.4384397054898949, "regime": "bc_finite", '
    '"speed_at_n": 43.36726491827124, "table_row": "table2/col2"}}',
    '{"eps": 0.5, "log_base": "e", "log_prob_prediction": -3.8754894410421006, '
    '"n": 10000, "rate_at_eps": 1.0, "regime": "bc_vanishes/acnp_diverges", '
    '"speed_at_n": 3.8754894410421006, "table_row": "table3/col1"}}',
    '{"eps": 0.5, "log_base": "e", "log_prob_prediction": -4.722948554973954, '
    '"n": 10000, "rate_at_eps": 0.4384397054898949, "regime": '
    '"bc_vanishes/acnp_finite", "speed_at_n": 10.772173450159402, '
    '"table_row": "table4/col1"}}',
    '{"eps": 0.5, "log_base": "e", "log_prob_prediction": -1.3831837614529097, '
    '"n": 10000, "rate_at_eps": 0.4384397054898949, "regime": '
    '"bc_vanishes/acnp_vanishes", "speed_at_n": 3.1547867224009645, '
    '"table_row": "table5/col1"}}',
]


@pytest.mark.parametrize("case", range(len(PINNED_SPECS)))
def test_regime_and_predict_stdout_is_pinned(case, tmp_path, monkeypatch,
                                             capsys):
    spec, family, eps = PINNED_SPECS[case]
    monkeypatch.chdir(tmp_path)
    write_spec(tmp_path, spec)
    assert main(["regime", "--spec", "spec.json"]) == 0
    assert capsys.readouterr().out == _REGIME_ECHO + PINNED_REGIME[case] + "\n"
    assert main(["tail", "predict", "--spec", "spec.json", "--n", "10000",
                 "--family", family, "--eps", eps]) == 0
    assert capsys.readouterr().out == \
        _PREDICT_ECHO % (eps, family) + PINNED_PREDICT[case] + "\n"


_SMALL_EXACT = ["--n", "12", "--p", "0.2", "--r", "2", "--a", "3"]
_SMALL_EXACT_CONFIG = '"a": 3, "cap": 5000, "command": "exact", ' \
    '"format": "%s", "n": 12, "p": 0.2, "r": 2'
_SMALL_PMF_ROWS = [
    "3,0.37219633039002703,-1.4258642634403469",
    "4,0.18984335389017967,-2.3971186014742774",
    "5,0.11421124618637039,-3.1302233774750108",
    "6,0.080135714671129593,-3.6414108273483179",
    "7,0.063073794869778252,-3.9868154534087288",
    "8,0.053517587572699435,-4.2238431050985135",
    "9,0.046710183034076036,-4.4201190914181119",
    "10,0.039215218709681171,-4.6724425431872589",
    "11,0.028139248007873135,-5.1512724152091076",
    "12,0.01295732266818511,-6.2700885404071647",
]
_SMALL_PMF_JSON = (
    '"result": {"log2_probs": {"10": -4.672442543187259, '
    '"11": -5.151272415209108, "12": -6.270088540407165, '
    '"3": -1.425864263440347, "4": -2.3971186014742774, '
    '"5": -3.130223377475011, "6": -3.641410827348318, '
    '"7": -3.986815453408729, "8": -4.2238431050985135, '
    '"9": -4.420119091418112}, "probs": {"10": 0.03921521870968117, '
    '"11": 0.028139248007873135, "12": 0.01295732266818511, '
    '"3": 0.37219633039002703, "4": 0.18984335389017967, '
    '"5": 0.1142112461863704, "6": 0.0801357146711296, '
    '"7": 0.06307379486977825, "8": 0.053517587572699435, '
    '"9": 0.046710183034076036}, "truncation_bound": 0.0}}')
_STUDY_CONFIG = (
    '"command": "tail", "eps": 0.5, "family": "between_acnp_n", '
    '"format": "json", "ladder": "1000,10000", "levels": 4, '
    '"method": "exact_dp", "mode": "study", "replicates": 10000, "seed": 0, '
    '"spec": "spec.json", "splitting": false, "stream": 0')
PINNED_STDOUT = [
    (["exact"] + _SMALL_EXACT,
     "# config {" + _SMALL_EXACT_CONFIG % "csv" + "}\nk,prob,log2_prob\n"
     + "".join(row + "\n" for row in _SMALL_PMF_ROWS)),
    (["exact"] + _SMALL_EXACT + ["--format", "json"],
     '{"config": {' + _SMALL_EXACT_CONFIG % "json" + "}, "
     + _SMALL_PMF_JSON + "\n"),
    (["exact"] + _SMALL_EXACT + ["--truncate", "6"],
     '{"config": {' + _SMALL_EXACT_CONFIG % "csv" + ', "truncate": 6}, '
     '"result": {"ln_prob": -0.2792025981737603, '
     '"log2_prob": -0.40280420378859794, "log_base": "e_and_2", '
     '"prob": 0.7563866451377067, "tau": 6}}\n'),
    (["tail", "estimate", "--n", "200", "--p", "0.05", "--r", "2", "--a", "5",
      "--splitting", "--tau", "12", "--replicates", "800", "--seed", "7"],
     '{"config": {"a": 5, "command": "tail", "format": "json", "levels": 4, '
     '"method": "exact_dp", "mode": "estimate", "n": 200, "p": 0.05, '
     '"r": 2, "replicates": 800, "seed": 7, "splitting": true, '
     '"stream": 0, "tau": 12}, "result": {"ci_high": 0.024669988247364598, '
     '"ci_low": 0.013566243292102877, "log_base": "e", '
     '"log_p_hat": -3.987352877643938, "p_hat": 0.01854874999999999, '
     '"replicates": 800}}\n'),
    (["tail", "study", "--spec", "spec.json", "--family", "between_acnp_n",
      "--eps", "0.5", "--ladder", "1000,10000", "--method", "exact_dp"],
     "# config {" + _STUDY_CONFIG + "}\n"
     "n,v_n,p_hat,log_p,normalized,target\n"
     "1000,7.9244659623055611,0.077758498668899917,-2.5541474262578538,"
     "-0.32231161549651538,-0.43843970548989492\n"
     "10000,19.905358527674842,0.00055807989299975233,-7.4910084284129601,"
     "-0.37633124859308875,-0.43843970548989492\n"),
]


@pytest.mark.parametrize("case", range(len(PINNED_STDOUT)))
def test_exact_and_tail_stdout_is_pinned(case, tmp_path, monkeypatch, capsys):
    args, expected = PINNED_STDOUT[case]
    monkeypatch.chdir(tmp_path)
    write_spec(tmp_path, SPEC_07)
    assert main(args) == 0
    assert capsys.readouterr().out == expected


def test_deep_tail_pmf_stdout_is_pinned(capsys):
    # atoms from k = 32 on lie below the smallest subnormal double: the
    # prob column reads 0 while log2_prob stays finite
    assert main(["exact", "--n", "200", "--p", "0.2", "--r", "2",
                 "--a", "4"]) == 0
    out = capsys.readouterr().out
    assert len(out.splitlines()) == 199
    assert "\n32,0,-1086.1541125115264\n" in out
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "608346f690be4bbdd3242344cad64571fa136dba54a0381937d52250eef5e795"


_FAMILY_PREDICT_CONFIG = (
    '{"config": {"command": "tail", "eps": 0.5, "family": "%s", '
    '"format": "json", "levels": 4, "method": "exact_dp", "mode": "predict", '
    '"n": %s, "replicates": 10000, "seed": 0, "spec": "spec.json", '
    '"splitting": false, "stream": 0}, "result": ')
# the two between_* families in predict, and a threshold reached through
# the family's f(n) in estimate; n = 1e10 in the first case because that
# cell's speed is still negative at n <= 1e8
PINNED_FAMILY_STDOUT = [
    ({"rule": "scaled_log", "constants": {"c": 0.5}, "r": 2, "alpha": 2.0},
     ["tail", "predict", "--spec", "spec.json", "--n", "10000000000",
      "--family", "between_bc_acnp:0.3", "--eps", "0.5"],
     _FAMILY_PREDICT_CONFIG % ("between_bc_acnp:0.3", "10000000000")
     + '{"eps": 0.5, "log_base": "e", "log_prob_prediction": '
     '-247191.7535057952, "n": 10000000000, "rate_at_eps": 0.5, '
     '"regime": "bc_diverges", "speed_at_n": 494383.5070115904, '
     '"table_row": "table1/col2"}}\n'),
    (SPEC_07,
     ["tail", "predict", "--spec", "spec.json", "--n", "10000",
      "--family", "between_acnp_n:0.5", "--eps", "0.5"],
     _FAMILY_PREDICT_CONFIG % ("between_acnp_n:0.5", "10000")
     + '{"eps": 0.5, "log_base": "e", "log_prob_prediction": '
     '-8.727299530544526, "n": 10000, "rate_at_eps": 0.4384397054898949, '
     '"regime": "bc_vanishes/acnp_diverges", "speed_at_n": '
     '19.905358527674842, "table_row": "table3/col4"}}\n'),
    (SPEC_07,
     ["tail", "estimate", "--n", "6", "--p", "0.4", "--r", "2", "--a", "2",
      "--family", "const:1.0", "--eps", "1.5", "--replicates", "5000",
      "--seed", "3", "--stream", "9"],
     '{"config": {"a": 2, "command": "tail", "eps": 1.5, "family": '
     '"const:1.0", "format": "json", "levels": 4, "method": "exact_dp", '
     '"mode": "estimate", "n": 6, "p": 0.4, "r": 2, "replicates": 5000, '
     '"seed": 3, "splitting": false, "stream": 9}, "result": {"ci_high": '
     '0.7955781055106957, "ci_low": 0.7727852256229558, "log_base": "e", '
     '"log_p_hat": -0.24283618465994586, "p_hat": 0.7844, '
     '"replicates": 5000}}\n'),
]


@pytest.mark.parametrize("case", range(len(PINNED_FAMILY_STDOUT)))
def test_family_stdout_is_pinned(case, tmp_path, monkeypatch, capsys):
    spec, args, expected = PINNED_FAMILY_STDOUT[case]
    monkeypatch.chdir(tmp_path)
    write_spec(tmp_path, spec)
    assert main(args) == 0
    assert capsys.readouterr().out == expected


def test_tail_estimate_and_note_on_zero_hits(tmp_path):
    code, text = run(tmp_path, ["tail", "estimate", "--n", "6", "--p", "0.4",
                                "--r", "2", "--a", "2", "--family", "const:1.0",
                                "--eps", "1.5", "--replicates", "2000",
                                "--seed", "3"])
    assert code == 0
    doc = json.loads(text)["result"]
    assert 0.5 < float(doc["p_hat"]) < 1.0
    code, text = run(tmp_path, ["tail", "estimate", "--n", "30", "--p", "0.4",
                                "--r", "2", "--a", "12", "--family", "const:1.0",
                                "--eps", "25", "--replicates", "1000",
                                "--seed", "3"], name="zero.json")
    doc = json.loads(text)["result"]
    assert doc["p_hat"] == "0.0" or float(doc["p_hat"]) == 0.0
    assert "splitting" in doc.get("note", "")


def test_tail_study_csv(tmp_path):
    spec = write_spec(tmp_path, SPEC_07)
    code, text = run(tmp_path, ["tail", "study", "--spec", spec,
                                "--family", "between_acnp_n", "--eps", "0.5",
                                "--ladder", "1000,10000", "--method", "exact_dp"])
    assert code == 0
    lines = text.strip().splitlines()
    assert lines[1] == "n,v_n,p_hat,log_p,normalized,target"
    assert len(lines) == 4


def test_tail_study_passes_levels_on(tmp_path):
    from bootperc.core import SequenceSpec
    from bootperc.montecarlo import rate_convergence_study
    from bootperc.process import RngSpec
    from bootperc.ratefun import ScalingFamily
    spec = write_spec(tmp_path, SPEC_07)
    code, text = run(tmp_path, ["tail", "study", "--spec", spec,
                                "--family", "between_acnp_n", "--eps", "0.5",
                                "--ladder", "2000", "--method", "splitting",
                                "--levels", "2", "--replicates", "2000",
                                "--seed", "5"])
    assert code == 0
    got = [[float(v) for v in line.split(",")]
           for line in text.strip().splitlines()[2:]]
    rows = rate_convergence_study(
        SequenceSpec(**SPEC_07), ScalingFamily("between_acnp_n"), 0.5,
        [2000],
        method="splitting", replicates=2000, rng=RngSpec(5, 0), levels=2)
    assert got == [[r.n, r.v_n, r.p_hat, r.log_p, r.normalized, r.target]
                   for r in rows]


def test_tail_study_cap_works_like_exact_cap(tmp_path):
    spec = write_spec(tmp_path, SPEC_07)
    study = ["tail", "study", "--spec", spec, "--family", "const:2.0",
             "--eps", "0.5"]
    # the full event at n = 1e4 needs 9960 chain states: the default cap
    # still refuses it
    assert run(tmp_path, study + ["--ladder", "10000"])[0] == 2
    # at n = 600 that cell's speed is negative, so the small ladder runs
    # the table4/col1 const cell, a full event with a positive speed
    spec = write_spec(tmp_path, {"rule": "power", "constants": {
        "c": 1.0, "beta": 2 / 3}, "r": 2, "alpha": 2.0})
    study = ["tail", "study", "--spec", spec, "--family", "const:1.0",
             "--eps", "0.5"]
    assert run(tmp_path, study + ["--ladder", "600", "--cap", "100"])[0] == 2
    code, capped = run(tmp_path, study + ["--ladder", "600", "--cap", "600"])
    assert code == 0 and '"cap": 600' in capped.splitlines()[0]
    _, default = run(tmp_path, study + ["--ladder", "600"])
    assert '"cap"' not in default.splitlines()[0]
    assert capped.splitlines()[1:] == default.splitlines()[1:]
    # the other tail commands never read a cap, so they refuse one
    assert run(tmp_path, study + ["--ladder", "600", "--cap", "600",
                                  "--method", "splitting"])[0] == 2
    assert run(tmp_path, ["tail", "estimate", "--n", "200", "--p", "0.01",
                          "--r", "2", "--a", "5", "--splitting", "--tau",
                          "10", "--cap", "600"])[0] == 2


def test_tail_refuses_method_and_tau_where_unread(tmp_path, capsys):
    # like --cap: a flag the command would ignore is refused, not echoed
    model = ["--n", "200", "--p", "0.05", "--r", "2", "--a", "5"]
    naive = ["tail", "estimate"] + model + ["--family", "const:1.0",
                                            "--eps", "0.5"]
    spec = write_spec(tmp_path, SPEC_07)
    predict = ["tail", "predict", "--spec", spec, "--n", "1000",
               "--family", "between_acnp_n", "--eps", "0.5"]
    for argv in (naive, predict):
        for flags in (["--method", "splitting"], ["--tau", "12"]):
            assert run(tmp_path, argv + flags)[0] == 2, argv + flags
        code, text = run(tmp_path, argv + ["--method", "exact_dp"])
        assert code == 0 and json.loads(text)["result"]
    splitting = ["tail", "estimate"] + model + ["--splitting", "--tau", "12",
                                                "--replicates", "80"]
    assert run(tmp_path, splitting + ["--method", "splitting"])[0] == 2
    assert run(tmp_path, splitting)[0] == 0
    study = ["tail", "study", "--spec", spec, "--family", "between_acnp_n",
             "--eps", "0.5", "--ladder", "1000"]
    assert run(tmp_path, study + ["--tau", "12"])[0] == 2
    assert run(tmp_path, study)[0] == 0
    # every flag a run does not read, set away from its default
    assert run(tmp_path, predict + ["--levels", "9", "--splitting",
                                    "--replicates", "7", "--seed", "4"])[0] \
        == 2
    assert run(tmp_path, splitting + ["--family", "const:1", "--eps", "9"])[0] \
        == 2
    value = {"--spec": spec, "--n": "1000", "--p": "0.05", "--r": "2",
             "--a": "5", "--family": "const:1.0", "--eps": "0.5",
             "--replicates": "7", "--ladder": "1000", "--tau": "12",
             "--levels": "9", "--seed": "4",
             "--stream": "1", "--format": "csv", "--cap": "600"}
    unread = {
        "predict": (predict, "--p --r --a --replicates --ladder --tau "
                    "--levels --seed --stream --format --cap --splitting"),
        "estimate": (naive, "--spec --ladder --tau --levels --format --cap"),
        "estimate --splitting": (splitting, "--spec --family --eps --ladder "
                                 "--format --cap"),
        "study --method exact_dp": (study, "--n --p --r --a --replicates "
                                    "--tau --levels --seed --stream --format "
                                    "--splitting"),
        "study --method splitting": (study + ["--method", "splitting"],
                                     "--cap"),
    }
    capsys.readouterr()
    for kind, (argv, flags) in unread.items():
        for flag in flags.split():
            extra = [flag] if flag == "--splitting" else [flag, value[flag]]
            assert main(argv + extra + ["--out", str(tmp_path / "x")]) == 2
            assert capsys.readouterr().err == \
                f"error: tail {kind} does not read {flag}\n"
    assert not (tmp_path / "x").exists()


def test_tail_runs_name_only_tail_flags():
    # cmd_tail reads each name with getattr, so a name without a flag
    # would end in an AttributeError, or be ignored without a word
    dests = vars(build_parser().parse_args(["tail", "predict"])).keys() \
        - {"config", "command", "func"}
    for kind, names in cli._TAIL_RUNS.items():
        for name in " ".join(names).split():
            assert name in dests, (kind, name)


def test_tail_names_the_flags_a_run_needs(tmp_path, capsys):
    out = str(tmp_path / "x.json")
    assert main(["tail", "predict", "--n", "1000", "--family",
                 "between_acnp_n", "--eps", "0.5", "--out", out]) == 2
    assert capsys.readouterr().err == "error: tail predict requires --spec\n"
    model = ["--n", "200", "--p", "0.05", "--r", "2", "--a", "5"]
    assert main(["tail", "estimate", "--splitting", "--out", out] + model) == 2
    assert capsys.readouterr().err == \
        "error: tail estimate --splitting requires --tau\n"
    assert main(["tail", "study", "--out", out]) == 2
    assert capsys.readouterr().err == "error: tail study --method exact_dp " \
        "requires --spec, --family, --eps, --ladder\n"


def test_a_format_the_run_does_not_print_is_refused(tmp_path, capsys):
    out = tmp_path / "x"
    spec = write_spec(tmp_path, SPEC_07)
    simulate = ["simulate", "--sampler", "leap", "--n", "10", "--p", "0.3",
                "--r", "2", "--a", "2", "--replicates", "3"]
    for argv, fmt, run_name, prints in (
            (["rate", "--alpha", "2", "--r", "2"], "csv", "rate", "json"),
            (["regime", "--spec", spec], "csv", "regime", "json"),
            (simulate + ["--emit", "rows"], "json", "simulate --emit rows",
             "csv")):
        assert main(argv + ["--format", fmt, "--out", str(out)]) == 2
        assert capsys.readouterr().err == \
            f"error: {run_name} prints {prints} only, not --format {fmt}\n"
        assert not out.exists()
        assert main(argv + ["--format", prints, "--out", str(out)]) == 0
        out.unlink()


def test_config_file_supplies_defaults(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 10000, "p": 0.001, "r": 2}))
    out = tmp_path / "o.json"
    code = main(["critical", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert float(doc["result"]["t_c"]) == pytest.approx(100.0, rel=1e-9)
    # the --config=PATH form reads the same file
    joined = tmp_path / "joined.json"
    assert main(["critical", f"--config={cfg}", "--out", str(joined)]) == 0
    assert joined.read_bytes() == out.read_bytes()
    # explicit flags win over config values
    code = main(["critical", "--config", str(cfg), "--p", "0.01",
                 "--out", str(out)])
    doc = json.loads(out.read_text())
    assert float(doc["result"]["t_c"]) == pytest.approx(1.0, rel=1e-9)


def test_config_flag_is_never_abbreviated(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 10000, "p": 0.001, "r": 2}))
    # --conf would reach the parser's own --config, which reads no file
    with pytest.raises(SystemExit) as exc:
        main(["--conf", str(cfg), "critical", "--n", "5", "--p", "0.1",
              "--r", "2"])
    assert exc.value.code == 2
    assert "usage:" in capsys.readouterr().err
    # both spellings of the whole flag, before the subcommand, read the file
    spaced, joined = tmp_path / "spaced.json", tmp_path / "joined.json"
    assert main(["--config", str(cfg), "critical", "--out", str(spaced)]) == 0
    assert main([f"--config={cfg}", "critical", "--out", str(joined)]) == 0
    assert joined.read_bytes() == spaced.read_bytes()
    assert json.loads(spaced.read_text())["config"]["n"] == 10000


def test_config_file_edge_cases(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    out = tmp_path / "o.json"
    cfg.write_text("[1, 2]")
    assert main(["critical", "--config", str(cfg), "--out", str(out)]) == 2
    assert "JSON object" in capsys.readouterr().err
    # no subcommand besides the config file
    cfg.write_text(json.dumps({"n": 10000, "p": 0.001, "r": 2}))
    assert main(["--config", str(cfg)]) == 2
    assert "subcommand" in capsys.readouterr().err
    # an empty path after --config=
    assert main(["critical", "--config=", "--out", str(out)]) == 2
    assert "needs a path" in capsys.readouterr().err
    # a true boolean becomes the bare flag, a false one is left out; the
    # file may follow `tail MODE`
    model = {"n": 200, "p": 0.05, "r": 2, "a": 5, "replicates": 80}
    cfg.write_text(json.dumps(model | {"splitting": True, "tau": 12}))
    assert main(["tail", "estimate", "--config", str(cfg),
                 "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["config"]["splitting"] is True and doc["config"]["tau"] == 12
    cfg.write_text(json.dumps(model | {"splitting": False,
                                       "family": "const:1.0", "eps": 0.5}))
    assert main(["tail", "estimate", "--config", str(cfg),
                 "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["config"]["splitting"] is False
    assert doc["config"]["family"] == "const:1.0"


def test_critical_csv(tmp_path):
    code, text = run(tmp_path, ["critical", "--n", "10000", "--p", "0.001",
                                "--r", "2", "--format", "csv"])
    assert code == 0
    config, header, row = text.splitlines()
    assert config.startswith("# config ") and '"format": "csv"' in config
    assert header == "t_c,a_c,b_c,b_c_prime,ln_b_c,ln_b_c_prime"
    values = dict(zip(header.split(","), map(float, row.split(","))))
    assert values["t_c"] == pytest.approx(100.0, rel=1e-9)
    assert values["a_c"] == pytest.approx(50.0, rel=1e-9)


def test_readme_cli_tour_parses():
    # every command of the README's CLI tour must still parse; the
    # commands are not run
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    tour = readme.split("## CLI tour", 1)[1].split("```sh\n", 1)[1]
    tour = tour.split("```", 1)[0].replace("\\\n", " ")
    commands = [shlex.split(line)[1:] for line in tour.splitlines()
                if line.startswith("bootperc ")]
    assert len(commands) >= 10
    for argv in commands:
        build_parser().parse_args(argv)


# ---------------------------------------------------------------------------
# determinism

def test_byte_identical_reruns(tmp_path):
    args_sets = [
        ["simulate", "--sampler", "graph", "--n", "6", "--p", "0.4", "--r", "2",
         "--a", "2", "--replicates", "2000", "--seed", "11"],
        ["exact", "--n", "12", "--p", "0.2", "--r", "2", "--a", "3"],
        ["rate", "--alpha", "1.5", "--r", "3"],
        ["tail", "estimate", "--n", "20", "--p", "0.2", "--r", "2", "--a", "4",
         "--family", "const:1.0", "--eps", "2.0", "--replicates", "3000",
         "--seed", "8"],
    ]
    for i, args in enumerate(args_sets):
        _, first = run(tmp_path, args, name=f"a{i}.txt")
        _, second = run(tmp_path, args, name=f"b{i}.txt")
        assert first == second and first


# ---------------------------------------------------------------------------
# exit codes

def test_exit_code_validation_errors(tmp_path):
    out = str(tmp_path / "x.json")
    assert main(["critical", "--n", "100", "--p", "0", "--r", "2",
                 "--out", out]) == 2
    assert main(["critical", "--n", "100", "--p", "0.5", "--r", "1",
                 "--out", out]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("nope")
    assert main(["regime", "--spec", str(bad), "--out", out]) == 2
    assert main(["critical", "--n", "100", "--p", "0.1", "--r", "2",
                 "--config"]) == 2
    assert main(["simulate", "--sampler", "markchain", "--n", "6", "--p",
                 "0.4", "--r", "2", "--a", "2", "--replicates", "-3",
                 "--out", out]) == 2
    # non-finite eps and alpha are refused, not carried into the arithmetic
    spec = write_spec(tmp_path, SPEC_07)
    for family, eps in [("const:1", "inf"), ("between_acnp_n", "nan")]:
        assert main(["tail", "predict", "--spec", spec, "--n", "100000",
                     "--family", family, "--eps", eps, "--out", out]) == 2
    for eps in ["inf", "nan"]:
        assert main(["tail", "estimate", "--n", "30", "--p", "0.4", "--r", "2",
                     "--a", "12", "--family", "const:1", "--eps", eps,
                     "--replicates", "100", "--out", out]) == 2
    assert main(["tail", "study", "--spec", spec, "--family", "const:1",
                 "--eps", "nan", "--ladder", "1000", "--out", out]) == 2
    # as is one whose h(x) = (alpha (1 - 1/r) + x)^r / r overflows a float
    for alpha in ["inf", "nan", "1e200"]:
        assert main(["rate", "--alpha", alpha, "--r", "2", "--out", out]) == 2
    assert main(["rate", "--alpha", "1e200", "--r", "3", "--out", out]) == 2
    # a ladder entry that is no finite integer; 1e3 is one
    for ladder in ["1e400", "inf", "nan", "1000.7", "1000,2000.5"]:
        assert main(["tail", "study", "--spec", spec, "--family",
                     "between_acnp_n", "--eps", "0.5", "--ladder", ladder,
                     "--out", out]) == 2
    assert main(["tail", "study", "--spec", spec, "--family",
                 "between_acnp_n", "--eps", "0.5", "--ladder", "1e3",
                 "--out", out]) == 0
    # an empty ladder
    assert main(["tail", "study", "--spec", spec, "--family", "between_acnp_n",
                 "--eps", "0.5", "--ladder", ",", "--method", "exact_dp",
                 "--out", out]) == 2
    # critical reads only (n, p, r), so it has no --a
    with pytest.raises(SystemExit) as exc:
        main(["critical", "--n", "100", "--p", "0.1", "--r", "2",
              "--a", "0", "--out", out])
    assert exc.value.code == 2
    # a spec file whose r is not an integer
    bad.write_text(json.dumps(SPEC_07 | {"r": "abc"}))
    assert main(["regime", "--spec", str(bad), "--out", out]) == 2
    # an r too large for a float is refused before any formula or array
    huge_r = "1" + "0" * 400
    for argv in (["critical", "--n", "100", "--p", "0.1"],
                 ["rate", "--alpha", "2"],
                 ["simulate", "--sampler", "markchain", "--n", "6", "--p",
                  "0.4", "--a", "2", "--replicates", "10"],
                 ["exact", "--n", "6", "--p", "0.4", "--a", "2"]):
        assert main(argv + ["--r", huge_r, "--out", out]) == 2, argv[0]


@pytest.mark.parametrize("family", [
    "const:nan", "const:inf", "const:1e400", "asym_bc:inf",
    "between_acnp_n:inf", "asym_acnp:nan", "between_acnp_n:nan"])
@pytest.mark.parametrize("mode", ["estimate", "predict"])
def test_non_finite_family_constant_is_refused(family, mode, tmp_path,
                                               capsys):
    if mode == "estimate":
        argv = ["tail", "estimate", "--n", "6", "--p", "0.4", "--r", "2",
                "--a", "2", "--eps", "1.5", "--replicates", "50"]
    else:
        argv = ["tail", "predict", "--spec", write_spec(tmp_path, SPEC_07),
                "--n", "10000", "--eps", "0.5"]
    out = tmp_path / "x.json"
    assert main(argv + ["--family", family, "--out", str(out)]) == 2
    assert "finite" in capsys.readouterr().err
    assert not out.exists()


# cells whose speed v(n) is still negative at this n: -log b_c with
# b_c > 1, and f log(f/b_c) with f < b_c
NEGATIVE_SPEED = [
    (SPEC_07, "const:2.0", "600", "-1.50"),
    ({"rule": "scaled_log", "constants": {"c": 0.5}, "r": 2, "alpha": 2.0},
     "between_bc_acnp:0.3", "10000", "-157.0"),
]


@pytest.mark.parametrize("case", range(len(NEGATIVE_SPEED)))
def test_non_positive_speed_is_refused(case, tmp_path, capsys):
    spec, family, n, speed = NEGATIVE_SPEED[case]
    out = tmp_path / "x.json"
    assert main(["tail", "predict", "--spec", write_spec(tmp_path, spec),
                 "--n", n, "--family", family, "--eps", "0.5",
                 "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert f"at n = {n}" in err and "v(n)" in err and speed in err
    assert not out.exists()


def test_study_refuses_a_row_with_non_positive_speed(tmp_path):
    spec = write_spec(tmp_path, SPEC_07)
    assert run(tmp_path, ["tail", "study", "--spec", spec, "--family",
                          "const:2.0", "--eps", "0.5", "--ladder", "600"])[0] \
        == 3


def test_exit_code_model_refusals(tmp_path):
    out = str(tmp_path / "x.json")
    wobble = write_spec(tmp_path, {
        "rule": "table",
        "constants": {"points": [[100, 0.5], [1000, 1e-3],
                                 [10000, 0.1], [100000, 1e-4]]},
        "r": 2, "alpha": 2.0})
    # a finite table has no limit, so it has no regime
    assert main(["regime", "--spec", wobble, "--out", out]) == 2
    # and regime reads no ladder
    with pytest.raises(SystemExit) as exc:
        main(["regime", "--spec", wobble, "--ladder", "100,1000,10000,100000",
              "--out", out])
    assert exc.value.code == 2
    spec = write_spec(tmp_path, SPEC_07)
    # unsupported (regime, family) pair
    assert main(["tail", "predict", "--spec", spec, "--n", "100000",
                 "--family", "asym_bc:1.0", "--eps", "2.0", "--out", out]) == 3


def test_collapsed_splitting_ladder_is_refused(tmp_path):
    # scaled_log c = 3 at n = 2000: the lowest mean margin before the full
    # event's threshold is 0, so a four-level ladder keeps only level 0
    spec = write_spec(tmp_path, {"rule": "scaled_log", "constants": {"c": 3.0},
                                 "r": 2, "alpha": 2.0})
    args = ["tail", "study", "--spec", spec, "--family", "const:2.0",
            "--eps", "0.5", "--ladder", "2000", "--method", "splitting",
            "--replicates", "400"]
    assert run(tmp_path, args)[0] == 3
    # one level asks for plain Monte Carlo
    code, text = run(tmp_path, args + ["--levels", "1"])
    assert code == 0 and text.splitlines()[2].startswith("2000,")


def test_critical_refuses_a_p_whose_t_c_overflows(tmp_path, capsys):
    out = tmp_path / "x.json"
    assert main(["critical", "--n", "10", "--p", "1e-300", "--r", "2",
                 "--out", str(out)]) == 2
    assert "overflows a float at p = 1e-300" in capsys.readouterr().err
    assert not out.exists()


def test_rate_curve_refuses_x_whose_h_overflows(tmp_path, capsys):
    curve = tmp_path / "curve.csv"
    rate = ["rate", "--alpha", "2", "--r", "2", "--curve-out", str(curve),
            "--out", str(tmp_path / "x.json")]
    assert main(rate + ["--curve-max", "1e200"]) == 2
    # (alpha/2 + x)^2 overflows from x ~ sqrt(DBL_MAX) = 1.34078e+154
    assert "1.34078e+154" in capsys.readouterr().err
    assert not curve.exists()
    assert main(rate + ["--curve-max", "inf"]) == 2
    assert main(rate + ["--curve-points", "-1"]) == 2
    # --curve-max 0 is refused, not replaced by 3 alpha / r
    for x_max in ("0", "-1", "nan"):
        assert main(rate + ["--curve-max", x_max]) == 2
        assert "--curve-max must be finite and > 0" in capsys.readouterr().err
    assert not curve.exists()
    assert main(rate + ["--curve-max", "1e150", "--curve-points", "3"]) == 0
    assert curve.read_text().count("\n") == 4


@pytest.mark.parametrize("argv", [
    ["simulate", "--sampler", "leap", "--n", "100", "--p", "0.1", "--r", "2",
     "--a", "5", "--replicates", "1000000000000"],
    ["tail", "estimate", "--n", "100", "--p", "0.1", "--r", "2", "--a", "5",
     "--splitting", "--tau", "10", "--replicates", "1000000000000"],
    ["tail", "estimate", "--n", "20000000", "--p", "7.75e-6", "--r", "2",
     "--a", "833", "--splitting", "--tau", "10000000", "--replicates", "16"],
    ["rate", "--alpha", "2", "--r", "2", "--curve-out", "curve.csv",
     "--curve-points", "1000000000000"],
], ids=["simulate", "splitting", "splitting-table", "rate-curve"])
def test_oversized_requests_are_refused_before_allocating(argv, tmp_path,
                                                          monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    tracemalloc.start()
    try:
        code = main(argv + ["--out", "x.json"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2
    assert "above the cap" in capsys.readouterr().err
    assert peak < 1_000_000
    assert not (tmp_path / "curve.csv").exists()


def test_rate_huge_alpha_returns_promptly():
    # J's dip at alpha = 1e30 lies below the smallest double, so x0 is
    # 5e-324 and J(x0) = 2 h(0) = 2.5e59
    src = str(Path(bootperc.__file__).resolve().parents[1])
    env = os.environ | {"PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "bootperc.cli", "rate", "--alpha", "1e30",
         "--r", "2"], capture_output=True, text=True, env=env, timeout=30)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)["result"]
    assert float(result["x0"]) == 5e-324
    assert float(result["J_x0"]) == pytest.approx(2.5e59, rel=1e-15)


def test_rate_refuses_curve_flags_without_curve_out(tmp_path, capsys):
    rate = ["rate", "--alpha", "2", "--r", "2", "--out", str(tmp_path / "x")]
    for flags in (["--curve-points", "5", "--curve-max", "2"],
                  ["--curve-max", "2"], ["--curve-points", "5"]):
        assert main(rate + flags) == 2
        assert "need --curve-out" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()
    assert main(rate + ["--curve-points", "200"]) == 0
    # --tol is gone: x0 never depended on it
    with pytest.raises(SystemExit) as exc:
        main(rate + ["--tol", "1e-6"])
    assert exc.value.code == 2


def test_rate_rejects_subcritical(tmp_path):
    assert main(["rate", "--alpha", "1.0", "--r", "2",
                 "--out", str(tmp_path / "x.json")]) == 2


def test_validate_command_is_gone():
    # its checks live in tests/: criteria 2, 3 and 7, test_core and test_oracle
    with pytest.raises(SystemExit) as exc:
        main(["validate", "--suite", "all"])
    assert exc.value.code == 2


_BLOCK_SCIPY = """
import sys


class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ModuleNotFoundError(f"no module named {name!r} (blocked)")
        return None


sys.meta_path.insert(0, BlockScipy())
from bootperc.cli import build_parser, main

sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.parametrize("argv", [
    ["exact", "--n", "40", "--p", "0.2", "--r", "2", "--a", "3"],
    ["simulate", "--sampler", "activation", "--n", "30", "--p", "0.2",
     "--r", "2", "--a", "3", "--replicates", "200"],
    ["tail", "estimate", "--n", "100", "--p", "0.1", "--r", "2", "--a", "5",
     "--splitting", "--tau", "10", "--replicates", "200"],
    ["tail", "study", "--spec", "spec.json", "--family", "between_acnp_n",
     "--eps", "0.5", "--ladder", "1000", "--method", "exact_dp"],
], ids=["exact", "simulate", "tail-estimate", "tail-study"])
def test_runs_without_scipy(argv, tmp_path):
    write_spec(tmp_path, SPEC_07)
    src = str(Path(bootperc.__file__).resolve().parents[1])
    env = os.environ | {"PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", _BLOCK_SCIPY, *argv],
                          capture_output=True, text=True, env=env,
                          cwd=tmp_path, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
