"""CLI contract: config parsing, exit codes, result-document invariants."""

import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import rankgrowth
from rankgrowth import GrowthPolynomial, OperatorError, apply_word, augment, engine
from rankgrowth.backends import make_counterexample_graph
from rankgrowth import cli
from rankgrowth.cli import (
    EXIT_CERTIFIED,
    EXIT_HYPOTHESIS,
    EXIT_INPUT_ERROR,
    EXIT_INTERNAL_ERROR,
    EXIT_TRUNCATED,
    execute,
    main,
    run,
)
from rankgrowth.selfcheck import selfcheck


SUMSET = {"mode": "sumset", "backend_data": {"summands": [[0, 1]]}, "A": [[0]]}


def _doc_poly(doc):
    terms = doc["polynomial"]["terms"]
    return {tuple(t["exponents"]): Fraction(t["coefficient"]) for t in terms}


def test_sumset_certified_exit_zero():
    code, doc = execute(dict(SUMSET))
    assert code == EXIT_CERTIFIED
    assert doc["status"] == "certified"
    assert doc["polynomial"]["pretty"] == "Y + 1"
    assert doc["threshold"] == [0]


def test_counterexample_dimension_exits_hypothesis():
    code, doc = execute(
        {"mode": "dimension", "backend": "graphic", "backend_data": "counterexample"}
    )
    assert code == EXIT_HYPOTHESIS
    assert doc["status"] == "hypothesis-failure"
    assert "triangular" in doc["error"]


def test_counterexample_cumulative_certified():
    code, doc = execute(
        {"mode": "cumulative", "backend": "graphic", "backend_data": "counterexample"}
    )
    assert code == EXIT_CERTIFIED
    assert doc["polynomial"]["pretty"] == "2*Y + 2"


def test_unknown_mode_is_input_error():
    code, doc = execute({"mode": "nope"})
    assert code == EXIT_INPUT_ERROR
    assert doc["status"] == "input-error"


def test_malformed_backend_data_is_input_error():
    code, doc = execute({"mode": "dimension", "backend": "linear", "backend_data": {}})
    assert code == EXIT_INPUT_ERROR


def test_box_too_small_exits_truncated():
    config = dict(SUMSET, box=[0, 0])
    code, doc = execute(config)
    assert code == EXIT_TRUNCATED
    assert doc["status"] == "box-truncated"
    assert doc["warnings"]


def test_ideal_count_mode():
    config = {
        "mode": "ideal-count",
        "backend": "ideal-count",
        "backend_data": {"complement_antichain": [[2, 0]]},
        "partition": [2],
    }
    code, doc = execute(config)
    assert code == EXIT_CERTIFIED
    assert _doc_poly(doc) == {(0,): Fraction(2)}
    cum = dict(config, cumulative=True)
    code2, doc2 = execute(cum)
    assert code2 == EXIT_CERTIFIED
    assert _doc_poly(doc2) == {(1,): Fraction(2), (0,): Fraction(1)}


def test_phi_rank_mode_reports_value():
    config = {
        "mode": "phi-rank",
        "backend": "trivial",
        "backend_data": {"dimension": 1},
        "operators": [[1], [1]],
        "partition": [2],
        "A": [[0]],
    }
    code, doc = execute(config)
    assert code == EXIT_CERTIFIED
    assert doc["phi_rank"] == "0"
    split = dict(config, partition=[1, 1])
    _, doc2 = execute(split)
    assert doc2["phi_rank"] == "1"


def test_phi_rank_cumulative_flag():
    # duplicated shifts: repeated words make every orbit family dependent
    config = {
        "mode": "phi-rank",
        "backend": "trivial",
        "backend_data": {"dimension": 1},
        "operators": [[1], [1]],
        "partition": [2],
        "A": [[0]],
        "cumulative": True,
    }
    code, doc = execute(config)
    assert code == EXIT_CERTIFIED
    assert doc["phi_rank"] == "0"
    # a single shift keeps the cumulative orbit fully independent
    single = dict(config, operators=[[1]], partition=[1])
    code2, doc2 = execute(single)
    assert code2 == EXIT_CERTIFIED
    assert doc2["phi_rank"] == "1"


def test_linear_mode_kills_quotient_base_monomials():
    base = {
        "mode": "dimension",
        "backend": "linear",
        "backend_data": {"num_vars": 2, "relations": [[2, 0]]},
        "partition": [2],
        "A": [[0, 0]],
    }
    _, plain = execute(dict(base))
    _, with_killed = execute(dict(base, B=[[2, 0]]))
    assert _doc_poly(plain) == _doc_poly(with_killed)


def test_context_mode():
    config = {
        "mode": "context",
        "backend": "trivial",
        "backend_data": {"dimension": 1},
        "operators": [[0], [1]],
        "partition": [2],
        "context_operators": [[[0], [1]]],
        "A": [[0]],
        "B": [[0]],
    }
    code, doc = execute(config)
    assert code == EXIT_CERTIFIED
    assert doc["polynomial"]["pretty"] == "0"


def test_cumulative_flag_is_honoured_in_every_analysis_mode():
    # dimension and sumset mode used to ignore the flag and print 1
    trivial = {
        "mode": "dimension",
        "backend": "trivial",
        "operators": [[1]],
        "A": [[0]],
    }
    sumset = {"mode": "sumset", "backend_data": {"summands": [[1]]}, "A": [[0]]}
    for config in (trivial, sumset):
        _, graded = execute(config)
        code, flagged = execute(dict(config, cumulative=True))
        assert code == EXIT_CERTIFIED
        assert (graded["polynomial"]["pretty"], flagged["polynomial"]["pretty"]) == (
            "1",
            "Y + 1",
        )
    _, cumulative = execute(dict(trivial, mode="cumulative"))
    assert cumulative["polynomial"] == flagged["polynomial"]


def test_context_mode_refuses_the_cumulative_flag():
    config = {
        "mode": "context",
        "operators": [[1]],
        "context_operators": [[[1], [2]]],
        "A": [[0]],
    }
    assert execute(config)[0] == EXIT_CERTIFIED
    code, doc = execute(dict(config, cumulative=True))
    assert code == EXIT_INPUT_ERROR
    assert doc["error"] == "InputError: context mode has no cumulative pipeline"


def test_check_mode_supported_and_failing():
    good = {
        "mode": "check",
        "backend": "trivial",
        "backend_data": {"dimension": 1},
        "operators": [[1], [3]],
        "partition": [2],
        "A": [[0]],
    }
    code, doc = execute(good)
    assert code == EXIT_CERTIFIED
    assert doc["check"]["commutation_ok"]

    forced = {
        "mode": "check",
        "backend": "graphic",
        "backend_data": "counterexample",
        "part_flags": ["triangular"],
    }
    code2, doc2 = execute(forced)
    assert code2 == EXIT_HYPOTHESIS
    assert doc2["check"]["triangular_failures"]

    declared = dict(forced, part_flags=["quasi-triangular"])
    code3, doc3 = execute(declared)
    assert code3 == EXIT_CERTIFIED


def test_betti_mode():
    config = {
        "mode": "betti",
        "backend": "chain",
        "backend_data": {"simplices": [[0, 1], [1, 2], [0, 2]]},
        "operators": [{"vertex_map": {"0": "0", "1": "1", "2": "2"}}],
        "partition": [1],
        "A": [[0, 1], [1, 2], [0, 2]],
        "dimension": 1,
    }
    code, doc = execute(config)
    assert code == EXIT_CERTIFIED
    assert doc["betti"]["polynomial"]["pretty"] == "1"


def test_graphic_vertex_map_mode():
    config = {
        "mode": "dimension",
        "backend": "graphic",
        "backend_data": {"edges": [[str(i), str(i + 1)] for i in range(12)]},
        "operators": [
            {"vertex_map": {str(i): str(min(i + 1, 12)) for i in range(13)}}
        ],
        "partition": [1],
        "A": [["0", "1"]],
    }
    code, doc = execute(config)
    assert code == EXIT_CERTIFIED
    assert _doc_poly(doc) == {(0,): Fraction(1)}
    # a graphic rank needs no ambient graph: edges are an unread key
    del config["backend_data"]
    _, without_edges = execute(config)
    for d in (doc, without_edges):
        del d["input_digest"], d["timing_ms"]
    assert without_edges == doc


def test_graphic_and_chain_operators_must_carry_a_vertex_map():
    graphic = {
        "mode": "dimension",
        "backend": "graphic",
        "backend_data": {"edges": [["0", "1"]]},
        "operators": [{"map": {}}],
        "A": [["0", "1"]],
    }
    code, doc = execute(graphic)
    assert code == EXIT_INPUT_ERROR
    assert "graphic operators must carry a 'vertex_map'" in doc["error"]
    chain = {
        "mode": "betti",
        "backend": "chain",
        "backend_data": {"simplices": [[0, 1]]},
        "operators": [{"map": {}}],
    }
    code, doc = execute(chain)
    assert code == EXIT_INPUT_ERROR
    assert "chain operators must carry a 'vertex_map'" in doc["error"]


def test_graphic_and_chain_without_operators_name_the_key():
    for config in [
        {"mode": "dimension", "backend": "graphic", "A": [["0", "1"]]},
        {"mode": "betti", "backend": "chain", "backend_data": {"simplices": [[0, 1]]}},
    ]:
        code, doc = execute(config)
        assert code == EXIT_INPUT_ERROR
        assert f"{config['backend']} backend requires 'operators'" in doc["error"]


def test_trivial_backend_tabulates_the_sumset_bound_box():
    trivial = {
        "mode": "dimension",
        "backend": "trivial",
        "backend_data": {"dimension": 1},
        "operators": [[0], [1], [4]],
        "partition": [3],
        "A": [[0]],
    }
    code, doc = execute(trivial)
    assert code == EXIT_CERTIFIED
    assert doc["staircase"]["box"] == [5, 2, 3]
    assert doc["staircase"]["evidence"] == "bound"
    _, sumset = execute(
        {"mode": "sumset", "backend_data": {"summands": [[0, 1, 4]]}, "A": [[0]]}
    )
    assert sumset["staircase"] == doc["staircase"]
    assert sumset["polynomial"] == doc["polynomial"]
    assert doc["polynomial"]["pretty"] == "4*Y - 2"
    for mode in ("cumulative", "phi-rank"):
        code, doc = execute(dict(trivial, mode=mode))
        assert code == EXIT_CERTIFIED
        assert doc["staircase"]["evidence"] == "bound"


def test_circuit_mode():
    config = {
        "mode": "dimension",
        "backend": "circuit",
        "backend_data": {
            "circuits": [
                {"degree": [t], "sets": [[f"a{t}", f"b{t}", f"c{t}"]]}
                for t in range(12)
            ]
        },
        "operators": [
            {"map": {f"{g}{t}": f"{g}{t + 1}" for g in "abc" for t in range(12)}}
        ],
        "partition": [1],
        "A": [[[0], "a0"], [[0], "b0"], [[0], "c0"]],
    }
    code, doc = execute(config)
    assert code == EXIT_CERTIFIED
    assert _doc_poly(doc) == {(0,): Fraction(2)}


def test_result_round_trip_reproduces_window_values():
    code, doc = execute(dict(SUMSET))
    poly = _doc_poly(doc)

    def evaluate(s):
        return sum(
            c * Fraction(
                1 if not e else __import__("math").prod(x**y for x, y in zip(s, e))
            )
            for e, c in poly.items()
        )

    for pt in doc["verification"]["points"]:
        s = tuple(pt["degree"])
        assert evaluate(s) == Fraction(pt["value"])
        assert evaluate(s) == pt["rank"]
    assert doc["verification"]["mismatches"] == []


def test_machine_output_deterministic_modulo_timing():
    _, d1 = execute(dict(SUMSET))
    _, d2 = execute(dict(SUMSET))
    d1["timing_ms"] = d2["timing_ms"] = 0
    assert json.dumps(d1, sort_keys=True) == json.dumps(d2, sort_keys=True)


def test_run_reads_config_and_applies_overrides(tmp_path):
    path = tmp_path / "cfg.json"
    # a key the program no longer reads, such as "threads", is ignored
    path.write_text(json.dumps(dict(SUMSET, threads=4)))
    code, doc = run(str(path), {"window": 3})
    assert code == EXIT_CERTIFIED
    hi = doc["verification"]["window"][1]
    assert hi == [3]


def test_map_failure_exits_input_error_naming_map_and_word(tmp_path):
    # a gadget generated to depth 3 cannot shift edge index 3 any further;
    # the augmented system's second map is that shift
    path = tmp_path / "cfg.json"
    config = {
        "mode": "cumulative",
        "backend": "graphic",
        "backend_data": "counterexample",
        "depth": 3,
    }
    path.write_text(json.dumps(config))
    code, doc = run(str(path))
    assert code == EXIT_INPUT_ERROR
    assert doc["status"] == "input-error"
    sys_, seeds = make_counterexample_graph(3)
    with pytest.raises(OperatorError) as direct:
        apply_word(augment(sys_), seeds[0], (0, 4))
    # every package error is reported as "Type: message"
    assert doc["error"] == f"OperatorError: {direct.value}"
    assert doc["error"].startswith(
        "OperatorError: map 2 failed while applying word (0, 4): "
    )


def test_work_budget_exits_input_error(tmp_path):
    path = tmp_path / "cfg.json"
    six_shifts = {"mode": "sumset", "backend_data": {"summands": [[0, 1, 2, 3, 4, 5]]}}
    path.write_text(json.dumps(dict(six_shifts, A=[[0]])))
    code, doc = run(str(path), {"box": 20})
    assert code == EXIT_INPUT_ERROR
    assert "4,925,156,775 words" in doc["error"] and "--box" in doc["error"]


@pytest.mark.parametrize(
    "bad",
    [{"box": 2.5}, {"box": True}, {"box": [2, "x"]}, {"window": 1.8}, {"window": "2"}],
)
def test_non_integer_box_or_window_exits_input_error(tmp_path, bad):
    # a float box used to fall back to the default box, a float window to
    # be truncated, and both exited 0
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(SUMSET, **bad)))
    code, doc = run(str(path))
    assert code == EXIT_INPUT_ERROR
    assert doc["status"] == "input-error"
    assert "must be" in doc["error"] and "integer" in doc["error"]


IDEAL = {
    "mode": "ideal-count",
    "backend": "ideal-count",
    "backend_data": {"complement_antichain": [[2, 0]]},
    "partition": [2],
}
LINEAR = {"mode": "dimension", "backend": "linear", "backend_data": {"num_vars": 2}}
TRIVIAL = {
    "mode": "dimension",
    "backend": "trivial",
    "backend_data": {"dimension": 1},
    "operators": [[1]],
    "A": [[0]],
}
CHECK = dict(TRIVIAL, mode="check")
GADGET = {"mode": "cumulative", "backend": "graphic", "backend_data": "counterexample"}
BETTI = {
    "mode": "betti",
    "backend": "chain",
    "backend_data": {"simplices": [[0, 1], [1, 2], [0, 2]]},
    "operators": [{"vertex_map": {"0": "1", "1": "2", "2": "0"}}],
    "A": [[0, 1]],
}
CIRCUIT = {
    "mode": "dimension",
    "backend": "circuit",
    "backend_data": {"circuits": [{"degree": [0], "sets": [["a", "b"]]}]},
    "operators": [{"map": {}}],
    "partition": [1],
    "A": [[[0], "a"]],
}


@pytest.mark.parametrize(
    "base,bad",
    [
        (IDEAL, {"backend_data": {"complement_antichain": [[2.7, 0]]}}),
        (IDEAL, {"partition": [2.9]}),
        (LINEAR, {"backend_data": {"num_vars": 2.7}}),
        (LINEAR, {"A": [[0.5, 0]]}),
        (TRIVIAL, {"backend_data": {"dimension": 1.5}}),
        (SUMSET, {"A": [[True]]}),
        (CHECK, {"depth": 2.5}),
        (CHECK, {"seed_sample": 3.5}),
        (GADGET, {"depth": 8.5}),
        (GADGET, {"A": [["a", 0.5]]}),
        (BETTI, {"dimension": 0.5}),
        (CIRCUIT, {"A": [[[0.5], "a"]]}),
        (CIRCUIT, {"backend_data": {"circuits": [{"degree": [0.5], "sets": []}]}}),
    ],
)
def test_non_integer_where_an_integer_is_read_exits_input_error(base, bad):
    # each value used to be truncated by int(...) and the config run on
    assert execute(base)[0] != EXIT_INPUT_ERROR
    code, doc = execute(dict(base, **bad))
    assert code == EXIT_INPUT_ERROR
    assert doc["status"] == "input-error"
    assert "integer" in doc["error"]


GRAPHIC = {
    "mode": "dimension",
    "backend": "graphic",
    "backend_data": {"edges": [["0", "1"]]},
    "operators": [{"vertex_map": {"0": "1", "1": "0"}}],
    "A": [["0", "1"]],
}


@pytest.mark.parametrize(
    "config,named",
    [
        ([1, 2], "a config must be an object"),
        (dict(SUMSET, backend_data=[[0, 1]]), "backend_data must be an object"),
        (dict(LINEAR, backend_data="counterexample"), "backend_data must be an object"),
        (dict(GRAPHIC, operators=[{"vertex_map": 5}]), "operators[0].vertex_map"),
        (dict(CIRCUIT, operators=[{"map": []}]), "operators[0].map"),
        (dict(IDEAL, cumulative="no"), "cumulative must be a boolean"),
        (dict(CHECK, seed_sample=-3), "pair_count must be >= 0"),
        (dict(BETTI, dimension=-1), "homology dimension"),
    ],
)
def test_malformed_config_shapes_exit_input_error(tmp_path, config, named):
    # the first five used to escape as AttributeError tracebacks with no
    # document, the last three to exit 0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "result.json"
    assert main(["run", str(cfg), "--out", str(out)]) == EXIT_INPUT_ERROR
    doc = json.loads(out.read_text())
    assert doc["status"] == "input-error"
    assert doc["error"].startswith("InputError: ") and named in doc["error"]


def test_a_bug_inside_the_engine_exits_internal_error(monkeypatch, capsys):
    # a KeyError used to be reported as exit 1 "input-error"
    def broken(*args, **kwargs):
        raise KeyError("stage")

    monkeypatch.setattr(cli, "analyze_graded", broken)
    code, doc = execute(dict(SUMSET))
    assert code == EXIT_INTERNAL_ERROR == 4
    assert doc["status"] == "internal-error"
    assert doc["error"] == "KeyError: 'stage'"
    assert "timing_ms" in doc
    assert "in broken" in capsys.readouterr().err  # the traceback


def test_a_drifted_phi_rank_exits_internal_error(monkeypatch, capsys):
    # the leading-coefficient check runs inside PipelineResult.phi_rank_value;
    # no config can break it, so a failure is a bug, not an input error
    honest = engine.interpolate

    def drifted(numerator, d):
        P = honest(numerator, d)
        bumped = {e: c + 1 for e, c in P.coeffs.items()}
        return GrowthPolynomial(bumped, P.degree_bound, P.threshold)

    config = {"mode": "phi-rank", "backend": "trivial", "operators": [[1]], "A": [[0]]}
    assert execute(config)[0] == EXIT_CERTIFIED
    monkeypatch.setattr(engine, "interpolate", drifted)
    code, doc = execute(config)
    assert code == EXIT_INTERNAL_ERROR
    assert doc["status"] == "internal-error"
    assert doc["error"].startswith("ContractError: leading coefficient")
    assert "phi_rank_value" in capsys.readouterr().err  # the traceback


def test_a_config_json_cannot_encode_exits_input_error():
    _, input_error = execute({"mode": "volume"})
    code, doc = execute({"mode": {1, 2}})
    assert code == EXIT_INPUT_ERROR
    assert doc.keys() == input_error.keys()
    assert (doc["input_digest"], doc["mode"], doc["status"]) == (
        None,
        None,
        "input-error",
    )
    assert doc["error"].startswith("InputError: config is not JSON: ")
    assert "set" in doc["error"]


def test_run_missing_file():
    code, doc = run("/nonexistent/nowhere.json")
    assert code == EXIT_INPUT_ERROR


def test_unreadable_config_document_has_every_document_key(tmp_path):
    broken = tmp_path / "broken.json"
    broken.write_text("{")
    _, input_error = execute({"mode": "volume"})
    for path in (tmp_path / "missing.json", broken):
        code, doc = run(str(path))
        assert code == EXIT_INPUT_ERROR
        assert doc.keys() == input_error.keys()
        assert (doc["input_digest"], doc["mode"], doc["status"]) == (
            None,
            None,
            "input-error",
        )
        assert doc["error"].startswith("InputError: cannot read config: ")


def test_cli_subprocess_end_to_end(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(SUMSET))
    out = tmp_path / "result.json"
    proc = subprocess.run(
        [sys.executable, "-m", "rankgrowth.cli", "run", str(cfg), "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(out.read_text())
    assert doc["status"] == "certified"


def test_selfcheck_all_green():
    report = selfcheck(verbose=False)
    assert report.ok, report.failed


@pytest.mark.parametrize(
    "flags", [["--threads", "2"], ["--bogus"], ["--window", "abc"], ["--box", "8,x"]]
)
def test_usage_errors_exit_input_error(tmp_path, capsys, flags):
    # argparse's own status 2 would read as "box-truncated, document written"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(SUMSET))
    assert main(["run", str(cfg)] + flags) == EXIT_INPUT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


DRIFTED_SELFCHECK = """
from rankgrowth import engine
from rankgrowth.engine import GrowthPolynomial

honest = engine.interpolate

def drifted(numerator, d):
    P = honest(numerator, d)
    bumped = {e: c + 1 for e, c in P.coeffs.items()}
    return GrowthPolynomial(bumped, P.degree_bound, P.threshold)

engine.interpolate = drifted
from rankgrowth.selfcheck import selfcheck
print(len(selfcheck(verbose=False).failed))
"""


def test_selfcheck_catches_drift_under_optimize():
    # python -O strips assert statements; the golden corpus must not rely on them
    src = os.path.dirname(os.path.dirname(os.path.abspath(rankgrowth.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    failures = []
    for flags in ([], ["-O"]):
        proc = subprocess.run(
            [sys.executable, *flags, "-c", DRIFTED_SELFCHECK],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        failures.append(int(proc.stdout))
    assert failures[0] > 0
    assert failures[1] == failures[0]
