import argparse
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from abelianbp import EigenList, GroupSpec
from abelianbp.cli import _FACTORS, build_parser, main
from abelianbp.de import DEConfig, TurboSpec, standard_turbo
from abelianbp.schemas import (
    dump_deconfig,
    dump_eigenlist,
    dump_graph,
    dump_message,
    dump_trellis,
    dump_turbo,
    parse_deconfig,
    parse_eigenlist,
    parse_graph,
    parse_hom,
    parse_message,
    parse_trellis,
    parse_turbo,
    schema_validate,
    to_json,
)
from abelianbp.errors import ValidationError
from abelianbp.trees import FactorGraphSpec, FactorNode, leaf
from abelianbp.trellis import transfer_function_trellis, unroll_to_tree
from message_rows import rows

Z32 = GroupSpec((3, 2))
LAM1 = EigenList(Z32, [2, 1, 0, 2, 1, 0])
LAM2 = EigenList(Z32, [2, 0, 1, 1, 0, 2])


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# schema round trips


def test_eigenlist_roundtrip():
    doc = dump_eigenlist(LAM1)
    schema_validate(doc, "eigenlist")
    reparsed = parse_eigenlist(json.loads(to_json(doc)))
    assert np.array_equal(reparsed.values, LAM1.values)
    assert reparsed.group == LAM1.group


def test_message_roundtrip():
    from abelianbp import check_combine
    msg = check_combine(LAM1, LAM2)
    doc = dump_message(msg)
    back = parse_message(json.loads(to_json(doc)))
    assert len(back) == len(msg)
    for b1, b2 in zip(rows(back), rows(msg)):
        assert b1.prob == b2.prob
        assert np.array_equal(b1.lam, b2.lam)
        assert b1.labels == b2.labels


def test_graph_roundtrip():
    spec = FactorGraphSpec(
        {"a": Z32, "b": Z32, "root": Z32},
        {"la": leaf("a", LAM1), "lb": leaf("b", LAM2),
         "chk": FactorNode("check", ("a", "b", "root"))},
        "root",
    )
    doc = dump_graph(spec)
    schema_validate(doc, "graph")
    back = parse_graph(json.loads(to_json(doc)))
    assert back.root == "root"
    assert back.factors["chk"].kind == "check"
    assert np.array_equal(back.factors["la"].message.lams[0],
                          LAM1.values)


def test_trellis_roundtrip_and_shorthand():
    spec = transfer_function_trellis([1, 0, 1], [1, 1, 1], 3)
    back = parse_trellis(json.loads(to_json(dump_trellis(spec))))
    assert back.outputs[0].matrix == spec.outputs[0].matrix
    short = parse_trellis({"version": 1,
                           "transfer_function": {"p": [1, 0, 1], "q": [1, 1, 1],
                                                 "modulus": 3}})
    assert short.outputs[0].matrix == spec.outputs[0].matrix
    assert short.section_automorphism.matrix == spec.section_automorphism.matrix


def test_trellis_documents_carry_no_block_length(tmp_path, capsys):
    """A trellis is one section: no dumped document names a block length, and
    one that does is rejected like any unknown field (exit 2)."""
    spec = transfer_function_trellis([1, 0, 1], [1, 1, 1], 3)
    assert "block_length" not in dump_trellis(spec)
    short = {"version": 1, "transfer_function": {"p": [1, 0, 1], "q": [1, 1, 1], "modulus": 3}}
    for doc in ({**dump_trellis(spec), "block_length": 8}, {**short, "block_length": 8}):
        with pytest.raises(ValidationError):
            parse_trellis(json.loads(to_json(doc)))
    t, ch = tmp_path / "t.json", tmp_path / "ch.json"
    t.write_text(to_json({**short, "block_length": 8}))
    ch.write_text(to_json(dump_eigenlist(EigenList(GroupSpec((3,)), [1, 1, 1]))))
    code, _, _ = run_cli(capsys, "conv", "analyze", "--trellis", str(t), "--channel", str(ch),
                         "--T", "2", "--systematic")
    assert code == 2


def test_turbo_and_config_roundtrip():
    spec = standard_turbo(3)
    back = parse_turbo(json.loads(to_json(dump_turbo(spec))))
    assert back.rate == spec.rate
    cfg = DEConfig(population=10, window=5, master_seed=3)
    back_cfg = parse_deconfig(json.loads(to_json(dump_deconfig(cfg))))
    assert back_cfg == cfg


def test_parsing_a_graph_checks_each_schema_at_most_once(monkeypatch):
    """Each parse runs the checker once on the whole document, against the graph
    schema; the nested group, hom and message schemas are only walked inside it."""
    from abelianbp import schemas

    lam = EigenList(GroupSpec((3,)), [2.3, 0.35, 0.35])
    doc = json.loads(to_json(dump_graph(unroll_to_tree(
        transfer_function_trellis([1, 0, 1], [1, 1, 1], 3), [[lam]] * 2, 1,
        symbol_obs_seq=[lam] * 2))))
    seen, errors = [], schemas._errors

    def spy(doc, schema, path=()):
        if not path:
            seen.append(id(schema))
        return errors(doc, schema, path)

    monkeypatch.setattr(schemas, "_errors", spy)
    assert parse_graph(doc).root == parse_graph(doc).root == "g1"
    kinds = {id(schema): kind for kind, schema in schemas.SCHEMAS.items()}
    assert [kinds[i] for i in seen] == ["graph", "graph"]


def test_schema_rejects_unknown_fields():
    doc = dump_eigenlist(LAM1)
    doc["extra"] = 1
    with pytest.raises(ValidationError, match="schema violation"):
        schema_validate(doc, "eigenlist")


def test_schema_rejects_bad_sum():
    with pytest.raises(ValidationError):
        parse_eigenlist({"group": {"moduli": [3, 2]}, "values": [1, 1, 1, 1, 1, 0]})


@pytest.mark.parametrize("branches", [
    [{"p": 1.0, "lambda": [1, 1, 1, 1, 2]}],
    [{"p": 0.5, "lambda": [1, 1, 1, 1, 1, 1]}, {"p": 0.5, "lambda": [3, 3]}],
    [{"p": -0.5, "lambda": [1, 1, 1, 1, 1, 1]}, {"p": 1.5, "lambda": [6, 0, 0, 0, 0, 0]}],
    [{"p": 0.5, "lambda": [1, 1, 1, 1, 1, 1]}, {"p": 0.4, "lambda": [6, 0, 0, 0, 0, 0]}],
])
def test_parse_message_rejects_bad_branches(branches):
    with pytest.raises(ValidationError):
        parse_message({"group": {"moduli": [3, 2]}, "branches": branches})


def test_library_builds_and_reads_messages_as_arrays(monkeypatch):
    """No library path builds the `Branch` view: the dense oracle, the JSON
    boundary, and the tree, trellis and polar trackers in both modes."""
    from abelianbp import check_combine, messages
    from abelianbp.de import channel_family
    from abelianbp.oracle import verify_rule
    from abelianbp.polar import synthesize
    from abelianbp.trees import run_mp
    from abelianbp.trellis import decode_block
    from test_trees import every_kind_graph

    msg = check_combine(LAM1, LAM2)
    graph, lam = every_kind_graph(), channel_family(3, 2.3)
    spec = transfer_function_trellis([1, 0, 1], [1, 1, 1], 3)

    def forbidden(*args, **kwargs):
        raise AssertionError("the Branch view was built")

    monkeypatch.setattr(messages, "Branch", forbidden)
    doc = dump_message(msg)
    assert dump_message(parse_message(json.loads(to_json(doc)))) == doc
    for rule in ("check", "equality", "hom", "marginalize", "automorphism",
                 "gram", "covariance", "pgm", "entropy"):
        assert verify_rule(rule, Z32, 1, 3)["ok"], rule
    for mode in ("exact", "sampled"):
        assert dump_message(run_mp(graph, mode=mode, seed=1, samples=5))["branches"]
        results = decode_block(spec, [[lam]] * 3, mode=mode, seed=1, symbol_obs_seq=[lam] * 3,
                               samples=5)
        assert all(dump_message(m)["branches"] for r in results for m in (r.posterior, r.extrinsic))
        assert len(synthesize(lam, 2, mode=mode, seed=1, samples=5)) == 4


# ---------------------------------------------------------------------------
# CLI behavior


def test_measures_command(capsys):
    code, out, _ = run_cli(capsys, "measures", "--lambda", "[1,1,1]", "--group", "[3]")
    assert code == 0
    doc = json.loads(out)
    assert doc["holevo_bits"] == pytest.approx(math.log2(3))
    assert doc["pgm_error"] == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("lam, group", [("[3,0,0]", "[3]"), ("[6,0,0,0,0,0]", "[3,2]")])
def test_measures_of_a_useless_list_print_a_positive_zero(capsys, lam, group):
    code, out, _ = run_cli(capsys, "measures", "--lambda", lam, "--group", group)
    assert code == 0 and '"holevo_bits": 0.0' in out and "-0.0" not in out


def test_factor_equality_command(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(to_json(dump_eigenlist(LAM1)))
    b.write_text(to_json(dump_eigenlist(LAM2)))
    code, out, _ = run_cli(capsys, "factor", "equality", "--in", str(a), str(b))
    assert code == 0
    doc = json.loads(out)
    assert doc["values"] == pytest.approx([1.5, 0.5, 1.0, 1.5, 0.5, 1.0])


def test_factor_check_command(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(to_json(dump_eigenlist(LAM1)))
    b.write_text(to_json(dump_eigenlist(LAM2)))
    code, out, _ = run_cli(capsys, "factor", "check", "--in", str(a), str(b))
    assert code == 0
    doc = json.loads(out)
    assert len(doc["branches"]) == 6
    assert sum(br["p"] for br in doc["branches"]) == pytest.approx(1.0)


def test_validation_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"group": {"moduli": [3]}, "values": [9, 9, 9]}')
    code, _, err = run_cli(capsys, "measures", "--in", str(bad))
    assert code == 2
    assert json.loads(err)["error"] == "validation"


def test_usage_exit_code(capsys):
    code, _, err = run_cli(capsys, "mp", "run", "--graph", "x.json",
                           "--mode", "sampled")
    assert code == 1  # missing seed -> usage, before the file is read
    assert json.loads(err)["error"] == "usage"


@pytest.mark.parametrize("argv", [
    ("mp", "run", "--graph", "missing.json", "--mode", "sampled"),
    ("conv", "analyze", "--trellis", "missing.json", "--channel", "missing.json", "--T", "3",
     "--mode", "sampled"),
    ("polar", "construct", "--group", "@missing.json", "--lambda", "[2,1,0]", "--levels", "2",
     "--mode", "sampled"),
    ("polar", "construct", "--group", "@missing.json", "--lambda", "[2,1,0]", "--levels", "5"),
])
def test_sampled_mode_without_seed_is_usage_before_inputs_are_read(tmp_path, monkeypatch,
                                                                   capsys, argv):
    """Sampled mode (explicit, or `auto` past its exact levels) without --seed
    exits 1 whatever the inputs: the seed is checked before any is read."""
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "usage"


def test_prune_threshold_is_validated_in_every_mode(tmp_path, capsys):
    spec = FactorGraphSpec({"a": Z32, "root": Z32},
                           {"la": leaf("a", LAM1), "eq": FactorNode("equality", ("a", "root"))},
                           "root")
    g = tmp_path / "g.json"
    g.write_text(to_json(dump_graph(spec)))
    for argv in (("mp", "run", "--graph", str(g), "--prune", "-1"),
                 ("polar", "construct", "--group", "[3]", "--lambda", "[2,1,0]",
                  "--levels", "2", "--mode", "sampled", "--seed", "1", "--prune", "0.7")):
        code, _, err = run_cli(capsys, *argv)
        assert code == 2
        assert "prune threshold" in json.loads(err)["message"]


def test_warnings_reach_stderr_as_json_objects(monkeypatch, capsys):
    """Past the branch cap each shown guard warning is one JSON object on stderr,
    with its count and dropped mass, and without a source path or line."""
    argv = ("polar", "construct", "--group", "[3]", "--lambda", "[2.3,0.35,0.35]",
            "--levels", "2", "--mode", "exact")
    assert run_cli(capsys, *argv)[::2] == (0, "")
    monkeypatch.setattr("abelianbp.messages.BRANCH_CAP", 5)
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and out.startswith("index,avg_holevo_bits,avg_pgm_error\n")
    decoder, shown, end = json.JSONDecoder(), [], 0
    while end < len(err):
        warning, end = decoder.raw_decode(err, end)
        shown.append(warning)
        assert err[end] == "\n"
        end += 1
    assert shown and "/" not in err and "\\" not in err
    for warning in shown:
        assert sorted(warning) == ["count", "dropped", "message", "warning"]
        assert warning["warning"] == "GuardWarning" and warning["count"] > 5
        assert isinstance(warning["dropped"], float)
        assert f"branch count {warning['count']} exceeds cap 5" in warning["message"]


def test_mp_run_command(tmp_path, capsys):
    spec = FactorGraphSpec(
        {"a": Z32, "b": Z32, "root": Z32},
        {"la": leaf("a", LAM1), "lb": leaf("b", LAM2),
         "eq": FactorNode("equality", ("a", "b", "root"))},
        "root",
    )
    g = tmp_path / "g.json"
    g.write_text(to_json(dump_graph(spec)))
    code, out, _ = run_cli(capsys, "mp", "run", "--graph", str(g))
    assert code == 0
    doc = json.loads(out)
    assert doc["root"]["branches"][0]["lambda"] == pytest.approx(
        [1.5, 0.5, 1.0, 1.5, 0.5, 1.0])


def test_polar_construct_csv(tmp_path, capsys):
    out_file = tmp_path / "stats.csv"
    code, _, _ = run_cli(capsys, "polar", "construct", "--group", "[3]",
                         "--lambda", "[1,1,1]", "--levels", "1",
                         "--out", str(out_file))
    assert code == 0
    lines = out_file.read_text().strip().splitlines()
    assert lines[0] == "index,avg_holevo_bits,avg_pgm_error"
    assert len(lines) == 3


def test_conv_analyze_csv(tmp_path, capsys):
    t = tmp_path / "t.json"
    t.write_text(to_json({"version": 1,
                          "transfer_function": {"p": [1, 0, 1], "q": [1, 1, 1],
                                                "modulus": 3}}))
    ch = tmp_path / "ch.json"
    ch.write_text(to_json(dump_eigenlist(EigenList(GroupSpec((3,)), [1, 1, 1]))))
    code, out, _ = run_cli(capsys, "conv", "analyze", "--trellis", str(t),
                           "--channel", str(ch), "--T", "2", "--systematic")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("t,posterior_holevo_bits")
    assert len(lines) == 3


def test_verify_command(capsys):
    code, out, _ = run_cli(capsys, "verify", "--rule", "equality", "--group", "[4]",
                           "--seed", "0", "--count", "5")
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_de_holevo_command(capsys):
    code, out, _ = run_cli(capsys, "de", "holevo", "--q", "3", "--rate", "1/3")
    assert code == 0
    assert json.loads(out)["lambda0"] == pytest.approx(2.7287, abs=1e-3)


def test_de_threshold_command_fast(tmp_path, capsys):
    t = tmp_path / "turbo.json"
    t.write_text(to_json(dump_turbo(standard_turbo(3))))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(to_json(dump_deconfig(
        DEConfig(population=100, max_iterations=10, window=11, master_seed=1))))
    out_file = tmp_path / "res.json"
    code, _, _ = run_cli(capsys, "de", "threshold", "--turbo", str(t),
                         "--config", str(cfg), "--resolution", "0.25",
                         "--trials", "1", "--out", str(out_file))
    assert code == 0
    doc = json.loads(out_file.read_text())
    assert 1.0 < doc["lambda_de"] < 3.0
    assert doc["holevo_threshold"] == pytest.approx(2.7287, abs=1e-3)


@pytest.mark.parametrize("rate", ["1/2", "1/4", "one third", "1/0"])
def test_de_threshold_rejects_a_target_rate_the_streams_do_not_give(tmp_path, capsys, rate):
    doc = dump_turbo(standard_turbo(3))
    documented = {**doc, "target_rate": "1/3"}     # the example in docs/file-formats.md
    assert parse_turbo(json.loads(to_json(documented))).target_rate == Fraction(1, 3)
    t, cfg = tmp_path / "turbo.json", tmp_path / "cfg.json"
    t.write_text(to_json({**doc, "target_rate": rate}))
    cfg.write_text(to_json(dump_deconfig(
        DEConfig(population=100, max_iterations=10, window=11, master_seed=1))))
    code, out, err = run_cli(capsys, "de", "threshold", "--turbo", str(t), "--config", str(cfg),
                             "--resolution", "0.25", "--trials", "1")
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == "validation"
    with pytest.raises(ValidationError, match="target rate"):
        TurboSpec(standard_turbo(3).constituents, target_rate=Fraction(1, 2))


def test_de_heatmap_command(tmp_path, capsys):
    t = tmp_path / "turbo.json"
    t.write_text(to_json(dump_turbo(standard_turbo(3))))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(to_json(dump_deconfig(
        DEConfig(population=100, max_iterations=8, window=11, master_seed=1))))
    code, out, _ = run_cli(capsys, "de", "heatmap", "--turbo", str(t),
                           "--config", str(cfg), "--res", "1.5")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "lambda0,lambda1,lambda2,success_freq"
    assert len(lines) > 3


@pytest.mark.parametrize("argv", [
    ("threshold", "--resolution", "0"),
    ("threshold", "--trials", "0"),
    ("heatmap", "--res", "-0.5"),
    ("heatmap", "--trials", "0"),
    ("heatmap", "--lambda0-range", "2.9,2.5"),
    ("heatmap", "--lambda0-range", "nan,2.5"),
])
def test_de_drivers_reject_impossible_grids(tmp_path, capsys, monkeypatch, argv):
    from abelianbp import de

    def no_run(*args, **kwargs):
        raise AssertionError("a DE run started")

    monkeypatch.setattr(de, "de_run", no_run)
    t = tmp_path / "turbo.json"
    t.write_text(to_json(dump_turbo(standard_turbo(3))))
    code, out, err = run_cli(capsys, "de", *argv, "--turbo", str(t), "--seed", "1")
    assert code == 2 and not out
    assert json.loads(err)["error"] == "validation"


@pytest.mark.parametrize("value", ["2.5", "a,b"])
def test_de_heatmap_rejects_malformed_lambda0_range(tmp_path, capsys, value):
    t = tmp_path / "turbo.json"
    t.write_text(to_json(dump_turbo(standard_turbo(3))))
    code, out, err = run_cli(capsys, "de", "heatmap", "--turbo", str(t), "--seed", "1",
                             "--lambda0-range", value)
    assert code == 1 and not out
    assert json.loads(err)["error"] == "usage"


def test_stochastic_outputs_are_byte_identical(tmp_path, capsys):
    spec = FactorGraphSpec(
        {"a": Z32, "b": Z32, "root": Z32},
        {"la": leaf("a", LAM1), "lb": leaf("b", LAM2),
         "chk": FactorNode("check", ("a", "b", "root"))},
        "root",
    )
    g = tmp_path / "g.json"
    g.write_text(to_json(dump_graph(spec)))
    outputs = set()
    for _ in range(3):
        code, out, _ = run_cli(capsys, "mp", "run", "--graph", str(g),
                               "--mode", "sampled", "--seed", "5")
        assert code == 0
        outputs.add(out)
    assert len(outputs) == 1


def test_thread_count_independence(tmp_path):
    """Identical bytes from the stochastic CLI under different BLAS thread caps."""
    import os
    import subprocess
    import sys as _sys

    t = tmp_path / "turbo.json"
    t.write_text(to_json(dump_turbo(standard_turbo(3))))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(to_json(dump_deconfig(
        DEConfig(population=120, max_iterations=8, window=11, master_seed=6))))
    outputs = []
    for threads in ("1", "4"):
        env = dict(os.environ)
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = threads
        proc = subprocess.run(
            [_sys.executable, "-m", "abelianbp.cli", "de", "threshold",
             "--turbo", str(t), "--config", str(cfg),
             "--resolution", "0.5", "--trials", "1"],
            capture_output=True, env=env, check=True)
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "schema v1" in out


def test_polar_construct_rejects_bad_sample_counts(capsys):
    for samples in ("0", "-3"):
        code, _, err = run_cli(capsys, "polar", "construct", "--group", "[3]",
                               "--lambda", "[2,0.5,0.5]", "--levels", "2",
                               "--mode", "sampled", "--seed", "1", "--samples", samples)
        assert code == 2
        assert json.loads(err)["error"] == "validation"


def test_polar_construct_nan_list_is_a_numerical_error(capsys):
    for mode in ("exact", "sampled"):
        code, _, err = run_cli(capsys, "polar", "construct", "--group", "[3]",
                               "--lambda", "[NaN,1.5,1.5]", "--levels", "2",
                               "--mode", mode, "--seed", "1", "--samples", "5")
        assert code == 3
        assert json.loads(err)["error"] == "numerical"


@pytest.mark.parametrize("argv", [
    ("measures", "--lambda", "[NaN,1.5,1.5]", "--group", "[3]"),
    ("factor", "equality", "--in", "nan.json", "ok.json"),
    ("factor", "check", "--in", "nan.json", "ok.json"),
])
def test_nan_eigen_list_input_is_a_numerical_error(tmp_path, capsys, argv):
    (tmp_path / "nan.json").write_text('{"group": {"moduli": [3]}, "values": [NaN, 1.5, 1.5]}')
    (tmp_path / "ok.json").write_text('{"group": {"moduli": [3]}, "values": [2.3, 0.35, 0.35]}')
    argv = [str(tmp_path / a) if a.endswith(".json") else a for a in argv]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (3, "")
    assert json.loads(err)["error"] == "numerical"


def test_nan_herald_probability_in_a_message_is_a_numerical_error(tmp_path, capsys):
    """A leaf branch of probability NaN is a numerical error (exit 3), as a
    NaN eigen list is, not a validation error."""
    spec = FactorGraphSpec({"a": Z32, "root": Z32},
                           {"la": leaf("a", LAM1), "eq": FactorNode("equality", ("a", "root"))},
                           "root")
    doc = dump_graph(spec)
    leaf_doc = next(f for f in doc["factors"].values() if f["kind"] == "leaf")
    leaf_doc["message"]["branches"][0]["p"] = math.nan
    g = tmp_path / "g.json"
    g.write_text(json.dumps(doc))
    assert "NaN" in g.read_text()
    for mode in ("exact", "sampled"):
        code, out, err = run_cli(capsys, "mp", "run", "--graph", str(g), "--mode", mode,
                                 "--seed", "1")
        assert (code, out) == (3, "")
        assert json.loads(err)["error"] == "numerical"


def test_nan_row_mid_schedule_exits_3(tmp_path, capsys, monkeypatch):
    """A kernel that emits a NaN row in the middle of `mp run` is a numerical
    error (exit 3) with empty stdout, in both modes."""
    import abelianbp.trees as trees
    from test_trees import chain_graph, nan_on_call

    g = tmp_path / "g.json"
    g.write_text(to_json(dump_graph(chain_graph([LAM1, LAM2, LAM1]))))
    for mode in ("exact", "sampled"):
        monkeypatch.setattr(trees, "_equality", nan_on_call(2))
        code, out, err = run_cli(capsys, "mp", "run", "--graph", str(g), "--mode", mode,
                                 "--seed", "1", "--samples", "3")
        assert (code, out) == (3, "")
        assert json.loads(err)["error"] == "numerical"


def test_hom_past_the_enumeration_cap_exits_2(tmp_path, capsys):
    """`factor hom-supported` with a hom into Z_{3*2^61}, whose dual map
    would enumerate the target, is a validation error (exit 2)."""
    lam, hom = tmp_path / "lam.json", tmp_path / "hom.json"
    lam.write_text('{"group": {"moduli": [3]}, "values": [2.3, 0.35, 0.35]}')
    hom.write_text(json.dumps({"source": {"moduli": [3]}, "target": {"moduli": [3 * 2**61]},
                               "matrix": [[2**62]]}))
    code, out, err = run_cli(capsys, "factor", "hom-supported", "--in", str(lam),
                             "--hom", str(hom))
    assert (code, out) == (2, "")
    assert "enumeration cap" in json.loads(err)["message"]


def _conv_files(tmp_path):
    t, ch = tmp_path / "trellis.json", tmp_path / "channel.json"
    t.write_text('{"version": 1, "transfer_function": {"p": [1, 0, 1], "q": [1, 1, 1], '
                 '"modulus": 3}}')
    ch.write_text('{"group": {"moduli": [3]}, "values": [2.3, 0.35, 0.35]}')
    return ["--trellis", str(t), "--channel", str(ch)]


def test_bad_counts_exit_2_with_empty_stdout(tmp_path, capsys):
    g = tmp_path / "g.json"
    g.write_text(to_json(dump_graph(FactorGraphSpec(
        {"a": Z32, "root": Z32},
        {"la": leaf("a", LAM1), "eq": FactorNode("equality", ("a", "root"))}, "root"))))
    conv = ["conv", "analyze", *_conv_files(tmp_path)]
    cases = [("verify", "--rule", "check", "--group", "[3]", "--seed", "1", "--count", c)
             for c in ("-5", "0")]
    cases += [(*conv, "--T", T) for T in ("0", "-2")]
    cases += [(*conv, "--T", "3", "--mode", mode, "--seed", "1", "--samples", s)
              for mode in ("exact", "sampled") for s in ("0", "-1")]
    cases += [("mp", "run", "--graph", str(g), "--mode", mode, "--seed", "1", "--samples", s)
              for mode in ("exact", "sampled") for s in ("0", "-1")]
    for argv in cases:
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert json.loads(err)["error"] == "validation"


_SEED = ("--mode", "sampled", "--seed", "-1")


@pytest.mark.parametrize("argv", [
    *(("measures", "--lambda", lam, "--group", "[3]")
      for lam in ('{"a":1}', '"abc"', "[[1,1,1]]")),
    *(("polar", "construct", "--group", "[3]", "--lambda", lam, "--levels", "1")
      for lam in ('{"a":1}', '"abc"', "[[1,1,1]]")),
    *(("de", "holevo", "--q", "3", "--rate", rate) for rate in ("abc", "1/0", "nan", "inf")),
    *(("de", "holevo", "--q", q, "--rate", "1/2") for q in ("0", "-2")),
    ("factor", "automorphism", "--in", "<lam>"),
    ("verify", "--rule", "check", "--group", "[3]", "--seed", "-1"),
    ("polar", "construct", "--group", "[3]", "--lambda", "[2.3,0.35,0.35]", "--levels", "2",
     *_SEED),
    ("conv", "analyze", "--trellis", "<trellis>", "--channel", "<channel>", "--T", "3", *_SEED),
    ("mp", "run", "--graph", "<graph>", *_SEED),
    ("de", "threshold", "--turbo", "<turbo>", "--seed", "-1"),
    ("de", "heatmap", "--turbo", "<turbo>", "--seed", "-1"),
    ("de", "threshold", "--turbo", "<turbo>", "--config", "<config>"),
])
def test_invalid_inline_values_and_seeds_exit_2(tmp_path, capsys, argv):
    files = {"lam": dump_eigenlist(LAM1), "turbo": dump_turbo(standard_turbo(3)),
             "config": {**dump_deconfig(DEConfig()), "master_seed": -1},
             "graph": dump_graph(FactorGraphSpec(
                 {"a": Z32, "root": Z32},
                 {"la": leaf("a", LAM1), "eq": FactorNode("equality", ("a", "root"))}, "root"))}
    for name, doc in files.items():
        (tmp_path / f"{name}.json").write_text(to_json(doc))
    conv = _conv_files(tmp_path)
    paths = {f"<{name}>": str(tmp_path / f"{name}.json") for name in files}
    paths.update({"<trellis>": conv[1], "<channel>": conv[3]})
    code, out, err = run_cli(capsys, *(paths.get(a, a) for a in argv))
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == "validation"


@pytest.mark.parametrize("rule", ["marginalize", "all"])
def test_verify_runs_on_the_trivial_group(capsys, rule):
    code, out, err = run_cli(capsys, "verify", "--rule", rule, "--group", "[]", "--seed", "1",
                             "--count", "5")
    assert (code, err) == (0, "")
    assert json.loads(out)["ok"] is True


def test_sampled_commands_report_means_over_samples(tmp_path, capsys):
    from abelianbp.messages import avg_holevo, avg_pgm_error
    from abelianbp.trees import run_mp
    from abelianbp.trellis import decode_block, section_metrics

    files = _conv_files(tmp_path)
    code, out, _ = run_cli(capsys, "conv", "analyze", *files, "--T", "4", "--mode", "sampled",
                           "--seed", "3", "--samples", "50", "--systematic")
    assert code == 0
    lam = EigenList(GroupSpec((3,)), [2.3, 0.35, 0.35])
    want = section_metrics(decode_block(transfer_function_trellis([1, 0, 1], [1, 1, 1], 3),
                                        [[lam]] * 4, mode="sampled", seed=3,
                                        symbol_obs_seq=[lam] * 4, samples=50))
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert [float(r[2]) for r in rows] == pytest.approx(
        [m["posterior_pgm_error"] for m in want], abs=1e-11)

    spec = FactorGraphSpec({"a": Z32, "b": Z32, "root": Z32},
                           {"la": leaf("a", LAM1), "lb": leaf("b", LAM2),
                            "chk": FactorNode("check", ("a", "b", "root"))}, "root")
    g = tmp_path / "g.json"
    g.write_text(to_json(dump_graph(spec)))
    code, out, _ = run_cli(capsys, "mp", "run", "--graph", str(g), "--mode", "sampled",
                           "--seed", "5", "--samples", "8")
    assert code == 0
    doc = json.loads(out)
    msg = run_mp(spec, mode="sampled", seed=5, samples=8)
    assert [b["p"] for b in doc["root"]["branches"]] == [0.125] * 8
    assert [tuple(b["label"]) for b in doc["root"]["branches"]] == list(msg.labels)
    assert doc["metrics"] == {"avg_holevo": avg_holevo(msg), "avg_pgm_error": avg_pgm_error(msg)}


def _leaf_parsers(parser):
    """The parsers of the leaf subcommands under `parser`."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield parser
    for sub in subs:
        for child in sub.choices.values():
            yield from _leaf_parsers(child)


def test_every_leaf_subcommand_has_a_handler():
    leaves = list(_leaf_parsers(build_parser()))
    assert sorted(p.prog for p in leaves) == sorted(
        f"abelianbp {c}" for c in ("groups info", "factor", "measures", "verify", "mp run",
                                   "polar construct", "conv analyze", "de threshold",
                                   "de heatmap", "de holevo"))
    for parser in leaves:
        assert callable(parser.get_default("handler")), parser.prog


@pytest.mark.parametrize("info_bits", ["9", "-1"])
def test_polar_info_bits_out_of_range_exits_2_before_any_output(tmp_path, capsys, info_bits):
    out_file = tmp_path / "stats.csv"
    for out in ((), ("--out", str(out_file))):
        code, stdout, err = run_cli(capsys, "polar", "construct", "--group", "[3]",
                                    "--lambda", "[2.3,0.35,0.35]", "--levels", "2",
                                    "--mode", "exact", "--info-bits", info_bits, *out)
        assert code == 2 and stdout == ""
        assert json.loads(err) == {"error": "validation",
                                   "message": f"info-set size {info_bits} out of range"}
    assert not out_file.exists()


@pytest.mark.parametrize("kind,extra", [
    ("hom", ("--hom", '{"source": {"moduli": [3, 2]}, "target": {"moduli": [3]}, '
                      '"matrix": [[1, 0]]}')),
    ("hom-supported", ("--hom", '{"source": {"moduli": [3, 2]}, "target": {"moduli": [3, 2]}, '
                                '"matrix": [[1, 0], [0, 1]]}')),
    ("lift", ("--hom", '{"source": {"moduli": [3, 2]}, "target": {"moduli": [3, 2]}, '
                       '"matrix": [[1, 0], [0, 1]]}')),
    ("marginalize", ("--keep", "1")),
    ("automorphism", ("--hom", '{"source": {"moduli": [3, 2]}, "target": {"moduli": [3, 2]}, '
                               '"matrix": [[2, 0], [0, 1]]}')),
])
def test_one_operand_factor_kinds_reject_two_inputs(tmp_path, capsys, kind, extra):
    a = tmp_path / "a.json"
    a.write_text(to_json(dump_eigenlist(LAM1)))
    code, out, _ = run_cli(capsys, "factor", kind, "--in", str(a), *extra)
    assert code == 0 and out
    code, out, err = run_cli(capsys, "factor", kind, "--in", str(a), str(a), *extra)
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": "validation",
                               "message": f"{kind} expects exactly one eigen list"}


@pytest.mark.parametrize("kind", ["check", "equality"])
def test_two_operand_factor_kinds_reject_one_input(tmp_path, capsys, kind):
    a = tmp_path / "a.json"
    a.write_text(to_json(dump_eigenlist(LAM1)))
    code, out, err = run_cli(capsys, "factor", kind, "--in", str(a))
    assert code == 2 and out == ""
    assert json.loads(err)["message"] == f"{kind} expects exactly two eigen lists"


HOM_Z32 = ('{"source": {"moduli": [3, 2]}, "target": {"moduli": [3, 2]}, '
           '"matrix": [[1, 0], [0, 1]]}')


@pytest.mark.parametrize("kind, extra, option", [
    ("equality", ("--keep", "1"), "keep"),
    ("check", ("--keep", "5", "--hom", HOM_Z32), "hom"),
    ("check", ("--keep", "5"), "keep"),
    ("marginalize", ("--keep", "1", "--hom", HOM_Z32), "hom"),
    ("automorphism", ("--hom", HOM_Z32, "--keep", "1"), "keep"),
])
def test_factor_rejects_an_option_its_kind_does_not_take(tmp_path, capsys, kind, extra, option):
    """`factor` ran the rule and ignored --hom or --keep on a kind that does not
    take it; each is an exit-2 validation error naming the kind and the option."""
    a = tmp_path / "a.json"
    a.write_text(to_json(dump_eigenlist(LAM1)))
    code, out, err = run_cli(capsys, "factor", kind, "--in", *[str(a)] * _FACTORS[kind][0], *extra)
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "validation", "message": f"{kind} takes no --{option}"}


def test_sampled_runs_reject_a_prune_threshold(tmp_path, capsys):
    """Sampled runs never prune, and ignored a threshold; it is an exit-2 error."""
    spec = FactorGraphSpec({"a": Z32, "root": Z32},
                           {"la": leaf("a", LAM1), "eq": FactorNode("equality", ("a", "root"))},
                           "root")
    g = tmp_path / "g.json"
    g.write_text(to_json(dump_graph(spec)))
    for argv in (("mp", "run", "--graph", str(g), "--mode", "sampled", "--seed", "1"),
                 ("polar", "construct", "--group", "[3]", "--lambda", "[2.3,0.35,0.35]",
                  "--levels", "2", "--mode", "sampled", "--seed", "1")):
        assert run_cli(capsys, *argv)[0] == 0
        code, out, err = run_cli(capsys, *argv, "--prune", "0.1")
        assert (code, out) == (2, "")
        assert "prune threshold 0.1" in json.loads(err)["message"]


def test_invalid_hom_and_trellis_documents_are_rejected_when_parsed():
    with pytest.raises(ValidationError, match="not a homomorphism"):
        parse_hom({"source": {"moduli": [3]}, "target": {"moduli": [2]}, "matrix": [[1]]})
    doc = dump_trellis(transfer_function_trellis([1, 0, 1], [1, 1, 1], 3))
    doc["outputs"][0]["matrix"] = [[0, 0, 0]]
    with pytest.raises(ValidationError, match="output 0 is not surjective"):
        parse_trellis(doc)


def test_polar_info_bits_writes_the_chosen_set_to_stderr(capsys):
    from abelianbp.polar import select_info_set, synthesize

    code, out, err = run_cli(capsys, "polar", "construct", "--group", "[3]", "--lambda",
                             "[2.3,0.35,0.35]", "--levels", "2", "--mode", "exact",
                             "--info-bits", "2")
    stats = synthesize(EigenList(GroupSpec((3,)), [2.3, 0.35, 0.35]), 2, mode="exact")
    assert code == 0 and out.startswith("index,avg_holevo_bits,avg_pgm_error\n")
    assert err == to_json({"info_set": select_info_set(stats, 2)}) + "\n"   # one JSON object


def test_nan_herald_probability_from_a_kernel_exits_3(tmp_path, capsys, monkeypatch):
    """A check kernel that gives one herald of one row probability NaN makes
    sampled `mp run` a numerical error (exit 3) with empty stdout; the herald
    draw read the NaN as a zero and drew another herald."""
    import abelianbp.trees as trees
    from abelianbp.factors import _check
    from test_trees import chain_graph

    def nan_check(G):
        rule = _check(G)

        def rows(*operands):
            grid = rule.rows(*operands).copy()
            grid[0, 1, 0] = np.nan
            return grid
        return rule._replace(rows=rows)

    monkeypatch.setattr(trees, "_check", nan_check)
    g = tmp_path / "g.json"
    g.write_text(to_json(dump_graph(chain_graph([LAM1, LAM2], kind="check"))))
    code, out, err = run_cli(capsys, "mp", "run", "--graph", str(g), "--mode", "sampled",
                             "--seed", "1", "--samples", "3")
    assert (code, out) == (3, "")
    assert json.loads(err)["error"] == "numerical"


def _hom_graph(leaf_fields, map_fields=None):
    """A leaf on a feeding a hom factor a -> b on Z3, as a graph document
    whose leaf and hom factors carry extra fields."""
    z3 = {"moduli": [3]}
    hom = {"source": z3, "target": z3, "matrix": [[1]]}
    return {"version": 1, "variables": {"a": z3, "b": z3}, "root": "b",
            "factors": {"obs": {"kind": "leaf", "edges": ["a"], **leaf_fields},
                        "map": {"kind": "hom", "edges": ["a", "b"], "hom": hom,
                                **(map_fields or {})}}}


def test_contradictory_factor_fields_exit_2(tmp_path, capsys):
    """A leaf with both a message and an eigen list, and a hom factor with a
    split point, ran on the message alone and exited 0; each is an exit-2
    validation error that names the factor, with empty stdout."""
    lam = {"group": {"moduli": [3]}, "values": [2.3, 0.35, 0.35]}
    perfect = {"group": {"moduli": [3]},
               "branches": [{"p": 1.0, "lambda": [1.0, 1.0, 1.0]}]}
    cases = [(_hom_graph({"eigenlist": lam, "message": perfect}), "'obs'"),
             (_hom_graph({"eigenlist": lam}, {"keep": 7}), "'map'"),
             (_hom_graph({"eigenlist": lam, "message": perfect}, {"keep": 7}), "'obs'")]
    g = tmp_path / "g.json"
    for doc, name in cases:
        g.write_text(to_json(doc))
        for mode in ("exact", "sampled"):
            code, out, err = run_cli(capsys, "mp", "run", "--graph", str(g), "--mode", mode,
                                     "--seed", "1")
            assert (code, out) == (2, "")
            assert json.loads(err)["error"] == "validation" and name in json.loads(err)["message"]


def test_a_graph_that_does_not_fit_its_factors_exits_2(tmp_path, capsys):
    """A marginalize factor keeping 5 coordinates of a rank-2 input passed the
    graph check; read toward its input it ended in an IndexError traceback
    (exit 1).  It is one JSON validation error naming the factor, in both modes."""
    z32 = {"moduli": [3, 2]}
    doc = {"version": 1, "variables": {"a": z32, "b": z32}, "root": "a",
           "factors": {"obs": {"kind": "leaf", "edges": ["b"],
                               "eigenlist": {"group": z32, "values": LAM1.values.tolist()}},
                       "marg": {"kind": "marginalize", "edges": ["a", "b"], "keep": 5}}}
    g = tmp_path / "g.json"
    g.write_text(to_json(doc))
    for mode in ("exact", "sampled"):
        code, out, err = run_cli(capsys, "mp", "run", "--graph", str(g), "--mode", mode,
                                 "--seed", "1")
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": "validation",
                                   "message": "marginalize factor 'marg': keep 5 not in 0..2"}


def test_a_trellis_document_missing_a_section_field_exits_2(tmp_path, capsys):
    """The trellis schema requires no section field (the shorthand replaces
    them); the parser names the missing ones."""
    argv = _conv_files(tmp_path)
    doc = dump_trellis(transfer_function_trellis([1, 0, 1], [1, 1, 1], 3))
    del doc["outputs"]
    (tmp_path / "trellis.json").write_text(to_json(doc))
    code, out, err = run_cli(capsys, "conv", "analyze", *argv, "--T", "3")
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "validation",
                               "message": "trellis document missing fields ['outputs']"}


def test_polar_population_past_the_address_space_exits_2(capsys):
    """A sampled population numpy refuses to allocate ended in numpy's
    traceback (exit 1); it is one JSON validation error naming the request."""
    for levels in ("40", "60"):
        code, out, err = run_cli(capsys, "polar", "construct", "--group", "[3]", "--lambda",
                                 "[2.3,0.35,0.35]", "--levels", levels, "--seed", "1")
        assert (code, out) == (2, "")
        message = json.loads(err)["message"]
        assert f"1000 samples at {levels} levels" in message
