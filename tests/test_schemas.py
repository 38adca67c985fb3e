"""Wire-format contract: closed records, one validation per document, path-addressed
errors from the top document, integral JSON floats in integer fields, *.json paths on
the command line, and the package's checker reporting what jsonschema reports."""

import copy
import json
import random
from dataclasses import replace

import pytest

from abelianbp import SCHEMA_VERSION, check_combine
from abelianbp import schemas
from abelianbp.cli import main
from abelianbp.de import DEConfig, channel_family, standard_turbo
from abelianbp.errors import ValidationError
from abelianbp.schemas import (
    SCHEMAS,
    dump_deconfig,
    dump_eigenlist,
    dump_graph,
    dump_hom,
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
    to_json,
)
from abelianbp.trellis import transfer_function_trellis, unroll_to_tree

SPEC = transfer_function_trellis([1, 0, 1], [1, 1, 1], 3)
LAM = channel_family(3, 2.3)
VALS = [2.5, 0.5, 0.9, 0.6, 0.8, 0.7]
HOM = {"source": {"moduli": [3]}, "target": {"moduli": [3]}, "matrix": [[2]]}
MESSAGE = {"group": {"moduli": [3, 2]}, "branches": [
    {"p": 0.5, "lambda": VALS, "label": ["x"]}, {"p": 0.5, "lambda": VALS[1:] + VALS[:1]}]}
# every factor kind with every parameter: an eigenlist leaf, a message leaf, keep, homs
GRAPH = {
    "version": 1,
    "variables": {"a": {"moduli": [3, 2]}, "b": {"moduli": [3, 2]}, "c": {"moduli": [3]},
                  "d": {"moduli": [3]}, "e": {"moduli": [3]}},
    "factors": {
        "la": {"kind": "leaf", "edges": ["a"],
               "eigenlist": {"group": {"moduli": [3, 2]}, "values": VALS}},
        "lb": {"kind": "leaf", "edges": ["b"], "message": MESSAGE},
        "chk": {"kind": "check", "edges": ["a", "b"]},
        "mg": {"kind": "marginalize", "edges": ["b", "c"], "keep": 1},
        "hm": {"kind": "hom", "edges": ["c", "d"], "hom": HOM},
        "au": {"kind": "automorphism", "edges": ["d", "e"], "hom": HOM},
    },
    "root": "e",
}
CONFIG = {"version": 1, "population": 100, "max_iterations": 3}


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def _floated(doc):
    """`doc` with every integer written as an integral float, as JSON allows."""
    if isinstance(doc, dict):
        return {k: _floated(v) for k, v in doc.items()}
    if isinstance(doc, list):
        return [_floated(v) for v in doc]
    return float(doc) if isinstance(doc, int) and not isinstance(doc, bool) else doc


def _object_schemas(schema, path=()):
    """(path, schema) for every object schema at every depth of `schema`."""
    if isinstance(schema, dict):
        if schema.get("type") == "object":
            yield path, schema
        for key, sub in schema.items():
            yield from _object_schemas(sub, (*path, key))
    elif isinstance(schema, list):
        for i, sub in enumerate(schema):
            yield from _object_schemas(sub, (*path, i))


# ---------------------------------------------------------------------------
# the schemas


def test_every_object_schema_is_closed_except_the_graph_maps():
    maps = []
    for kind, schema in SCHEMAS.items():
        for path, obj in _object_schemas(schema):
            if kind == "graph" and path in {("properties", "variables"),
                                            ("properties", "factors")}:
                assert isinstance(obj["additionalProperties"], dict)   # values are schemas
                maps.append(path[-1])
            else:
                assert obj["additionalProperties"] is False, (kind, path)
    assert sorted(maps) == ["factors", "variables"]


@pytest.mark.parametrize("kind", list(SCHEMAS))
def test_exactly_the_containers_require_their_version(kind):
    schema = SCHEMAS[kind]
    container = kind in ("graph", "trellis", "turbo", "deconfig")
    assert ("version" in schema["required"]) == container
    if container:
        assert schema["properties"]["version"] == {"const": SCHEMA_VERSION}


# ---------------------------------------------------------------------------
# one validation per document

TREE = dump_graph(unroll_to_tree(SPEC, [[LAM]] * 3, 1, symbol_obs_seq=[LAM] * 3))
DOCUMENTS = [
    ("graph", parse_graph, GRAPH),
    ("graph", parse_graph, TREE),
    ("turbo", parse_turbo, dump_turbo(standard_turbo(3))),
    ("trellis", parse_trellis, dump_trellis(SPEC)),
    ("hom", parse_hom, dump_hom(SPEC.section_automorphism)),
    ("message", parse_message, dump_message(check_combine(LAM, LAM))),
    ("eigenlist", parse_eigenlist, dump_eigenlist(LAM)),
]


@pytest.mark.parametrize("kind, parse, doc", DOCUMENTS)
def test_a_parse_validates_its_document_once(monkeypatch, kind, parse, doc):
    seen, validate = [], schemas.schema_validate
    monkeypatch.setattr(schemas, "schema_validate",
                        lambda d, k: (seen.append(k), validate(d, k)))
    parse(json.loads(to_json(doc)))
    assert seen == [kind]


def test_nested_errors_name_their_path_from_the_top_document():
    graph = copy.deepcopy(TREE)
    graph["factors"]["next0"]["hom"]["matrix"][0][2] = "x"
    with pytest.raises(ValidationError) as err:
        parse_graph(graph)
    assert str(err.value) == ("graph schema violation at factors/next0/hom/matrix/0/2: "
                              "'x' is not of type 'integer'")
    turbo = dump_turbo(standard_turbo(3))
    turbo["constituents"][0]["extra"] = 1
    with pytest.raises(ValidationError) as err:
        parse_turbo(turbo)
    assert str(err.value) == ("turbo schema violation at constituents/0: Additional properties "
                              "are not allowed ('extra' was unexpected)")


# ---------------------------------------------------------------------------
# integral floats in integer fields

ROUND_TRIPS = [
    (parse_graph, dump_graph, GRAPH),
    (parse_trellis, dump_trellis, dump_trellis(SPEC)),
    (parse_trellis, dump_trellis, {"version": 1, "transfer_function": {
        "p": [1, 0, 1], "q": [1, 1, 1], "modulus": 3}}),
    (parse_turbo, dump_turbo, dump_turbo(standard_turbo(3))),
    (parse_deconfig, dump_deconfig, dump_deconfig(DEConfig())),
]


@pytest.mark.parametrize("parse, dump, doc", ROUND_TRIPS)
def test_integer_fields_parse_to_ints_from_integral_floats(parse, dump, doc):
    """Every schema integer is dumped, and an int dumps without a decimal point."""
    assert to_json(dump(parse(_floated(doc)))) == to_json(dump(parse(doc)))


@pytest.mark.parametrize("flag, doc, field, argv", [
    ("--graph", GRAPH, ("factors", "mg", "keep"), ["mp", "run"]),
    ("--trellis", dump_trellis(SPEC), ("memory",),
     ["conv", "analyze", "--channel", "CHANNEL", "--T", "3", "--systematic"]),
    ("--turbo", dump_turbo(standard_turbo(3)), ("systematic_mult",),
     ["de", "threshold", "--config", "CONFIG", "--resolution", "0.5", "--trials", "1"]),
    ("--config", CONFIG, ("population",),
     ["de", "threshold", "--turbo", "TURBO", "--resolution", "0.5", "--trials", "1"]),
])
def test_cli_reads_integral_floats_as_their_integers(tmp_path, capsys, flag, doc, field, argv):
    """The all-floats document runs as its integer form; `field` at 1.5 exits 2."""
    files = {"CHANNEL": dump_eigenlist(LAM), "CONFIG": CONFIG,
             "TURBO": dump_turbo(standard_turbo(3))}
    for name, content in files.items():
        (tmp_path / f"{name}.json").write_text(to_json(content))
    argv = [str(tmp_path / f"{a}.json") if a in files else a for a in argv]
    fractional = copy.deepcopy(doc)
    part = fractional
    for key in field[:-1]:
        part = part[key]
    part[field[-1]] = 1.5
    outputs = []
    for i, content in enumerate((doc, _floated(doc), fractional)):
        path = tmp_path / f"doc{i}.json"
        path.write_text(json.dumps(content))
        outputs.append(run_cli(capsys, *argv, flag, str(path)))
    assert outputs[0][0] == 0
    assert outputs[1][:2] == outputs[0][:2]
    assert outputs[2][0] == 2
    assert f"{'/'.join(field)}: 1.5 is not of type 'integer'" in outputs[2][2]


# ---------------------------------------------------------------------------
# *.json paths


def test_json_paths_that_begin_with_a_digit_are_read_as_files(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "32.json").write_text("[3, 2]")
    (tmp_path / "1.json").write_text(json.dumps(HOM))
    (tmp_path / "ch.json").write_text(to_json(dump_eigenlist(LAM)))
    assert run_cli(capsys, "groups", "info", "--group", "32.json") == \
        run_cli(capsys, "groups", "info", "--group", "[3,2]")
    from_file = run_cli(capsys, "factor", "hom", "--in", "ch.json", "--hom", "1.json")
    assert from_file[0] == 0
    assert from_file == run_cli(capsys, "factor", "hom", "--in", "ch.json",
                                "--hom", json.dumps(HOM))


# ---------------------------------------------------------------------------
# the checker against jsonschema, its reference

KEYWORDS = {"type", "properties", "required", "additionalProperties", "const", "enum",
            "items", "minItems", "maxItems", "minimum"}
BASES = [
    ("group", {"moduli": [3, 2]}),
    ("hom", HOM),
    ("hom", dump_hom(SPEC.section_automorphism)),
    ("eigenlist", dump_eigenlist(LAM)),
    ("message", MESSAGE),
    ("graph", GRAPH),
    ("trellis", dump_trellis(SPEC)),
    ("trellis", {"version": 1, "transfer_function": {"p": [1, 0, 1], "q": [1, 1, 1],
                                                     "modulus": 3}, "boundary": "unknown"}),
    ("turbo", {**dump_turbo(standard_turbo(3)), "target_rate": "1/3"}),
    ("deconfig", dump_deconfig(DEConfig())),
]
# a bool, ints, integral and other floats, strings, lists and objects
VALUES = [True, False, None, 0, 1, -1, 2, 1.0, 2.0, -3.0, 0.5, -1.5, float("nan"),
          "x", "known", "leaf", [], [1, 2], [{"moduli": [3]}], {}, {"moduli": [3]}, {"aa": 1}]


def _keywords(schema):
    """Every keyword used in `schema`, at every depth."""
    yield from schema
    for key, sub in schema.items():
        if key == "properties":
            for prop in sub.values():
                yield from _keywords(prop)
        elif key in ("items", "additionalProperties") and isinstance(sub, dict):
            yield from _keywords(sub)


def _slots(doc):
    """(container, key) for every value below `doc`."""
    keys = doc if isinstance(doc, dict) else range(len(doc)) if isinstance(doc, list) else ()
    for key in list(keys):
        yield doc, key
        yield from _slots(doc[key])


def _mutate(box, rng):
    """Replace a value, delete a key or an item, add an unknown key or append an item,
    somewhere in the document `box[0]` (which a replacement may swap whole)."""
    slots = list(_slots(box))
    parent, key = rng.choice(slots)
    op = rng.randrange(4)
    if op == 0:
        parent[key] = copy.deepcopy(rng.choice(VALUES))
    elif op == 1:
        if parent is not box:
            del parent[key]
    elif op == 2:
        objects = [d[k] for d, k in slots if isinstance(d[k], dict)]
        if objects:
            rng.choice(objects)[rng.choice(["extra", "aa", "zz", "version", "label"])] = 1
    else:
        lists = [d[k] for d, k in slots if isinstance(d[k], list)]
        if lists:
            items = rng.choice(lists)
            items.append(copy.deepcopy(rng.choice(items + VALUES[:4])))


def test_the_checker_knows_every_keyword_in_the_schemas():
    assert {k for schema in SCHEMAS.values() for k in _keywords(schema)} <= KEYWORDS


def test_the_checker_reports_what_jsonschema_best_match_reports():
    """Seeded mutations of a document of every kind give the same error as
    jsonschema's `best_match`, path and message, or no error on either side."""
    jsonschema = pytest.importorskip("jsonschema")

    def reference(doc, kind):
        best = jsonschema.exceptions.best_match(validators[kind].iter_errors(doc))
        if best is not None:
            path = "/".join(map(str, best.absolute_path)) or "(root)"
            return f"{kind} schema violation at {path}: {best.message}"

    def ours(doc, kind):
        try:
            schemas.schema_validate(doc, kind)
        except ValidationError as exc:
            return str(exc)

    validators = {kind: jsonschema.validators.validator_for(s)(s) for kind, s in SCHEMAS.items()}
    rng, found = random.Random(26), []
    for kind, base in BASES:
        for _ in range(520):
            box = [copy.deepcopy(base)]
            for _ in range(rng.randint(1, 3)):
                _mutate(box, rng)
            expected = reference(box[0], kind)
            assert ours(box[0], kind) == expected, (kind, box[0])
            found.append(expected)
    assert {kind for kind, _ in BASES} == set(SCHEMAS)
    assert len(found) >= 5000
    errors = [e for e in found if e is not None]
    assert len(found) / 10 < len(errors) < len(found)
    assert any("' was unexpected" in e for e in errors)
    assert any("' were unexpected" in e for e in errors)


_TRELLIS_DOC = dump_trellis(SPEC)


@pytest.mark.parametrize("doc, message", [
    ({"version": 1, "transfer_function": {"p": [1], "q": [1], "modulus": 3}, "memory": 0},
     "transfer_function shorthand does not mix with fields ['memory']"),
    ({k: v for k, v in _TRELLIS_DOC.items() if k != "outputs"},
     "trellis document missing fields ['outputs']"),
    ({k: v for k, v in _TRELLIS_DOC.items() if k not in ("memory", "outputs")},
     "trellis document missing fields ['memory', 'outputs']"),
], ids=["shorthand-with-fields", "missing-outputs", "missing-two-fields"])
def test_trellis_documents_the_schema_accepts_can_still_be_incomplete(doc, message):
    """The trellis schema requires no section field, since the shorthand
    replaces them all; the parser names the fields that do not fit."""
    with pytest.raises(ValidationError) as info:
        parse_trellis(doc)
    assert str(info.value) == message


def test_unknown_schema_kind_is_rejected():
    with pytest.raises(ValidationError) as exc:
        schemas.schema_validate({}, "bogus")
    assert exc.type is ValidationError and str(exc.value) == "unknown schema kind 'bogus'"


def test_turbo_document_keeps_its_target_rate():
    spec = standard_turbo(3)
    doc = dump_turbo(replace(spec, target_rate=spec.rate))
    assert doc["target_rate"] == "1/3"
    assert parse_turbo(doc).target_rate == spec.rate
