"""Versioned JSON schemas and (de)serialization for every wire format.

Formats (all reject unknown fields):

* group            ``{"moduli": [n0, n1, ...]}``
* element / char   bare residue array ``[a0, a1, ...]``
* hom              ``{"source": group, "target": group, "matrix": [[...], ...]}``
* eigen list       ``{"group": group, "values": [...]}``
* heralded message ``{"group": group, "branches": [{"p":..., "lambda": [...],
                     "label": [...]}, ...]}``
* factor graph     ``{"version": 1, "variables": {...}, "factors": {...},
                     "root": id}``
* trellis          explicit section description or the transfer-function
                   shorthand ``{"transfer_function": {"p": [...], "q": [...],
                     "modulus": n}}``
* turbo / deconfig dataclass field dumps

Emitted JSON uses Python's shortest round-trip float representation, so every
document re-parses to bit-identical values.
"""

from __future__ import annotations

import dataclasses
import json
import numbers

from . import SCHEMA_VERSION
from .de import DEConfig, TurboSpec, parse_fraction
from .eigenlists import EigenList
from .errors import ValidationError
from .groups import GroupSpec, HomSpec
from .messages import HeraldedMessage, pure
from .trees import FACTOR_KINDS, FactorGraphSpec, FactorNode
from .trellis import TrellisSpec, transfer_function_trellis


def _record(properties: dict, *required: str, version: bool = False) -> dict:
    """A closed object schema: only `properties`, of which `required` must
    appear; a container (`version`) also requires ``"version": 1``."""
    if version:
        properties = {"version": {"const": SCHEMA_VERSION}, **properties}
        required = ("version", *required)
    return {"type": "object", "properties": properties, "required": list(required),
            "additionalProperties": False}


_MODULUS = {"type": "integer", "minimum": 2}
_COUNT = {"type": "integer", "minimum": 0}
_POSITIVE = {"type": "integer", "minimum": 1}
_GROUP = _record({"moduli": {"type": "array", "items": _MODULUS}}, "moduli")
_INTEGERS = {"type": "array", "items": {"type": "integer"}}
_MATRIX = {"type": "array", "items": _INTEGERS}
_HOM = _record({"source": _GROUP, "target": _GROUP, "matrix": _MATRIX},
               "source", "target", "matrix")
_NUMBERS = {"type": "array", "items": {"type": "number"}}
_EIGENLIST = _record({"group": _GROUP, "values": _NUMBERS}, "group", "values")
_BRANCH = _record({
    "p": {"type": "number"},
    "lambda": _NUMBERS,
    "label": {"type": "array", "items": {"type": "string"}},
}, "p", "lambda")
_MESSAGE = _record({"group": _GROUP, "branches": {"type": "array", "items": _BRANCH,
                                                  "minItems": 1}},
                   "group", "branches")
_FACTOR = _record({
    "kind": {"enum": list(FACTOR_KINDS)},
    "edges": {"type": "array", "items": {"type": "string"}, "minItems": 1},
    "message": _MESSAGE,
    "eigenlist": _EIGENLIST,
    "hom": _HOM,
    "keep": _COUNT,
}, "kind", "edges")
_GRAPH = _record({
    "variables": {"type": "object", "additionalProperties": _GROUP},
    "factors": {"type": "object", "additionalProperties": _FACTOR},
    "root": {"type": "string"},
}, "variables", "factors", "root", version=True)
_TRANSFER = _record({"p": _INTEGERS, "q": _INTEGERS, "modulus": _MODULUS}, "p", "q", "modulus")
_TRELLIS = _record({
    "transfer_function": _TRANSFER,
    "symbol_group": _GROUP,
    "memory": _COUNT,
    "output_group": _GROUP,
    "outputs": {"type": "array", "items": _HOM},
    "section_automorphism": _HOM,
    "boundary": {"enum": ["known", "unknown"]},
}, version=True)
_TURBO = _record({
    "constituents": {"type": "array", "items": _TRELLIS, "minItems": 2, "maxItems": 2},
    "systematic_mult": _COUNT,
    "parity_mults": {"type": "array", "items": _COUNT, "minItems": 2, "maxItems": 2},
    "target_rate": {"type": "string"},
}, "constituents", version=True)
_DECONFIG = _record({
    "population": _POSITIVE,
    "max_iterations": _POSITIVE,
    "window": _POSITIVE,
    "err_threshold": {"type": "number"},
    "stall_rel": {"type": "number"},
    "stall_window": _POSITIVE,
    "master_seed": _COUNT,
}, version=True)

SCHEMAS = {
    "group": _GROUP,
    "hom": _HOM,
    "eigenlist": _EIGENLIST,
    "message": _MESSAGE,
    "graph": _GRAPH,
    "trellis": _TRELLIS,
    "turbo": _TURBO,
    "deconfig": _DECONFIG,
}


def schema_validate(document, kind: str) -> None:
    """Validate a parsed JSON document against the named schema.

    Raises ValidationError with a path-addressed message; structural checks
    beyond the schema (hom validity, eigen-list sums, ...) happen in the
    corresponding parser.  It reports the shallowest violation, then the greatest path.
    """
    if kind not in SCHEMAS:
        raise ValidationError(f"unknown schema kind {kind!r}")
    error = max(_errors(document, SCHEMAS[kind]), key=lambda e: (-len(e[0]), e[0]), default=None)
    if error is not None:
        path = "/".join(map(str, error[0])) or "(root)"
        raise ValidationError(f"{kind} schema violation at {path}: {error[1]}")


_TYPES = {"object": dict, "array": list, "string": str, "number": numbers.Number, "integer": int}


def _is(doc, type_: str) -> bool:
    """JSON Schema's type test: a bool is no number, an integral float is an integer."""
    if type_ == "integer" and isinstance(doc, float):
        return doc.is_integer()
    return not isinstance(doc, bool) and isinstance(doc, _TYPES[type_])


def _errors(doc, schema: dict, path: tuple = ()):
    """(path, message) for each violation of `schema` by `doc`, in schema keyword order, for
    the ten keywords SCHEMAS uses, worded as the validator test_schemas compares it with."""
    for key, want in schema.items():
        if key == "type" and not _is(doc, want):
            yield path, f"{doc!r} is not of type {want!r}"
        elif key == "const" and (isinstance(doc, bool) or doc != want):
            yield path, f"{want!r} was expected"
        elif key == "enum" and doc not in want:
            yield path, f"{doc!r} is not one of {want!r}"
        elif key == "minimum" and _is(doc, "number") and doc < want:
            yield path, f"{doc!r} is less than the minimum of {want!r}"
        elif key == "minItems" and isinstance(doc, list) and len(doc) < want:
            yield path, f"{doc!r} {'should be non-empty' if want == 1 else 'is too short'}"
        elif key == "maxItems" and isinstance(doc, list) and len(doc) > want:
            yield path, f"{doc!r} is too long"
        elif key == "items" and isinstance(doc, list):
            for i, item in enumerate(doc):
                yield from _errors(item, want, (*path, i))
        elif key == "properties" and isinstance(doc, dict):
            for name in filter(doc.__contains__, want):
                yield from _errors(doc[name], want[name], (*path, name))
        elif key == "required" and isinstance(doc, dict):
            yield from ((path, f"{k!r} is a required property") for k in want if k not in doc)
        elif key == "additionalProperties" and isinstance(doc, dict):
            extra = sorted((k for k in doc if k not in schema.get("properties", ())), key=str)
            if isinstance(want, dict):
                for name in extra:
                    yield from _errors(doc[name], want, (*path, name))
            elif extra:
                yield path, "Additional properties are not allowed (%s %s unexpected)" % (
                    ", ".join(map(repr, extra)), "was" if len(extra) == 1 else "were")


# ---------------------------------------------------------------------------
# dump / parse pairs
#
# Each public parse_* validates its whole document once; the private builders
# below it read parts that schema already checked, reading every schema
# integer with int() because JSON Schema's "integer" admits integral floats.


def dump_group(G: GroupSpec) -> dict:
    return {"moduli": list(G.moduli)}


def _group(doc) -> GroupSpec:
    return GroupSpec(tuple(doc["moduli"]))


def parse_group(doc) -> GroupSpec:
    if isinstance(doc, list):       # CLI shorthand: bare moduli array
        doc = {"moduli": doc}
    schema_validate(doc, "group")
    return _group(doc)


def dump_hom(H: HomSpec) -> dict:
    return {"source": dump_group(H.source), "target": dump_group(H.target),
            "matrix": [list(row) for row in H.matrix]}


def _hom(doc) -> HomSpec:
    return HomSpec(_group(doc["source"]), _group(doc["target"]),
                   tuple(tuple(row) for row in doc["matrix"]))


def parse_hom(doc) -> HomSpec:
    schema_validate(doc, "hom")
    return _hom(doc)


def dump_eigenlist(lam: EigenList) -> dict:
    return {"group": dump_group(lam.group), "values": [float(v) for v in lam.values]}


def _eigenlist(doc) -> EigenList:
    return EigenList(_group(doc["group"]), doc["values"])


def parse_eigenlist(doc) -> EigenList:
    schema_validate(doc, "eigenlist")
    return _eigenlist(doc)


def dump_message(msg: HeraldedMessage) -> dict:
    return {
        "group": dump_group(msg.group),
        "branches": [
            {"p": p, "lambda": lam, "label": list(labels)}
            for p, lam, labels in zip(msg.probs.tolist(), msg.lams.tolist(), msg.labels)
        ],
    }


def _message(doc) -> HeraldedMessage:
    G, branches = _group(doc["group"]), doc["branches"]
    return HeraldedMessage.of(G, [b["p"] for b in branches], [b["lambda"] for b in branches],
                              [b.get("label", ()) for b in branches])


def parse_message(doc) -> HeraldedMessage:
    schema_validate(doc, "message")
    return _message(doc)


def dump_graph(spec: FactorGraphSpec) -> dict:
    factors = {}
    for fid, f in spec.factors.items():
        entry = {"kind": f.kind, "edges": list(f.edges)}
        if f.message is not None:
            entry["message"] = dump_message(f.message)
        if f.hom is not None:
            entry["hom"] = dump_hom(f.hom)
        if f.keep is not None:
            entry["keep"] = f.keep
        factors[fid] = entry
    return {
        "version": SCHEMA_VERSION,
        "variables": {v: dump_group(g) for v, g in spec.variables.items()},
        "factors": factors,
        "root": spec.root,
    }


def parse_graph(doc) -> FactorGraphSpec:
    schema_validate(doc, "graph")
    variables = {v: _group(g) for v, g in doc["variables"].items()}
    factors = {}
    for fid, f in doc["factors"].items():
        message = None
        if "message" in f and "eigenlist" in f:
            raise ValidationError(f"factor {fid!r} carries both a message and an eigenlist")
        if "message" in f:
            message = _message(f["message"])
        elif "eigenlist" in f:
            message = pure(_eigenlist(f["eigenlist"]))
        factors[fid] = FactorNode(
            f["kind"], tuple(f["edges"]), message=message,
            hom=_hom(f["hom"]) if "hom" in f else None,
            keep=int(f["keep"]) if "keep" in f else None,
        )
    return FactorGraphSpec(variables, factors, doc["root"])


def dump_trellis(spec: TrellisSpec) -> dict:
    return {
        "version": SCHEMA_VERSION,
        "symbol_group": dump_group(spec.symbol_group),
        "memory": spec.memory,
        "output_group": dump_group(spec.output_group),
        "outputs": [dump_hom(L) for L in spec.outputs],
        "section_automorphism": dump_hom(spec.section_automorphism),
        "boundary": spec.boundary,
    }


def _trellis(doc) -> TrellisSpec:
    if "transfer_function" in doc:
        tf = doc["transfer_function"]
        extra = set(doc) - {"version", "transfer_function", "boundary"}
        if extra:
            raise ValidationError(
                f"transfer_function shorthand does not mix with fields {sorted(extra)}"
            )
        spec = transfer_function_trellis(tf["p"], tf["q"], tf["modulus"])
        return dataclasses.replace(spec, boundary=doc.get("boundary", spec.boundary))
    needed = {"symbol_group", "memory", "output_group", "outputs",
              "section_automorphism"}
    missing = needed - set(doc)
    if missing:
        raise ValidationError(f"trellis document missing fields {sorted(missing)}")
    return TrellisSpec(
        _group(doc["symbol_group"]), int(doc["memory"]),
        _group(doc["output_group"]),
        tuple(_hom(L) for L in doc["outputs"]),
        _hom(doc["section_automorphism"]),
        boundary=doc.get("boundary", "known"),
    )


def parse_trellis(doc) -> TrellisSpec:
    schema_validate(doc, "trellis")
    return _trellis(doc)


def dump_turbo(spec: TurboSpec) -> dict:
    doc = {
        "version": SCHEMA_VERSION,
        "constituents": [dump_trellis(c) for c in spec.constituents],
        "systematic_mult": spec.systematic_mult,
        "parity_mults": list(spec.parity_mults),
    }
    if spec.target_rate is not None:
        doc["target_rate"] = str(spec.target_rate)
    return doc


def parse_turbo(doc) -> TurboSpec:
    schema_validate(doc, "turbo")
    rate = parse_fraction(doc["target_rate"], "target_rate") if "target_rate" in doc else None
    return TurboSpec(
        tuple(_trellis(c) for c in doc["constituents"]),
        systematic_mult=int(doc.get("systematic_mult", 1)),
        parity_mults=tuple(int(m) for m in doc.get("parity_mults", (1, 1))),
        target_rate=rate,
    )


def dump_deconfig(cfg: DEConfig) -> dict:
    return {"version": SCHEMA_VERSION, **dataclasses.asdict(cfg)}


def parse_deconfig(doc) -> DEConfig:
    schema_validate(doc, "deconfig")
    types = {k: s.get("type") for k, s in _DECONFIG["properties"].items()}
    return DEConfig(**{k: int(v) if types[k] == "integer" else v
                       for k, v in doc.items() if k != "version"})


def to_json(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True)
