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
import functools
import json

import jsonschema

from . import SCHEMA_VERSION
from .de import DEConfig, TurboSpec, parse_fraction
from .eigenlists import EigenList
from .errors import ValidationError
from .groups import GroupSpec, HomSpec
from .messages import HeraldedMessage, pure
from .trees import FACTOR_KINDS, FactorGraphSpec, FactorNode
from .trellis import TrellisSpec, transfer_function_trellis

_GROUP = {
    "type": "object",
    "properties": {"moduli": {"type": "array", "items": {"type": "integer", "minimum": 2}}},
    "required": ["moduli"],
    "additionalProperties": False,
}
_MATRIX = {"type": "array", "items": {"type": "array", "items": {"type": "integer"}}}
_HOM = {
    "type": "object",
    "properties": {"source": _GROUP, "target": _GROUP, "matrix": _MATRIX},
    "required": ["source", "target", "matrix"],
    "additionalProperties": False,
}
_NUMBERS = {"type": "array", "items": {"type": "number"}}
_EIGENLIST = {
    "type": "object",
    "properties": {"group": _GROUP, "values": _NUMBERS},
    "required": ["group", "values"],
    "additionalProperties": False,
}
_MESSAGE = {
    "type": "object",
    "properties": {
        "group": _GROUP,
        "branches": {
            "type": "array",
            "items": {
                "type": "object",
                "properties": {
                    "p": {"type": "number"},
                    "lambda": _NUMBERS,
                    "label": {"type": "array", "items": {"type": "string"}},
                },
                "required": ["p", "lambda"],
                "additionalProperties": False,
            },
            "minItems": 1,
        },
    },
    "required": ["group", "branches"],
    "additionalProperties": False,
}
_FACTOR = {
    "type": "object",
    "properties": {
        "kind": {"enum": list(FACTOR_KINDS)},
        "edges": {"type": "array", "items": {"type": "string"}, "minItems": 1},
        "message": _MESSAGE,
        "eigenlist": _EIGENLIST,
        "hom": _HOM,
        "keep": {"type": "integer", "minimum": 0},
    },
    "required": ["kind", "edges"],
    "additionalProperties": False,
}
_GRAPH = {
    "type": "object",
    "properties": {
        "version": {"const": SCHEMA_VERSION},
        "variables": {"type": "object", "additionalProperties": _GROUP},
        "factors": {"type": "object", "additionalProperties": _FACTOR},
        "root": {"type": "string"},
    },
    "required": ["version", "variables", "factors", "root"],
    "additionalProperties": False,
}
_TRANSFER = {
    "type": "object",
    "properties": {
        "p": {"type": "array", "items": {"type": "integer"}},
        "q": {"type": "array", "items": {"type": "integer"}},
        "modulus": {"type": "integer", "minimum": 2},
    },
    "required": ["p", "q", "modulus"],
    "additionalProperties": False,
}
_TRELLIS = {
    "type": "object",
    "properties": {
        "version": {"const": SCHEMA_VERSION},
        "transfer_function": _TRANSFER,
        "symbol_group": _GROUP,
        "memory": {"type": "integer", "minimum": 0},
        "output_group": _GROUP,
        "outputs": {"type": "array", "items": _HOM},
        "section_automorphism": _HOM,
        "boundary": {"enum": ["known", "unknown"]},
    },
    "required": ["version"],
    "additionalProperties": False,
}
_TURBO = {
    "type": "object",
    "properties": {
        "version": {"const": SCHEMA_VERSION},
        "constituents": {"type": "array", "items": _TRELLIS, "minItems": 2,
                         "maxItems": 2},
        "systematic_mult": {"type": "integer", "minimum": 0},
        "parity_mults": {"type": "array", "items": {"type": "integer", "minimum": 0},
                         "minItems": 2, "maxItems": 2},
        "target_rate": {"type": "string"},
    },
    "required": ["version", "constituents"],
    "additionalProperties": False,
}
_DECONFIG = {
    "type": "object",
    "properties": {
        "version": {"const": SCHEMA_VERSION},
        "population": {"type": "integer", "minimum": 1},
        "max_iterations": {"type": "integer", "minimum": 1},
        "window": {"type": "integer", "minimum": 1},
        "err_threshold": {"type": "number"},
        "stall_rel": {"type": "number"},
        "stall_window": {"type": "integer", "minimum": 1},
        "master_seed": {"type": "integer", "minimum": 0},
    },
    "required": ["version"],
    "additionalProperties": False,
}

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
    corresponding parser.
    """
    if kind not in SCHEMAS:
        raise ValidationError(f"unknown schema kind {kind!r}")
    # the error `jsonschema.validate` raises, without checking the schema again
    exc = jsonschema.exceptions.best_match(_validator(kind).iter_errors(document))
    if exc is not None:
        path = "/".join(str(p) for p in exc.absolute_path) or "(root)"
        raise ValidationError(f"{kind} schema violation at {path}: {exc.message}") from exc


@functools.lru_cache(maxsize=None)
def _validator(kind: str):
    cls = jsonschema.validators.validator_for(SCHEMAS[kind])
    cls.check_schema(SCHEMAS[kind])
    return cls(SCHEMAS[kind])


# ---------------------------------------------------------------------------
# dump / parse pairs


def dump_group(G: GroupSpec) -> dict:
    return {"moduli": list(G.moduli)}


def parse_group(doc) -> GroupSpec:
    if isinstance(doc, list):       # CLI shorthand: bare moduli array
        doc = {"moduli": doc}
    schema_validate(doc, "group")
    return GroupSpec(tuple(doc["moduli"]))


def dump_hom(H: HomSpec) -> dict:
    return {"source": dump_group(H.source), "target": dump_group(H.target),
            "matrix": [list(row) for row in H.matrix]}


def parse_hom(doc) -> HomSpec:
    schema_validate(doc, "hom")
    return HomSpec(parse_group(doc["source"]), parse_group(doc["target"]),
                   tuple(tuple(row) for row in doc["matrix"]))


def dump_eigenlist(lam: EigenList) -> dict:
    return {"group": dump_group(lam.group), "values": [float(v) for v in lam.values]}


def parse_eigenlist(doc) -> EigenList:
    schema_validate(doc, "eigenlist")
    return EigenList(parse_group(doc["group"]), doc["values"])


def dump_message(msg: HeraldedMessage) -> dict:
    return {
        "group": dump_group(msg.group),
        "branches": [
            {"p": p, "lambda": lam, "label": list(labels)}
            for p, lam, labels in zip(msg.probs.tolist(), msg.lams.tolist(), msg.labels)
        ],
    }


def parse_message(doc) -> HeraldedMessage:
    schema_validate(doc, "message")
    G, branches = parse_group(doc["group"]), doc["branches"]
    return HeraldedMessage.of(G, [b["p"] for b in branches], [b["lambda"] for b in branches],
                              [b.get("label", ()) for b in branches])


def parse_message_or_eigenlist(doc) -> HeraldedMessage:
    if isinstance(doc, dict) and "branches" in doc:
        return parse_message(doc)
    return pure(parse_eigenlist(doc))


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
    variables = {v: parse_group(g) for v, g in doc["variables"].items()}
    factors = {}
    for fid, f in doc["factors"].items():
        message = None
        if "message" in f:
            message = parse_message(f["message"])
        elif "eigenlist" in f:
            message = parse_message_or_eigenlist(f["eigenlist"])
        factors[fid] = FactorNode(
            f["kind"], tuple(f["edges"]), message=message,
            hom=parse_hom(f["hom"]) if "hom" in f else None,
            keep=f.get("keep"),
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


def parse_trellis(doc) -> TrellisSpec:
    schema_validate(doc, "trellis")
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
        parse_group(doc["symbol_group"]), doc["memory"],
        parse_group(doc["output_group"]),
        tuple(parse_hom(L) for L in doc["outputs"]),
        parse_hom(doc["section_automorphism"]),
        boundary=doc.get("boundary", "known"),
    )


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
        tuple(parse_trellis(c) for c in doc["constituents"]),
        systematic_mult=doc.get("systematic_mult", 1),
        parity_mults=tuple(doc.get("parity_mults", (1, 1))),
        target_rate=rate,
    )


def dump_deconfig(cfg: DEConfig) -> dict:
    return {"version": SCHEMA_VERSION, **dataclasses.asdict(cfg)}


def parse_deconfig(doc) -> DEConfig:
    schema_validate(doc, "deconfig")
    fields = {k: v for k, v in doc.items() if k != "version"}
    return DEConfig(**fields)


def to_json(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True)
