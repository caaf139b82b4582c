"""JSON document schemas for the command-line layer, version tag "gon/1".

Input documents (body, lattice, matrix files) are validated before any
computation; every output document is validated again before it is printed.
Rationals travel as strings ("3/4", "-2"), irrational values as
{"sqrt_of": rational} and interval enclosures as {"lo": .., "hi": ..}.
An "integer" is a JSON integer: a number such as 1.0 is not one.  A body is
checked against the variant its "type" names, and against all of them only
when that names none.

The schemas are plain JSON Schema (2020-12) dicts.  A document is accepted by
one walk over them (``_accepts``), which reads the few keywords they use;
jsonschema is imported only when that walk rejects a document, to raise its
ValidationError with the message it has always given.
"""

import re
from functools import cache
from numbers import Number

SCHEMA_TAG = "gon/1"

_RAT_OUT = {"type": "string", "pattern": "^-?[0-9]+(/[1-9][0-9]*)?$"}
_RAT_IN = {"type": ["integer", "string"], "pattern": _RAT_OUT["pattern"]}  # the pattern binds strings only
_QUAD = {
    "type": "object",
    "properties": {"sqrt_of": _RAT_OUT},
    "required": ["sqrt_of"],
    "additionalProperties": False,
}
_INTERVAL = {
    "type": "object",
    "properties": {"lo": _RAT_OUT, "hi": _RAT_OUT},
    "required": ["lo", "hi"],
    "additionalProperties": False,
}
_VALUE = {"oneOf": [_RAT_OUT, _QUAD, _INTERVAL]}
_VALUE_OR_NULL = {"oneOf": [_RAT_OUT, _QUAD, _INTERVAL, {"type": "null"}]}
_INT = {"type": "integer"}
_POS_INT = {"type": "integer", "minimum": 1}
_BOOL = {"type": "boolean"}
_STR = {"type": "string"}

_RAT_VEC_IN = {"type": "array", "items": _RAT_IN, "minItems": 1}
_RAT_MAT_IN = {"type": "array", "items": _RAT_VEC_IN, "minItems": 1}
_RAT_VEC_OUT = {"type": "array", "items": _RAT_OUT}
_INT_VEC = {"type": "array", "items": _INT}


def _body_variant(type_name: str, fields: dict) -> dict:
    props = {"schema": {"const": SCHEMA_TAG}, "type": {"const": type_name}}
    props.update(fields)
    return {
        "type": "object",
        "properties": props,
        "required": ["type"] + list(fields),
        "additionalProperties": False,
    }


_BODY_VARIANTS = {
    "box": _body_variant("box", {"a": _RAT_VEC_IN}),
    "cross": _body_variant("cross", {"dim": _POS_INT, "scale": _RAT_IN}),
    "hpoly": _body_variant("hpoly", {"A": _RAT_MAT_IN, "b": _RAT_VEC_IN}),
    "vpoly": _body_variant("vpoly", {"vertices": _RAT_MAT_IN}),
    "ellipsoid": _body_variant("ellipsoid", {"Q": _RAT_MAT_IN}),
}

BODY_SCHEMA = {"oneOf": list(_BODY_VARIANTS.values())}

LATTICE_SCHEMA = {
    "type": "object",
    "properties": {"schema": {"const": SCHEMA_TAG}, "basis": _RAT_MAT_IN},
    "required": ["basis"],
    "additionalProperties": False,
}

MATRIX_SCHEMA = {
    "type": "object",
    "properties": {
        "schema": {"const": SCHEMA_TAG},
        "rows": _POS_INT,
        "cols": _POS_INT,
        "data": {"type": "array", "items": {"type": "array", "items": _INT}, "minItems": 1},
    },
    "required": ["rows", "cols", "data"],
    "additionalProperties": False,
}

INPUT_SCHEMAS = {"body": BODY_SCHEMA, "lattice": LATTICE_SCHEMA, "matrix": MATRIX_SCHEMA}


# ---------------------------------------------------------------------------
# output documents, one schema per command

_STATUS = {"enum": ["holds", "equality", "violated", "skipped", "undecided"]}
_KIND = {"enum": ["theorem", "conjecture", "bound"]}

REPORT_SCHEMA = {
    "type": "object",
    "properties": {
        "check_id": _STR,
        "kind": _KIND,
        "lhs": _VALUE_OR_NULL,
        "rhs": _VALUE_OR_NULL,
        "status": _STATUS,
        "margin": _VALUE_OR_NULL,
        "witnesses": {"type": "object"},
        "reason": {"oneOf": [_STR, {"type": "null"}]},
    },
    "required": ["check_id", "kind", "lhs", "rhs", "status", "margin", "witnesses", "reason"],
    "additionalProperties": False,
}

CANDIDATE_SCHEMA = {
    "type": "object",
    "properties": {
        "candidate": REPORT_SCHEMA,
        "body": {"type": "object"},
        "lattice": {"type": "object"},
    },
    "required": ["candidate", "body", "lattice"],
    "additionalProperties": False,
}

_STATUS_COUNTS = {
    "type": "object",
    "properties": {s: {"type": "integer", "minimum": 0} for s in _STATUS["enum"]},
    "required": _STATUS["enum"],
    "additionalProperties": False,
}


def _out(command: str, fields: dict, required=None) -> dict:
    props = {"schema": {"const": SCHEMA_TAG}, "command": {"const": command}}
    props.update(fields)
    return {
        "type": "object",
        "properties": props,
        "required": ["schema", "command"] + (list(fields) if required is None else required),
        "additionalProperties": False,
    }


_SCAN_RECORD = {
    "type": "object",
    "properties": {
        "a": _INT_VEC,
        "minima": _INT_VEC,
        "minima_product": _INT,
        "ratio_single": _RAT_OUT,
        "ratio_product": _RAT_OUT,
        "bv_satisfied": _BOOL,
        "hexagon_bound": {"oneOf": [_RAT_OUT, {"type": "null"}]},
        "hexagon_satisfied": {"oneOf": [_BOOL, {"type": "null"}]},
    },
    "required": ["a", "minima", "minima_product", "ratio_single", "ratio_product",
                 "bv_satisfied", "hexagon_bound", "hexagon_satisfied"],
    "additionalProperties": False,
}

_CORPUS_SECTION = {
    "type": "object",
    "properties": {
        "instances": _INT,
        "status_counts": _STATUS_COUNTS,
        "violations": {"type": "array", "items": {"type": "object"}},
        "candidates": {"type": "array", "items": CANDIDATE_SCHEMA},
    },
    "required": ["instances", "status_counts", "violations", "candidates"],
    "additionalProperties": False,
}

OUTPUT_SCHEMAS = {
    "minima": _out("minima", {
        "n": _POS_INT,
        "rank": _POS_INT,
        "count": _POS_INT,
        "minima": {"type": "array", "items": _VALUE},
        "witnesses": {"type": "array", "items": _RAT_VEC_OUT},
    }),
    "count": _out("count", {
        "n": _POS_INT,
        "interior": _BOOL,
        "dilate": _RAT_OUT,
        "count": {"type": "integer", "minimum": 0},
    }),
    "ehrhart": _out("ehrhart", {
        "n": _POS_INT,
        "degree": _POS_INT,
        "coefficients": _RAT_VEC_OUT,
        "eval_at": {"oneOf": [_INT, {"type": "null"}]},
        "eval_value": {"oneOf": [_RAT_OUT, {"type": "null"}]},
    }),
    "polar": _out("polar", {"n": _POS_INT, "body": {"type": "object"}}),
    "width": _out("width", {
        "n": _POS_INT,
        "width": _VALUE,
        "direction": _RAT_VEC_OUT,
    }),
    "siegel": _out("siegel", {
        "m": _POS_INT,
        "n": _POS_INT,
        "vectors": {"type": "array", "items": _INT_VEC},
        "norms": _INT_VEC,
        "product_norm": _POS_INT,
        "gram_det": _POS_INT,
        "minor_gcd": _POS_INT,
        "bv_bound": _VALUE,
        "classical_bound": _INTERVAL,
        "bv_satisfied": _BOOL,
        "classical_satisfied": _BOOL,
    }),
    "scan": _out("scan", {
        "n": _POS_INT,
        "a_max": _POS_INT,
        "dedupe": _BOOL,
        "record_count": _INT,
        "empirical_c": _RAT_OUT,
        "empirical_s": _RAT_OUT,
        "witness_c": _INT_VEC,
        "witness_s": _INT_VEC,
        "bound_sqrt_n": _VALUE,
        "bound_sigma_inv": _RAT_OUT,
        "exact_value": {"oneOf": [_RAT_OUT, {"type": "null"}]},
        "within_sqrt_n": _BOOL,
        "within_sigma_inv": _BOOL,
        "within_exact": {"oneOf": [_BOOL, {"type": "null"}]},
        "sigma_inv_below_sqrt_n": _BOOL,
        "records": {"oneOf": [{"type": "array", "items": _SCAN_RECORD}, {"type": "null"}]},
    }),
    "sigma": _out("sigma", {"n": _POS_INT, "sigma": _RAT_OUT}),
    "whitworth": _out("whitworth", {
        "variant": {"enum": ["slab", "hexagon2"]},
        "beta": {"oneOf": [_RAT_OUT, {"type": "null"}]},
        "delta": _RAT_OUT,
    }),
    "verify": _out("verify", {
        "n": _POS_INT,
        "checks_run": _INT,
        "status_counts": _STATUS_COUNTS,
        "reports": {"type": "array", "items": REPORT_SCHEMA},
        "violations": {"type": "array", "items": _STR},
        "candidates": {"type": "array", "items": CANDIDATE_SCHEMA},
    }),
    "corpus": _out("corpus", {
        "seed": _INT,
        "fixed": {
            "type": "array",
            "items": {
                "type": "object",
                "properties": {
                    "name": _STR,
                    "status_counts": _STATUS_COUNTS,
                    "violations": {"type": "array", "items": _STR},
                    "candidates": {"type": "array", "items": CANDIDATE_SCHEMA},
                },
                "required": ["name", "status_counts", "violations", "candidates"],
                "additionalProperties": False,
            },
        },
        "random": _CORPUS_SECTION,
        "status_counts": _STATUS_COUNTS,
        "check_status_counts": {"type": "object"},
        "all_hold": _BOOL,
    }),
    "error": {
        "type": "object",
        "properties": {
            "schema": {"const": SCHEMA_TAG},
            "error": {
                "type": "object",
                "properties": {"code": _STR, "message": _STR},
                "required": ["code", "message"],
                "additionalProperties": False,
            },
        },
        "required": ["schema", "error"],
        "additionalProperties": False,
    },
}

# "integer" is a Python int, as json.load returns for a JSON integer: not a
# float such as 1.0, and not a bool
_PY_TYPES = {"object": dict, "array": list, "string": str, "boolean": bool, "null": type(None)}


def _has_type(doc, name: str) -> bool:
    return type(doc) is int if name == "integer" else isinstance(doc, _PY_TYPES[name])


def _accepts(schema: dict, doc) -> bool:
    """Whether doc is valid under schema, read straight off the dicts above.

    Reads only the keywords those dicts use, each with its JSON Schema meaning:
    a keyword binds only the JSON type it is about, so "pattern" passes a
    non-string and "required" a non-object.  "const" and "enum" values are
    strings, for which == is JSON Schema's equality.
    """
    t = schema.get("type")
    if t is not None and not (_has_type(doc, t) if type(t) is str
                              else any(_has_type(doc, x) for x in t)):
        return False
    if "const" in schema and doc != schema["const"]:
        return False
    if "enum" in schema and doc not in schema["enum"]:
        return False
    if "oneOf" in schema and sum(_accepts(s, doc) for s in schema["oneOf"]) != 1:
        return False
    if isinstance(doc, dict):
        props = schema.get("properties", {})
        closed = schema.get("additionalProperties") is False
        for key, value in doc.items():
            sub = props.get(key)
            if sub is None:
                if closed:
                    return False
            elif not _accepts(sub, value):
                return False
        return all(key in doc for key in schema.get("required", ()))
    if isinstance(doc, list):
        items = schema.get("items")
        return len(doc) >= schema.get("minItems", 0) and (
            items is None or all(_accepts(items, x) for x in doc))
    if isinstance(doc, str):
        return "pattern" not in schema or re.search(schema["pattern"], doc) is not None
    if "minimum" in schema and isinstance(doc, Number) and not isinstance(doc, bool):
        return doc >= schema["minimum"]
    return True


@cache
def _validator_class():
    # jsonschema's 2020-12 validator under the "integer" above; imported only
    # to word a rejection, since _accepts decides every accepted document
    from jsonschema import Draft202012Validator, validators

    return validators.extend(
        Draft202012Validator,
        type_checker=Draft202012Validator.TYPE_CHECKER.redefine(
            "integer", lambda _, x: _has_type(x, "integer")),
    )


def __getattr__(name: str):
    # jsonschema's ValidationError, the error validate_input and validate_output
    # raise, without importing jsonschema before a caller asks for it
    if name == "ValidationError":
        from jsonschema import ValidationError

        return ValidationError
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _check(schema: dict, doc) -> None:
    if _accepts(schema, doc):
        return
    _validator_class()(schema).validate(doc)
    raise RuntimeError("schema check rejected a document that jsonschema accepts")


def validate_input(kind: str, doc) -> None:
    """Raise jsonschema.ValidationError if doc is not a valid input document."""
    if kind == "body" and isinstance(doc, dict):
        variant = doc.get("type")
        if isinstance(variant, str) and variant in _BODY_VARIANTS:
            _check(_BODY_VARIANTS[variant], doc)
            return
    _check(INPUT_SCHEMAS[kind], doc)


def validate_output(command: str, doc) -> None:
    """Raise jsonschema.ValidationError if doc is not a valid output document."""
    _check(OUTPUT_SCHEMAS[command], doc)
