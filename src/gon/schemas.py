"""JSON document schemas for the command-line layer, version tag "gon/1".

Input documents (body, lattice, matrix files) are validated before any
computation; every output document is validated again before it is printed.
Rationals travel as strings ("3/4", "-2"), irrational values as
{"sqrt_of": rational} and interval enclosures as {"lo": .., "hi": ..}.
An "integer" is a JSON integer: a number such as 1.0 is not one.  A body is
checked against the variant its "type" names, and against all of them only
when that names none.

The schemas are plain JSON Schema (2020-12) dicts.  One walk over them
(``_error``), which reads the few keywords they use, decides a document and
words its rejection as the first error jsonschema's validator would report, in
this module's ValidationError; no schema library is needed at run time.
"""

import re
from numbers import Number
from typing import Optional

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


def _typed(schema: dict, doc) -> bool:
    """Whether doc has a type that the schema's "type" admits."""
    t = schema.get("type")
    return t is None or (_has_type(doc, t) if type(t) is str else any(_has_type(doc, x) for x in t))


class ValidationError(Exception):
    """A document that its schema rejects; .message words the first error found."""

    def __init__(self, message: str):
        super().__init__(message)
        self.message = message


def _error(schema: dict, doc) -> Optional[str]:
    """None if doc is valid under schema, else the message of its first error.

    Reads only the keywords the dicts above use, each with its JSON Schema
    meaning: a keyword binds only the JSON type it is about, so "pattern"
    passes a non-string and "required" a non-object.  "const" and "enum"
    values are strings, for which == is JSON Schema's equality.  Keywords are
    checked in the order the dicts list them, as jsonschema's iter_errors
    checks them, and each error is worded as jsonschema 4.26 words it.
    """
    if not _typed(schema, doc):
        t = schema["type"]
        return f"{doc!r} is not of type {', '.join(map(repr, [t] if type(t) is str else t))}"
    if "const" in schema and doc != schema["const"]:
        return f"{schema['const']!r} was expected"
    if "enum" in schema and doc not in schema["enum"]:
        return f"{doc!r} is not one of {schema['enum']!r}"
    if "oneOf" in schema:
        # a variant of another type is rejected before any message is worded
        valid = [s for s in schema["oneOf"] if _typed(s, doc) and _error(s, doc) is None]
        if not valid:
            return f"{doc!r} is not valid under any of the given schemas"
        if len(valid) > 1:  # listed as jsonschema lists them: the first valid one last
            return f"{doc!r} is valid under each of {', '.join(map(repr, valid[1:] + valid[:1]))}"
    if isinstance(doc, dict):
        props = schema.get("properties", {})
        for key, sub in props.items():
            if key in doc and (message := _error(sub, doc[key])) is not None:
                return message
        for key in schema.get("required", ()):
            if key not in doc:
                return f"{key!r} is a required property"
        if schema.get("additionalProperties") is False and not doc.keys() <= props.keys():
            extras = sorted(doc.keys() - props.keys(), key=str)
            listed = ", ".join(map(repr, extras))
            verb = "was" if len(extras) == 1 else "were"
            return f"Additional properties are not allowed ({listed} {verb} unexpected)"
        return None
    if isinstance(doc, list):
        if not doc and "minItems" in schema:  # every minItems above is 1
            return f"{doc!r} should be non-empty"
        if "items" in schema:
            for x in doc:
                if (message := _error(schema["items"], x)) is not None:
                    return message
        return None
    if isinstance(doc, str):
        if "pattern" in schema and re.search(schema["pattern"], doc) is None:
            return f"{doc!r} does not match {schema['pattern']!r}"
    elif ("minimum" in schema and isinstance(doc, Number) and not isinstance(doc, bool)
          and doc < schema["minimum"]):
        return f"{doc!r} is less than the minimum of {schema['minimum']!r}"
    return None


def _check(schema: dict, doc) -> None:
    message = _error(schema, doc)
    if message is not None:
        raise ValidationError(message)


def validate_input(kind: str, doc) -> None:
    """Raise ValidationError if doc is not a valid input document."""
    if kind == "body" and isinstance(doc, dict):
        variant = doc.get("type")
        if isinstance(variant, str) and variant in _BODY_VARIANTS:
            _check(_BODY_VARIANTS[variant], doc)
            return
    _check(INPUT_SCHEMAS[kind], doc)


def validate_output(command: str, doc) -> None:
    """Raise ValidationError if doc is not a valid output document."""
    _check(OUTPUT_SCHEMAS[command], doc)
