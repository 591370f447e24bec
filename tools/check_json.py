#!/usr/bin/env python3
"""Validates JSON documents against a schema.

Usage: check_json.py SCHEMA DOC [DOC ...]

The schema language is the subset of JSON Schema the repository's
documents need: type ("integer" excludes booleans, and so does "number"),
required, properties, additionalProperties (false or a schema), items,
enum, const, minimum, maximum, minItems, maxItems and minLength. Other
keys are ignored, as in JSON Schema. Cross-field invariants are the named
functions in INVARIANTS; a schema node lists those that apply to it under
"invariants". One schema per document kind lives in tools/schemas/.

Stdlib only. Exit 0 when every document conforms, 1 with one line per
violation otherwise.
"""
import json
import sys

TYPES = {
    "null": lambda v: v is None,
    "boolean": lambda v: isinstance(v, bool),
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "number": lambda v: (isinstance(v, (int, float))
                         and not isinstance(v, bool)),
    "string": lambda v: isinstance(v, str),
    "array": lambda v: isinstance(v, list),
    "object": lambda v: isinstance(v, dict),
}


def is_count(v):
    return TYPES["integer"](v) and v >= 0


def same(a, b):
    """JSON equality: true is not 1."""
    if isinstance(a, bool) or isinstance(b, bool):
        return type(a) is type(b) and a == b
    return a == b


# ---- invariants: f(node, schema node) yields violation messages ----------

def cumulative_buckets(h, _):
    """Histogram buckets never decrease and the last one equals count."""
    buckets = h.get("buckets")
    if not isinstance(buckets, list) or not all(map(is_count, buckets)):
        return
    for i in range(1, len(buckets)):
        if buckets[i] < buckets[i - 1]:
            yield (f"buckets not cumulative at index {i}: {buckets[i]} < "
                   f"{buckets[i - 1]}")
            return
    if buckets and is_count(h.get("count")) and buckets[-1] != h["count"]:
        yield f"last cumulative bucket {buckets[-1]} != count {h['count']}"


def lint_counts(doc, schema):
    """Summary counts match the diagnostics; a code's severity is
    "warning" exactly when the schema lists it in warning_codes."""
    diags = doc.get("diagnostics")
    summary = doc.get("summary")
    if not isinstance(diags, list) or not isinstance(summary, dict):
        return
    warning_codes = set(schema["warning_codes"])
    counted = {"errors": 0, "warnings": 0, "diagnostics": len(diags)}
    for i, d in enumerate(diags):
        if not isinstance(d, dict):
            continue
        sev, code = d.get("severity"), d.get("code")
        if sev in ("error", "warning"):
            counted[sev + "s"] += 1
            expect = "warning" if code in warning_codes else "error"
            if sev != expect:
                yield (f"diagnostics[{i}] code {code} must be severity "
                       f"'{expect}', got '{sev}'")
    for key, n in counted.items():
        if is_count(summary.get(key)) and summary[key] != n:
            yield f"summary.{key} {summary[key]} != counted {n}"


def ordered(*keys):
    """The numeric fields `keys` of a node are non-decreasing."""
    def check(node, _):
        values = [node.get(k) for k in keys]
        if not all(TYPES["number"](v) for v in values):
            return
        for (a, x), (b, y) in zip(zip(keys, values), zip(keys[1:],
                                                         values[1:])):
            if x > y:
                yield f"{a} ({x}) > {b} ({y})"
    return check


def streaming_peak_le_full(w, _):
    """The streaming chase never holds more facts than the full one."""
    full, streaming = w.get("full"), w.get("streaming")
    if isinstance(full, dict) and isinstance(streaming, dict):
        f = full.get("peak_resident_facts")
        s = streaming.get("peak_resident_facts")
        if is_count(f) and is_count(s) and s > f:
            yield f"streaming peak {s} exceeds full peak {f}"


def suite_ratio(suite, _):
    """ratio equals streaming peak / full peak within 0.001."""
    full = suite.get("full_peak_resident_facts")
    streaming = suite.get("streaming_peak_resident_facts")
    ratio = suite.get("ratio")
    if is_count(full) and full > 0 and is_count(streaming) and \
            TYPES["number"](ratio) and abs(streaming / full - ratio) > 0.001:
        yield (f"ratio {ratio} disagrees with {streaming}/{full} = "
               f"{streaming / full:.4f}")


INVARIANTS = {
    "cumulative_buckets": cumulative_buckets,
    "lint_counts": lint_counts,
    "lo_le_hi": ordered("lo", "hi"),
    "streaming_peak_le_full": streaming_peak_le_full,
    "memo_hits_le_queries": ordered("memo_hits", "memo_queries"),
    "suite_ratio": suite_ratio,
}


def validate(value, schema, path="$"):
    """Yields one "path: message" line per violation."""
    expected = schema.get("type")
    if expected is not None and not TYPES[expected](value):
        yield f"{path}: expected {expected}, got {json.dumps(value)}"
        return
    if "const" in schema and not same(value, schema["const"]):
        yield f"{path}: {json.dumps(value)} != {json.dumps(schema['const'])}"
    if "enum" in schema and not any(same(value, e) for e in schema["enum"]):
        yield f"{path}: {json.dumps(value)} not one of {schema['enum']}"
    if TYPES["number"](value):
        if "minimum" in schema and value < schema["minimum"]:
            yield f"{path}: {value} < minimum {schema['minimum']}"
        if "maximum" in schema and value > schema["maximum"]:
            yield f"{path}: {value} > maximum {schema['maximum']}"
    if isinstance(value, str) and len(value) < schema.get("minLength", 0):
        yield f"{path}: string shorter than {schema['minLength']}"
    if isinstance(value, list):
        if len(value) < schema.get("minItems", 0):
            yield f"{path}: {len(value)} items < minItems {schema['minItems']}"
        if "maxItems" in schema and len(value) > schema["maxItems"]:
            yield f"{path}: {len(value)} items > maxItems {schema['maxItems']}"
        if "items" in schema:
            for i, item in enumerate(value):
                yield from validate(item, schema["items"], f"{path}[{i}]")
    if isinstance(value, dict):
        for key in schema.get("required", []):
            if key not in value:
                yield f"{path}: missing '{key}'"
        properties = schema.get("properties", {})
        extra = schema.get("additionalProperties", True)
        for key, item in value.items():
            if key in properties:
                yield from validate(item, properties[key], f"{path}.{key}")
            elif extra is False:
                yield f"{path}: unexpected key '{key}'"
            elif isinstance(extra, dict):
                yield from validate(item, extra, f"{path}.{key}")
    for name in schema.get("invariants", []):
        for message in INVARIANTS[name](value, schema):
            yield f"{path}: {message}"


def main(argv):
    if len(argv) < 3:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    with open(argv[1]) as f:
        schema = json.load(f)
    failed = False
    for path in argv[2:]:
        try:
            with open(path) as f:
                doc = json.load(f)
        except (OSError, ValueError) as e:
            print(f"{path}: unreadable or invalid JSON ({e})", file=sys.stderr)
            failed = True
            continue
        for message in validate(doc, schema):
            print(f"{path}: {message}", file=sys.stderr)
            failed = True
    if failed:
        return 1
    print(f"{len(argv) - 2} document(s) conform to {argv[1]}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
