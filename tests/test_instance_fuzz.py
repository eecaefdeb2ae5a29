"""A seeded fuzz test of the instance.v1 reader.  A valid custom instance
may first grow: a copy of one of its groups appended, explicit monomial
functions added, or m raised, up to 10^7, so that a basis can outgrow
the evaluation set.  The
grown document runs as it is, or with small numbers or other JSON values
put in place of values, keys deleted and values nested one level deeper.
Each must give an exit status of 0, 1 or 2 and the document of that
status on stdout, never an exception out of `cli.main`.  300 examples
reach all three statuses, and a basis with more forms than points."""

import contextlib
import copy
import io
import json

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402

from orbitcodes import builtin_instance, cli  # noqa: E402
from orbitcodes.serialize import (  # noqa: E402
    curve_to_dict,
    field_to_dict,
    map_to_list,
    point_to_list,
)

# the affine order-2 scaling pair over GF(3) on the line
LINE_INSTANCE = {
    "schema": "orbitcodes.instance.v1",
    "ground_field": {"p": 3, "k": 1, "modulus": [0, 1]},
    "working_field": {"p": 3, "k": 1, "modulus": [0, 1]},
    "curve": {"coords": 2, "terms": []},
    "groups": [
        {"label": "G1", "generators": [[2, 0, 0, 1]]},
        {"label": "G2", "generators": [[2, 2, 0, 1]]},
    ],
    "Q": [1, 0],
    "Qprime": [0, 1],
    "m": 1,
    "condition_a_holds": True,
}


def instance_document(family: str, q: int) -> dict:
    """The instance.v1 document of a built-in instance."""
    inst = builtin_instance(family, q)
    return {
        "schema": "orbitcodes.instance.v1",
        "ground_field": field_to_dict(inst.ground),
        "working_field": field_to_dict(inst.working),
        "curve": curve_to_dict(inst.curve),
        "groups": [{"label": g.label, "generators": [map_to_list(m) for m in g.generators]}
                   for g in inst.groups],
        "Q": point_to_list(inst.Q),
        "Qprime": point_to_list(inst.Qprime),
        "m": inst.m,
        "condition_a_holds": True,
        "q": q,
    }


DOCUMENTS = [LINE_INSTANCE, instance_document("fermat", 3)]

# small JSON values, so that a mistyped number cannot ask for a large field
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 12)
    | st.floats(-2, 12, allow_nan=False) | st.text("GQp1", max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text("GQpk", max_size=3), inner, max_size=3),
    max_leaves=6,
)


def paths(value, prefix=()):
    """The path of every value below the root of a JSON document."""
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, child in items:
        yield prefix + (key,)
        yield from paths(child, prefix + (key,))


def monomials(coords: int, degree: int):
    """The exponent lists of every monomial of `degree` in `coords` variables."""
    if coords == 1:
        return [[degree]]
    return [[i] + rest for i in range(degree + 1) for rest in monomials(coords - 1, degree - i)]


def grow(draw, doc, growth):
    if growth == "group":  # a copy, which the value changes below may alter
        gens = copy.deepcopy(draw(st.sampled_from([g["generators"] for g in doc["groups"]])))
        doc["groups"].append({"label": f"G{len(doc['groups']) + 1}", "generators": gens})
    elif growth == "functions":
        exps = monomials(doc["curve"]["coords"], draw(st.integers(0, 5)))
        count = draw(st.integers(1, 20))
        doc["functions"] = [[[exps[i % len(exps)], 1]] for i in range(count)]
    else:
        doc["m"] = draw(st.integers(2, 6) | st.just(10**7))


@st.composite
def grown_documents(draw):
    doc = copy.deepcopy(draw(st.sampled_from(DOCUMENTS)))
    for growth in draw(st.lists(st.sampled_from(["group", "functions", "m"]), max_size=3)):
        grow(draw, doc, growth)
    return doc


@st.composite
def mutated_documents(draw):
    doc = draw(grown_documents())
    for _ in range(draw(st.integers(1, 3))):
        # a wrong schema is refused before anything else is read
        found = [path for path in paths(doc) if path != ("schema",)]
        if not found:
            break
        path = draw(st.sampled_from(found))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        key = path[-1]
        action = draw(st.sampled_from(["renumber", "delete", "retype", "nest"]))
        if action == "renumber":  # a number in place of any value
            parent[key] = draw(st.integers(0, 8))
        elif action == "delete":
            del parent[key]
        elif action == "retype":
            parent[key] = draw(JSON_VALUES)
        else:
            parent[key] = draw(st.sampled_from([[parent[key]], {"value": parent[key]}]))
    return doc


@settings(derandomize=True, database=None, max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=grown_documents() | mutated_documents())
def test_a_mutated_instance_exits_0_1_or_2(tmp_path, doc):
    path, output = tmp_path / "inst.json", tmp_path / "out.json"
    path.write_text(json.dumps(doc))
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        status = cli.main(["construct", "--family", "custom", "--input", str(path),
                           "--output", str(output)])
    assert status in (cli.EXIT_OK, cli.EXIT_CHECK_FAILED, cli.EXIT_PRECONDITION)
    report = json.loads(stdout.getvalue())
    want = {cli.EXIT_OK: "orbitcodes.code.v1", cli.EXIT_CHECK_FAILED: "orbitcodes.verify.v1",
            cli.EXIT_PRECONDITION: "orbitcodes.error.v1"}[status]
    assert report["schema"] == want
