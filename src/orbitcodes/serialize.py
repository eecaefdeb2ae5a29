"""JSON schemas for instances, codes, and reports.

Everything is written in terms of canonical integer encodings: field
elements as enc values, points as tuples of enc values of the normalized
coordinates, maps as row-major enc tuples, polynomials as sorted
(exponents, enc) pairs.  `dumps`, the canonical text of `errors`, sorts
keys and uses fixed separators so a given configuration always produces
byte-identical files.

Schemas:
  orbitcodes.instance.v1  input description of a custom instance
  orbitcodes.code.v1      constructed code with checks and metadata
  orbitcodes.verify.v1    check reports only, written by
                          `errors.report_to_dict`, so that `verify` and
                          `automorphisms` load no serialization module
"""

from __future__ import annotations

from .errors import dumps
from .gf import FieldSpec
from .geometry import PlaneCurve, Poly, ProjPoint
from .autgroup import AutGroup, ProjMap, close
from .construction import ConstructionResult, Divisor, Instance


# ---------------------------------------------------------------------------
# to JSON


def field_to_dict(spec: FieldSpec) -> dict:
    return {"p": spec.p, "k": spec.k, "modulus": list(spec.modulus)}


def point_to_list(pt: ProjPoint) -> list[int]:
    return list(pt.key)


def map_to_list(m: ProjMap) -> list[int]:
    return list(m.key)


def poly_to_list(poly: Poly) -> list:
    return [[list(e), c.enc] for e, c in sorted(poly.items())]


def curve_to_dict(curve: PlaneCurve) -> dict:
    return {
        "coords": curve.n_coords,
        "terms": poly_to_list(curve.poly()) if curve.terms else [],
    }


def group_to_dict(group: AutGroup) -> dict:
    return {
        "label": group.label,
        "order": group.order,
        "generators": [map_to_list(g) for g in group.generators],
    }


def divisor_to_dict(div: Divisor) -> dict:
    return {
        "points": [point_to_list(p) for p, _ in div.support],
        "multiplicities": [m for _, m in div.support],
        "degree": div.degree,
        "e": div.e,
        "field_of_definition": field_to_dict(div.field_of_definition),
        # a result holds its divisor only once the rationality check passed
        "ground_rational": True,
    }


def result_to_dict(result: ConstructionResult) -> dict:
    inst = result.instance
    out = {
        "schema": "orbitcodes.code.v1",
        "family": inst.family,
        "q": inst.q,
        "m": inst.m,
        "ground_field": field_to_dict(inst.ground),
        "working_field": field_to_dict(inst.working),
        "curve": curve_to_dict(inst.curve),
        "groups": [group_to_dict(g) for g in inst.groups],
        "joint_group_order": result.joint_order,
        "base_point": point_to_list(inst.Q),
        "evaluation_seed": point_to_list(inst.Qprime),
        "checks": [r.as_dict() for r in result.reports],
        "passed": result.passed,
        "divisor": divisor_to_dict(result.divisor) if result.divisor else None,
        "points": [point_to_list(p) for p in result.points],
    }
    if result.code is not None:
        code = result.code
        out.update(
            {
                "n": code.n,
                "k": code.rank,
                "k_nominal": len(code.encodings),
                "distance_bound": code.distance_bound,
                "distance_exact": None,
                "matrix": [list(row) for row in code.encodings],
            }
        )
    return out


# ---------------------------------------------------------------------------
# from JSON


def _typed(value, kind: type):
    """`value`, if it is a JSON value of `kind` (int, bool, str or list); a
    bool is not an int here, and no value of another type is coerced."""
    if type(value) is not kind:
        raise TypeError(f"expected {kind.__name__}, got {value!r}")
    return value


def field_from_dict(d: dict) -> FieldSpec:
    return FieldSpec(_typed(d["p"], int), _typed(d["k"], int),
                     tuple(_typed(c, int) for c in d["modulus"]))


def poly_from_list(items, field: FieldSpec) -> Poly:
    return {
        tuple(_typed(x, int) for x in e): field.from_enc(_typed(c, int))
        for e, c in _typed(items, list)
    }


def curve_from_dict(d: dict, field: FieldSpec) -> PlaneCurve:
    """The curve of `d`; `PlaneCurve` refuses coordinates other than 2 or 3
    and any term of the line P^1."""
    n = _typed(d["coords"], int)
    terms = poly_from_list(d["terms"], field)
    return PlaneCurve(n, field, tuple(terms.items()))


def map_from_list(flat, field: FieldSpec, n: int) -> ProjMap:
    """The n x n map of a row-major list of n*n encodings; `ProjMap`
    refuses a shorter list, and an entry past the n*n-th is refused here."""
    vals = [field.from_enc(_typed(x, int)) for x in flat]
    if len(vals) > n * n:
        raise ValueError(f"matrix must be square, {n}x{n}: got {len(vals)} entries")
    rows = tuple(tuple(vals[i * n : (i + 1) * n]) for i in range(n))
    return ProjMap(rows, field)


def point_from_list(flat, field: FieldSpec) -> ProjPoint:
    return ProjPoint(tuple(field.from_enc(_typed(x, int)) for x in flat))


def instance_from_dict(d: dict) -> Instance:
    """Load a custom instance; all computable conditions are re-checked by
    the construction pipeline, this only rebuilds the objects."""
    if d.get("schema") != "orbitcodes.instance.v1":
        raise ValueError("expected an orbitcodes.instance.v1 document")
    ground = field_from_dict(d["ground_field"])
    working = field_from_dict(d["working_field"])
    curve = curve_from_dict(d["curve"], working)
    n = curve.n_coords
    groups = []
    for gd in d["groups"]:
        gens = [map_from_list(flat, working, n) for flat in gd["generators"]]
        groups.append(close(gens, label=_typed(gd.get("label", f"G{len(groups) + 1}"), str)))
    functions = d.get("functions")
    if functions is not None:  # an empty list asks for the automatic basis too
        functions = tuple(poly_from_list(f, working) for f in _typed(functions, list)) or None
    return Instance(
        curve=curve,
        groups=tuple(groups),
        Q=point_from_list(d["Q"], working),
        Qprime=point_from_list(d["Qprime"], working),
        ground=ground,
        working=working,
        m=_typed(d.get("m", 1), int),
        functions=functions,
        condition_a_declared=_typed(d.get("condition_a_holds", False), bool),
        family="custom",
        q=None if d.get("q") is None else _typed(d["q"], int),
    )
