"""The distance the geometry proves, `construction.certified_distance`.

The oracle is the enumeration, `min_distance_exact`: on every fermat and
projline built-in that the default guard admits, and on every seed of the
benchmark's custom fermat q=4 instance, the certificate gives the distance
it finds.  The certificate must refuse, and leave the distance to the
enumeration, when its hypotheses fail: the singular bf curve, a diagonal
curve whose degree the characteristic divides, a reducible curve, and
explicit functions that do not hold the witness.  A proved distance below
the designed bound is reported from the proof, with no enumeration.
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from orbitcodes import (
    CheckFailure,
    CheckReport,
    ConstructionResult,
    EvalCode,
    Instance,
    builtin_instance,
    close,
    cli,
    diagonal_map,
    make_field,
    min_distance_exact,
    plane_curve,
    root_of_unity,
    run_construction,
    serialize,
)
from orbitcodes.cli import EXIT_CHECK_FAILED, EXIT_OK
from orbitcodes.construction import certified_distance

BENCH_DATA = Path(__file__).resolve().parent.parent / "perfbench" / "data"

# every fermat and projline built-in whose distance the default guard
# admits: larger m leaves no valid evaluation seed, or passes the guard
UNDER_THE_GUARD = [
    ("fermat", 3, 1), ("fermat", 3, 2), ("fermat", 3, 3),
    ("fermat", 4, 1), ("fermat", 4, 2), ("fermat", 4, 3), ("fermat", 4, 4),
    ("fermat", 5, 1), ("fermat", 5, 2),
    ("fermat", 7, 1), ("fermat", 8, 1), ("fermat", 9, 1), ("fermat", 11, 1),
    ("fermat", 13, 1), ("fermat", 16, 1),
    *(("projline", q, m) for q in (5, 7, 9, 11, 13, 17) for m in (1, 2)),
]


def instance_doc(family, q, functions=None):
    """The instance.v1 document of a built-in instance, with explicit
    functions when given."""
    inst = builtin_instance(family, q)
    doc = {
        "schema": "orbitcodes.instance.v1",
        "ground_field": serialize.field_to_dict(inst.ground),
        "working_field": serialize.field_to_dict(inst.working),
        "curve": serialize.curve_to_dict(inst.curve),
        "groups": [
            {"label": g.label, "generators": [serialize.map_to_list(m) for m in g.generators]}
            for g in inst.groups
        ],
        "Q": serialize.point_to_list(inst.Q),
        "Qprime": serialize.point_to_list(inst.Qprime),
        "m": inst.m,
        "q": inst.q,
        "condition_a_holds": True,
    }
    if functions is not None:
        doc["functions"] = functions
    return doc


@pytest.mark.parametrize("family,q,m", UNDER_THE_GUARD, ids=lambda v: str(v))
def test_certificate_is_the_enumerated_distance_on_every_builtin(family, q, m):
    res = run_construction(builtin_instance(family, q, m))
    d = certified_distance(res)
    assert d is not None
    assert d == min_distance_exact(res.code) == res.code.distance_bound


@pytest.mark.parametrize("m", [1, 2])
def test_certificate_is_the_enumerated_distance_on_every_custom_fermat4_seed(m):
    doc = json.loads((BENCH_DATA / "fermat4_instance.json").read_text())
    seeds = json.loads((BENCH_DATA / "fermat4_seeds.json").read_text())
    assert len(seeds) == 50
    for seed in seeds:
        inst = serialize.instance_from_dict({**doc, "Qprime": seed, "m": m})
        res = run_construction(inst)
        assert certified_distance(res) == min_distance_exact(res.code), seed


@pytest.mark.parametrize("q", [2, 3])
def test_the_singular_bf_curve_is_refused(q):
    res = run_construction(builtin_instance("bf", q))
    assert certified_distance(res) is None


def _diagonal_instance(field, curve, zeta):
    """The instance of G1 = <X -> zeta X> and G2 = <Y -> zeta Y> on `curve`,
    with Q the first point of its line section and Q' its first point
    with no zero coordinate."""
    one = field.one()
    groups = (close([diagonal_map(field, zeta, one, one)], label="G1"),
              close([diagonal_map(field, one, zeta, one)], label="G2"))
    Q = curve.line_section_points(field)[0]
    Qprime = next(pt for pt in curve.rational_points(field) if all(pt.key))
    return Instance(curve, groups, Q, Qprime, field, field)


def test_a_diagonal_curve_whose_degree_the_characteristic_divides_is_refused():
    # X^6 + Y^6 + Z^6 = (X^2 + Y^2 + Z^2)^3 over GF(9), with the sign changes
    F9 = make_field(3, 2)
    one = F9.one()
    curve = plane_curve(F9, {(6, 0, 0): one, (0, 6, 0): one, (0, 0, 6): one})
    res = run_construction(_diagonal_instance(F9, curve, -one))
    assert (res.code.n, res.code.rank) == (4, 3)
    assert certified_distance(res) is None
    assert min_distance_exact(res.code) == 2


def test_a_reducible_curve_is_refused():
    # X^4 + Y^4 over GF(9) is four lines through (0:0:1), preserved by the
    # fermat q=3 scalings
    F9 = make_field(3, 2)
    one = F9.one()
    curve = plane_curve(F9, {(4, 0, 0): one, (0, 4, 0): one})
    res = run_construction(_diagonal_instance(F9, curve, root_of_unity(F9, 4)))
    assert (res.code.n, res.code.rank, res.code.distance_bound) == (16, 3, 12)
    assert certified_distance(res) is None
    assert min_distance_exact(res.code) == 12


def test_functions_that_do_not_hold_the_witness_are_refused():
    # X and Z on the fermat q=3 curve: no product of lines Y - cZ is in
    # their span
    doc = instance_doc("fermat", 3, [[[[1, 0, 0], 1]], [[[0, 0, 1], 1]]])
    res = run_construction(serialize.instance_from_dict(doc))
    assert certified_distance(res) is None
    assert min_distance_exact(res.code) == 12


def test_a_witness_of_weight_zero_proves_nothing():
    # the fermat q=3 code cut down to the 4 points of S on one line Y = cZ,
    # with designed bound 0: the witness Y - cZ is the zero word there
    res = run_construction(builtin_instance("fermat", 3))
    code, spec = res.code, res.code.field
    c = spec.mul(res.points[0].key[1], spec.inv(res.points[0].key[2]))
    keep = [j for j, pt in enumerate(res.points)
            if spec.mul(pt.key[1], spec.inv(pt.key[2])) == c]
    points = tuple(res.points[j] for j in keep)
    rows = tuple(tuple(row[j] for j in keep) for row in code.encodings)
    cut = EvalCode(spec, points, rows, 0)
    assert (cut.n, cut.rank) == (4, 2)
    fake = ConstructionResult(res.instance, res.reports, res.divisor, points,
                              res.joint_order, cut)
    assert certified_distance(fake) is None


# stdout sha256 of `distance` on the instance of the next test, recorded on
# the commit before the certificate from the scan's distance_bound report;
# the proof's report has the same bytes
BELOW_THE_BOUND_REPORT = "0bbbad8bfaa8e781a42e0b650ee652663a8b1c720404c36d7a3473bf284c73c7"


def test_a_proved_distance_below_the_bound_is_reported_from_the_proof(
    tmp_path, capsys, monkeypatch
):
    # projline q=7 with the binary forms of degree 4: a [7, 5] code whose
    # distance, 7 - 4 = 3, is proved but breaks the designed bound 7 - 3
    doc = instance_doc("projline", 7, [[[[i, 4 - i], 1]] for i in range(5)])
    res = run_construction(serialize.instance_from_dict(doc))
    assert (res.code.n, res.code.rank, res.code.distance_bound) == (7, 5, 4)
    with pytest.raises(CheckFailure) as exc:
        certified_distance(res)
    assert exc.value.report == CheckReport("distance_bound", False, {"weight": 3, "bound": 4})
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(doc))
    for name in ("orbitcodes.code_analysis", "orbitcodes.enumeration"):
        monkeypatch.setitem(sys.modules, name, None)  # import fails
    status = cli.main(["distance", "--family", "custom", "--input", str(path)])
    stdout = capsys.readouterr().out
    assert status == EXIT_CHECK_FAILED
    assert json.loads(stdout)["checks"][0]["details"] == {"weight": 3, "bound": 4}
    assert hashlib.sha256(stdout.encode()).hexdigest() == BELOW_THE_BOUND_REPORT


def test_a_rank_short_of_the_degree_is_refused_on_the_line():
    # projline q=7 with s^3 and t^3 only: rank 2, not 3 + 1, so Singleton
    # does not make the root count's n - 3 exact, though it is the distance
    doc = instance_doc("projline", 7, [[[[3, 0], 1]], [[[0, 3], 1]]])
    res = run_construction(serialize.instance_from_dict(doc))
    assert (res.code.n, res.code.rank, res.code.distance_bound) == (7, 2, 4)
    assert certified_distance(res) is None
    assert min_distance_exact(res.code) == 4


# reachable only through the certificate: the enumeration refuses each at
# the default guard
PAST_THE_GUARD = [("fermat", 7, 2), ("fermat", 8, 2), ("fermat", 9, 2), ("fermat", 5, 3),
                  ("projline", 25, 1)]


def test_certified_jobs_run_without_code_analysis(monkeypatch, capsys):
    # UNDER_THE_GUARD holds the benchmark's three distance jobs: fermat q=3
    # m=2, projline q=11 and projline q=7 m=2
    monkeypatch.setitem(sys.modules, "orbitcodes.code_analysis", None)  # import fails
    for family, q, m in UNDER_THE_GUARD + PAST_THE_GUARD:
        argv = ["distance", "--family", family, "--q", str(q), "--m", str(m)]
        assert cli.main(argv) == EXIT_OK, argv
        assert "(met)" in capsys.readouterr().err
    with pytest.raises(ImportError):
        cli.main(["distance", "--family", "bf", "--q", "2"])
