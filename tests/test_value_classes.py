"""The package's value classes against the frozen dataclasses they replaced.

Each class below is the dataclass as it stood, with its validation, kept
here as the oracle: the hand-written class must take the same positional
and keyword arguments with the same defaults, raise the same errors,
compare, hash and print the same, and refuse assignment.  The one class
still built by `dataclasses` is `construction.Instance`.  `AutGroup` is the
exception to the arguments and errors: calling it raises TypeError, since
only `close` and `AutGroup.intersect` build one, so its cases are built
from closures without the dataclass's identity and generator checks.  The
`EvalCode` and `EvalBasis` oracles take no rank, exact distance or basis
degree, the values those classes stopped taking: a code reads its rank
from its own row reduction, and a basis takes the degree of its first
nonzero form.  The `EvalCode` oracle takes rows of encodings, as the class
now stores them, in place of rows of field elements, and checks each entry
against the field order where the class checks each row's least and
greatest entry; its error texts are those of the element check.

`ProjPoint` and `ProjMap` were never dataclasses: they compared and
hashed by hand until they became `gf._Value`s.  Their mirrors are the
frozen dataclasses of the fields they compare, the point's spec and key and
the map's field and key, with the key hash and the repr the hand-written
classes had.  They are built through the unchecked `from_key`, so they
have no invalid cases; a map's size `n` is an argument of `from_key` but
no compared field.  `AutGroup` compares no `element_set`, which is derived
from its elements; `Divisor` stores no `ground_rational`, which every
divisor that `build_divisor` returns would hold as true; and `EvalBasis`
checks the arity of its forms against `n_coords` but does not store it.
"""

import dataclasses
import importlib
import inspect
import itertools
import pkgutil
from dataclasses import InitVar, dataclass, field

import pytest

import orbitcodes
from orbitcodes import autgroup, code_analysis, construction, geometry, gf
from orbitcodes.construction import Instance
from orbitcodes.errors import PreconditionError
from orbitcodes.geometry import Poly, poly_degree


@dataclass(frozen=True)
class FieldSpec:
    p: int
    k: int
    modulus: tuple

    def __post_init__(self):
        gf.check_order(self.p, self.k)
        if not gf.is_prime(self.p):
            raise PreconditionError("not_prime", f"{self.p} is not prime")
        if self.k < 1 or len(self.modulus) != self.k + 1:
            raise ValueError("modulus length must be k+1")
        if any(not (0 <= c < self.p) for c in self.modulus):
            raise ValueError("modulus coefficients must be reduced mod p")
        if not gf._is_irreducible(self.modulus, self.p):
            raise ValueError(f"modulus {self.modulus} is not monic irreducible over GF({self.p})")
        object.__setattr__(self, "_hash", hash((self.p, self.k, self.modulus)))

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"GF({self.p}^{self.k})" if self.k > 1 else f"GF({self.p})"


@dataclass(frozen=True)
class FieldElement:
    spec: gf.FieldSpec
    enc: int

    def __repr__(self):
        return f"{self.spec}[{self.enc}]"


@dataclass(frozen=True)
class Embedding:
    src: gf.FieldSpec
    dst: gf.FieldSpec
    image_of_generator: gf.FieldElement

    def __post_init__(self):
        if self.src.p != self.dst.p or self.dst.k % self.src.k != 0:
            raise PreconditionError("no_embedding", f"no embedding {self.src} -> {self.dst}")
        if self.image_of_generator.spec != self.dst:
            raise ValueError("image_of_generator must live in the destination field")
        if gf._eval_poly_at(self.src.modulus, self.image_of_generator):
            raise ValueError("image_of_generator is not a root of the source modulus")


@dataclass(frozen=True)
class ProjPoint:
    spec: gf.FieldSpec
    key: tuple

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        return "(" + ":".join(str(c) for c in self.key) + ")"


@dataclass(frozen=True)
class ProjMap:
    field: gf.FieldSpec
    n: InitVar[int]
    key: tuple

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        return f"ProjMap{self.key}"


@dataclass(frozen=True)
class PlaneCurve:
    n_coords: int
    field: gf.FieldSpec
    terms: tuple
    _points: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _encoded: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n_coords not in (2, 3):
            raise ValueError("ambient space must be P^1 or P^2")
        if self.n_coords == 2 and self.terms:
            raise ValueError("P^1 instances use the empty curve (every point lies on it)")
        if self.n_coords == 3 and not self.terms:
            raise ValueError("a plane curve needs at least one term")
        if self.terms:
            degs = set()
            for exps, c in self.terms:
                if len(exps) != self.n_coords:
                    raise ValueError("exponent tuple arity mismatch")
                if not c or c.spec != self.field:
                    raise ValueError(
                        "curve coefficients must be nonzero elements of the curve field"
                    )
                degs.add(sum(exps))
            if len(degs) != 1:
                raise ValueError("curve polynomial must be homogeneous")
        object.__setattr__(self, "terms", tuple(sorted(self.terms, key=lambda t: t[0])))


@dataclass(frozen=True)
class AutGroup:
    generators: tuple
    elements: tuple
    label: str = ""
    element_set: frozenset = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "element_set", frozenset(self.elements))
        if not self.elements or not self.elements[0].is_identity():
            raise ValueError("closure must start with the identity")
        if any(g not in self.element_set for g in self.generators):
            raise ValueError("every generator must appear in the closure")


@dataclass(frozen=True)
class EvalCode:
    field: gf.FieldSpec
    points: tuple
    encodings: tuple
    distance_bound: int

    def __post_init__(self):
        n = len(self.points)
        if any(len(row) != n for row in self.encodings):
            raise ValueError("matrix rows must match the number of points")
        if any(not 0 <= e < self.field.order for row in self.encodings for e in row):
            raise ValueError("matrix entries must live in the code field")
        if len(self.encodings) > n:
            raise ValueError("need nominal rows <= length")


@dataclass(frozen=True)
class CoordPermutation:
    perm: tuple

    def __post_init__(self):
        if sorted(self.perm) != list(range(len(self.perm))):
            raise ValueError("not a permutation")


@dataclass(frozen=True)
class Divisor:
    support: tuple
    field_of_definition: gf.FieldSpec

    def __post_init__(self):
        if not self.support:
            raise ValueError("divisor must have nonempty support")
        if any(m < 1 for _, m in self.support):
            raise ValueError("multiplicities must be positive")
        canon = tuple(sorted(self.support, key=lambda t: t[0].key))
        object.__setattr__(self, "support", canon)


@dataclass(frozen=True)
class EvalBasis:
    forms: tuple[Poly, ...]
    degree: int = field(init=False)
    n_coords: InitVar[int]

    def __post_init__(self, n_coords):
        degree = next((poly_degree(f) for f in self.forms if f), 0)
        object.__setattr__(self, "degree", degree)
        for f in self.forms:
            if not f:
                raise ValueError("basis forms must be nonzero")
            if poly_degree(f) != self.degree:
                raise ValueError("basis forms must share one total degree")
            if any(len(e) != n_coords for e in f):
                raise ValueError("basis form arity mismatch")


@dataclass(frozen=True)
class ConstructionResult:
    instance: Instance
    reports: tuple
    divisor: construction.Divisor | None
    points: tuple
    joint_order: int
    code: construction.EvalCode | None


# ---------------------------------------------------------------------------
# the arguments each class is built from


def built(family="fermat", q=3):
    inst = construction.builtin_instance(family, q)
    return inst, construction.run_construction(inst)


def closed_group(generators, elements, label=""):
    """The AutGroup of a closure's own generators and elements, through the
    constructor that `close` and `intersect` share."""
    return autgroup._group(generators, elements, label)


def cases():
    """(new class, oracle class, valid argument tuples, invalid argument
    tuples).  Both classes are built from the same argument objects."""
    F3, F9, F4 = gf.make_field(3, 1), gf.make_field(3, 2), gf.make_field(2, 2)
    inst, res = built()
    code = res.code
    rows = code.encodings
    curve = inst.curve
    G1, G2 = inst.groups
    root = gf.embedding(F3, F9).image_of_generator
    one = F9.one()
    pts = curve.rational_points(F9)
    f = {(1, 0, 0): one, (0, 0, 1): one}
    return [
        (geometry.ProjPoint.from_key, ProjPoint,
         [(F9, pts[0].key), (F9, (1, 2, 0)), (F3, (1, 2, 0)), (F9, (0, 1)), (F3, (0, 1))],
         []),
        (autgroup.ProjMap.from_key, ProjMap,
         [(F9, 3, G1.generators[0].key), (F9, 3, G1.elements[0].key), (F3, 2, (1, 0, 0, 2)),
          (F9, 2, (1, 0, 0, 2))],
         []),
        (gf.FieldSpec, FieldSpec,
         [(2, 2, (1, 1, 1)), (3, 1, (0, 1)), (3, 2, (1, 0, 1)), (5, 1, (2, 1))],
         [(4, 1, (0, 1)), (2, 2, (1, 1)), (3, 1, (3, 1)), (2, 2, (0, 0, 1)), (2, 17, (0,) * 18),
          (3, 0, (1,))]),
        (gf.FieldElement, FieldElement, [(F9, 0), (F9, 4), (F3, 2), (F4, 3)], []),
        (gf.Embedding, Embedding,
         [(F3, F9, root), (F9, F9, F9.gen()), (F4, gf.make_field(2, 4), gf.embedding(
             F4, gf.make_field(2, 4)).image_of_generator)],
         [(F3, F4, F4.one()), (F3, F9, F3.one()), (F4, gf.make_field(2, 4),
                                                   gf.make_field(2, 4).one())]),
        (geometry.PlaneCurve, PlaneCurve,
         [(3, F9, curve.terms), (3, F9, curve.terms[::-1]), (2, F9, ()), (3, F9, tuple(f.items()))],
         [(4, F9, ()), (2, F9, curve.terms), (3, F9, ()), (3, F9, (((1, 0), one),)),
          (3, F9, (((1, 0, 0), F9.zero()),)), (3, F9, (((1, 0, 0), F3.one()),)),
          (3, F9, (((1, 0, 0), one), ((2, 0, 0), one)))]),
        (closed_group, AutGroup,
         [(G1.generators, G1.elements, "G1"), (G2.generators, G2.elements),
          (G1.generators, G1.elements[:1] + G1.elements[:0:-1], "")],
         []),
        (construction.EvalCode, EvalCode,
         [(code.field, code.points, rows, code.distance_bound),
          (code.field, code.points, rows[:1], 4)],
         [(code.field, code.points[1:], rows, code.distance_bound),
          (F3, code.points, rows, code.distance_bound),
          (code.field, code.points, ((9,) + rows[0][1:],) + rows[1:], 0),
          (code.field, code.points, ((-1,) + rows[0][1:],) + rows[1:], 0),
          (code.field, code.points[:2], tuple(row[:2] for row in rows), 0)]),
        (code_analysis.CoordPermutation, CoordPermutation,
         [((0, 1, 2),), ((2, 0, 1),), ((),)],
         [((0, 0),), ((1, 2),)]),
        (construction.Divisor, Divisor,
         [(((pts[3], 2), (pts[1], 2)), F9), (res.divisor.support, F3)],
         [((), F9), (((pts[0], 0),), F9)]),
        (construction.EvalBasis, EvalBasis,
         [((f, {(0, 1, 0): one}), 3), (({(0, 2, 0): one},), 3), ((), 2)],
         [(({},), 3), ((f, {(2, 0, 0): one}), 3), (({(1, 0): one},), 3)]),
        (construction.ConstructionResult, ConstructionResult,
         [(res.instance, res.reports, res.divisor, res.points, res.joint_order, res.code),
          (inst, (), None, (), 0, None)],
         []),
    ]


CASES = cases()
IDS = [oracle.__name__ for _, oracle, *_ in CASES]
# AutGroup, ProjPoint and ProjMap have no validation to compare: see the
# module docstring
VALIDATED = [(case, name) for case, name in zip(CASES, IDS)
             if case[1] not in (AutGroup, ProjPoint, ProjMap)]


def keywords(oracle, args):
    return dict(zip(inspect.signature(oracle).parameters, args))


def compared(obj, oracle):
    return tuple(getattr(obj, f.name) for f in dataclasses.fields(oracle) if f.compare)


@pytest.mark.parametrize("new_cls,oracle,valid,invalid", CASES, ids=IDS)
def test_matches_the_dataclass(new_cls, oracle, valid, invalid):
    news = [new_cls(*args) for args in valid]
    olds = [oracle(*args) for args in valid]
    for args, new, old in zip(valid, news, olds):
        assert new_cls(**keywords(oracle, args)) == new
        assert compared(new, oracle) == compared(old, oracle)
        assert repr(new) == repr(old)
        try:
            want = hash(old)
        except TypeError:
            with pytest.raises(TypeError):
                hash(new)
        else:
            assert hash(new) == want == hash(new_cls(*args))
        assert new.__eq__(old) is NotImplemented
        assert new.__eq__(args) is NotImplemented
        assert new != "x" and new != compared(new, oracle)
        name = dataclasses.fields(oracle)[0].name
        with pytest.raises(AttributeError):
            setattr(new, name, getattr(new, name))
        with pytest.raises(AttributeError):
            delattr(new, name)
        with pytest.raises(AttributeError):
            new.unknown = 1
    for i, new in enumerate(news):
        for j, other in enumerate(news):
            assert (new == other) == (olds[i] == olds[j])
            assert (new != other) == (olds[i] != olds[j])


@pytest.mark.parametrize("new_cls,oracle,valid,invalid", [c for c, _ in VALIDATED],
                         ids=[name for _, name in VALIDATED])
def test_validation_matches_the_dataclass(new_cls, oracle, valid, invalid):
    for args in invalid:
        with pytest.raises(Exception) as want:
            oracle(*args)
        with pytest.raises(want.type) as got:
            new_cls(*args)
        assert str(got.value) == str(want.value)
        if isinstance(want.value, PreconditionError):
            assert got.value.kind == want.value.kind


def test_values_of_different_classes_are_not_compared():
    values = [new_cls(*valid[0]) for new_cls, _, valid, _ in CASES]
    for a, b in itertools.permutations(values, 2):
        assert a.__eq__(b) is NotImplemented


def test_cached_values_stay_off_equality():
    # the cached enumeration, encodings and reduction change no comparison
    inst, res = built()
    fresh = geometry.PlaneCurve(inst.curve.n_coords, inst.curve.field, inst.curve.terms)
    assert inst.curve.rational_points(inst.working) and fresh == inst.curve
    assert hash(fresh) == hash(inst.curve) and repr(fresh) == repr(inst.curve)
    code = res.code
    twin = construction.EvalCode(code.field, code.points, code.encodings, code.distance_bound)
    assert code.reduced and code.matrix and twin == code and repr(twin) == repr(code)
    assert "reduced" not in vars(twin) and "matrix" not in vars(twin)
    assert twin.rank == code.rank == 3


def package_classes():
    """(module name, class name, class) of every class the package defines."""
    for info in pkgutil.iter_modules(orbitcodes.__path__):
        if info.name == "__main__":  # runs the CLI
            continue
        module = importlib.import_module(f"orbitcodes.{info.name}")
        for name, obj in vars(module).items():
            if isinstance(obj, type) and obj.__module__ == module.__name__:
                yield info.name, name, obj


def test_instance_is_the_only_dataclass():
    found = [f"{mod}.{name}" for mod, name, cls in package_classes()
             if dataclasses.is_dataclass(cls)]
    assert found == ["construction.Instance"]


def test_value_is_the_only_class_that_defines_setattr():
    # the frozen dataclass Instance has the one `dataclasses` generates
    found = [f"{mod}.{name}" for mod, name, cls in package_classes()
             if "__setattr__" in vars(cls) and not dataclasses.is_dataclass(cls)]
    assert found == ["gf._Value"]


def test_every_slot_outside_the_fields_is_a_cache():
    # a value stores what it compares, plus what it derives from that
    extra = {
        f"{mod}.{name}": set(vars(cls).get("__slots__", ())) - set(cls._fields)
        for mod, name, cls in package_classes()
        if issubclass(cls, gf._Value) and cls is not gf._Value
    }
    assert {name: slots for name, slots in extra.items() if slots} == {
        "autgroup.ProjMap": {"n", "_logs"},
        "autgroup.AutGroup": {"element_set"},
        "geometry.PlaneCurve": {"_points", "_sections"},
    }


def test_point_and_map_reprs_are_pinned():
    F9 = gf.make_field(3, 2)
    inst = construction.builtin_instance("fermat", 3)
    assert repr(geometry.point(F9, 1, 2, 0)) == "(1:2:0)"
    assert repr(inst.Q) == "(1:4:0)"
    assert repr(inst.groups[0].generators[0]) == "ProjMap(1, 0, 0, 0, 6, 0, 0, 0, 6)"
    assert repr(autgroup.identity_map(F9, 2)) == "ProjMap(1, 0, 0, 1)"


def test_points_and_maps_built_two_ways_are_equal_with_equal_hashes():
    F9 = gf.make_field(3, 2)
    two = F9.from_int(2)
    # (2:4:0) normalizes by the inverse of 2, which is 2 in GF(3)
    scaled = geometry.ProjPoint((two, F9.from_enc(4), F9.zero()))
    keyed = geometry.ProjPoint.from_key(F9, F9.scale(2, (2, 4, 0)))
    assert scaled is not keyed and scaled == keyed and hash(scaled) == hash(keyed)
    assert scaled != geometry.ProjPoint.from_key(gf.make_field(3, 4), keyed.key)
    rows = ((two, F9.zero()), (F9.zero(), F9.from_enc(5)))
    m = autgroup.ProjMap(rows, F9)
    twin = autgroup.ProjMap.from_key(F9, 2, m.key)
    assert m is not twin and m == twin and hash(m) == hash(twin) == hash(m.key)
    assert m.key == (1, 0, 0, F9.mul(2, 5))
    assert {m: 1}[twin] == 1 and twin in {m} and len({m, twin}) == 1
