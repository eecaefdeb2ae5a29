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
nonzero form.
"""

import dataclasses
import importlib
import itertools
import pkgutil
from dataclasses import dataclass, field

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
    element_set: frozenset = field(init=False)

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
    matrix: tuple
    distance_bound: int

    def __post_init__(self):
        n = len(self.points)
        if any(len(row) != n for row in self.matrix):
            raise ValueError("matrix rows must match the number of points")
        if any(c.spec != self.field for row in self.matrix for c in row):
            raise ValueError("matrix entries must live in the code field")
        if len(self.matrix) > n:
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
    ground_rational: bool

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
    n_coords: int

    def __post_init__(self):
        degree = next((poly_degree(f) for f in self.forms if f), 0)
        object.__setattr__(self, "degree", degree)
        for f in self.forms:
            if not f:
                raise ValueError("basis forms must be nonzero")
            if poly_degree(f) != self.degree:
                raise ValueError("basis forms must share one total degree")
            if any(len(e) != self.n_coords for e in f):
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
    curve = inst.curve
    G1, G2 = inst.groups
    root = gf.embedding(F3, F9).image_of_generator
    one = F9.one()
    pts = curve.rational_points(F9)
    f = {(1, 0, 0): one, (0, 0, 1): one}
    return [
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
         [(code.field, code.points, code.matrix, code.distance_bound),
          (code.field, code.points, code.matrix[:1], 4)],
         [(code.field, code.points[1:], code.matrix, code.distance_bound),
          (F3, code.points, code.matrix, code.distance_bound),
          (code.field, code.points[:2], tuple(row[:2] for row in code.matrix), 0)]),
        (code_analysis.CoordPermutation, CoordPermutation,
         [((0, 1, 2),), ((2, 0, 1),), ((),)],
         [((0, 0),), ((1, 2),)]),
        (construction.Divisor, Divisor,
         [(((pts[3], 2), (pts[1], 2)), F9, True), (res.divisor.support, F3, False)],
         [((), F9, True), (((pts[0], 0),), F9, True)]),
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
# AutGroup has no validation left to compare: see the module docstring
VALIDATED = [(case, name) for case, name in zip(CASES, IDS) if case[1] is not AutGroup]


def keywords(oracle, args):
    names = [f.name for f in dataclasses.fields(oracle) if f.init]
    return dict(zip(names, args))


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
    twin = construction.EvalCode(code.field, code.points, code.matrix, code.distance_bound)
    assert code.reduced and code.encodings and twin == code and repr(twin) == repr(code)
    assert "reduced" not in vars(twin) and twin.rank == code.rank == 3


def test_instance_is_the_only_dataclass():
    found = []
    for info in pkgutil.iter_modules(orbitcodes.__path__):
        if info.name == "__main__":  # runs the CLI
            continue
        module = importlib.import_module(f"orbitcodes.{info.name}")
        for name, obj in vars(module).items():
            if isinstance(obj, type) and obj.__module__ == module.__name__:
                if dataclasses.is_dataclass(obj):
                    found.append(f"{info.name}.{name}")
    assert found == ["construction.Instance"]

