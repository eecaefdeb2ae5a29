"""Linear-code analytics over small finite fields.

Certification that a matrix group acting on the evaluation set embeds
faithfully into the code's permutation automorphism group, and the entry
point of the exact minimum distance, `min_distance_exact`, whose scan and
Brouwer-Zimmermann search live in `enumeration`.  The code, `EvalCode`,
its row reduction, `rank_and_rref`, and the membership test `in_row_space`
live in `construction`, which builds the code, reports its rank and proves
the distance from the geometry where it can (`certified_distance`).  So
`construct` and `verify` never load this module, `automorphisms` loads it
without `enumeration`, and `distance` loads both only when that proof does
not apply.  Every method here reads the code's rows of canonical
encodings, `EvalCode.encodings`, which the code stores, and its one
reduction of them, `EvalCode.reduced`; `EvalCode.matrix` is a
field-element view.

The faithful-action certificate reads the generators' permutations and
looks for one projective frame in the evaluation set (see
`verify_faithful`); the element-by-element scan is its fallback.
"""

from __future__ import annotations

from collections.abc import Sequence

from .errors import CheckReport
from .gf import _Value
from .geometry import ProjPoint
from .autgroup import AutGroup, ProjMap, find_frame

# rank_and_rref is unused here but stays bound: perfbench/trace_child.py
# looks it up under this module's name
from .construction import EvalCode, in_row_space, rank_and_rref  # noqa: F401

DEFAULT_MESSAGE_GUARD = 2**24


def min_distance_exact(code: EvalCode, max_messages: int = DEFAULT_MESSAGE_GUARD) -> int:
    """Minimum Hamming weight over all nonzero codewords, by the cheaper of
    two exact methods: a scan of one message per scalar class, or the
    Brouwer-Zimmermann search.  `max_messages` caps the codewords the
    chosen method forms; past it, PreconditionError
    `enumeration_guard_exceeded`.  The distance found goes through
    `construction.check_distance_bound`: below the designed bound it raises
    CheckFailure with a `distance_bound` report that names it, whichever
    method ran.  See `enumeration.min_distance_exact`, which is imported on
    the first call.
    """
    from .enumeration import min_distance_exact as enumerated

    return enumerated(code, max_messages)


class CoordPermutation(_Value):
    """A permutation of code coordinates; perm[j] is where position j goes."""

    __slots__ = ("perm",)
    _fields = __slots__

    def __init__(self, perm: tuple[int, ...]):
        if sorted(perm) != list(range(len(perm))):
            raise ValueError("not a permutation")
        self._init(perm)

    def is_identity(self) -> bool:
        return all(i == j for i, j in enumerate(self.perm))

    def apply_to(self, vector: Sequence) -> tuple:
        out = [None] * len(self.perm)
        for j, v in zip(self.perm, vector):
            out[j] = v
        return tuple(out)


def permutation_of(gamma: ProjMap, points: Sequence[ProjPoint]) -> CoordPermutation:
    """The coordinate permutation induced by gamma on an ordered point set,
    computed on the points' keys.

    Raises if gamma does not stabilize the set.
    """
    index = {p.key: i for i, p in enumerate(points)}
    perm = []
    for p in points:
        gamma.check_point(p)
        q = gamma.image(p.key)
        if q not in index:
            raise ValueError(f"map sends {p.key} outside the evaluation set (to {q})")
        perm.append(index[q])
    return CoordPermutation(tuple(perm))


def preserves_code(perm: CoordPermutation, code: EvalCode) -> bool:
    """True iff permuting coordinates maps the code onto itself, checked by
    reducing every permuted generator row against the row space."""
    _, rref, pivots = code.reduced
    if len(perm.perm) != code.n:
        raise ValueError("permutation length must match the code length")
    return all(
        in_row_space(code.field, perm.apply_to(row), rref, pivots) for row in code.encodings
    )


def verify_faithful(group: AutGroup, points: Sequence[ProjPoint], code: EvalCode) -> CheckReport:
    """Certify that the group acts on the code through distinct coordinate
    permutations that all preserve the code.

    Passes iff every induced permutation preserves the code and only the
    identity element induces the identity permutation; on success the image
    of the permutation representation has order exactly |group|.

    The certificate works on the generators and a projective frame in the
    evaluation set.  The generators must map the points onto themselves
    and preserve the code; `group.elements` lists the group they generate,
    each element once (see `autgroup`), so every element preserves the
    code.  A frame (3 distinct points of P^1, or 4 points of P^2 with no
    three collinear) fixes a projective map, so with a frame in the points
    only the identity acts trivially on them, and the image has order
    |group|.  Only when the points hold no frame are the elements scanned
    as well, after the generators pass.  The group lists its generators in
    its element order, so a failed report names the first failing element
    and its reason, as an element-by-element check does.  A map that sends
    a point outside the evaluation set gets no report: the ValueError of
    `permutation_of` is raised for the first element that does, as that
    check does.
    """
    failure = _scan_elements(group.generators, points, code)
    if failure is None and find_frame(points) is None:
        failure = _scan_elements(group.elements, points, code)
    if failure:
        return failure
    details = {"group_order": group.order, "image_order": group.order}
    return CheckReport("faithful_embedding", True, details)


def _scan_elements(maps: Sequence[ProjMap], points, code: EvalCode) -> CheckReport | None:
    """The report of the first of `maps`, in order, whose permutation of
    the points breaks the code or is the identity although the map is not;
    None when no map fails.  When every element of a group passes, only
    the identity acts trivially, so the action on the points is injective
    and its image has order |group|."""
    for gamma in maps:
        sigma = permutation_of(gamma, points)
        if not preserves_code(sigma, code):
            return CheckReport(
                "faithful_embedding",
                False,
                {"reason": "induced permutation does not preserve the code"},
                witness={"element": list(gamma.key)},
            )
        if sigma.is_identity() and not gamma.is_identity():
            return CheckReport(
                "faithful_embedding",
                False,
                {"reason": "non-identity element acts trivially on the evaluation set"},
                witness={"element": list(gamma.key)},
            )
    return None
