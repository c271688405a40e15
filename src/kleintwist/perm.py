"""Permutations of {1..n}, finite permutation groups, subgroup
enumeration, conjugacy, and isomorphism-type recognition for the small
orders this package cares about.

Composition is right-to-left: (a * b)(i) == a(b(i)).

Groups are computed two ways. _closure lists every element (Dimino's
algorithm) and is the only enumerator; _schreier_sims finds a base and
its transversals, whose orbit lengths multiply to the group order without
listing a single element. A group made by generate() uses the second for
`order` and the first for everything that reads its elements, and when a
group has used both, the two counts must agree.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from math import lcm, prod
from operator import attrgetter, itemgetter
from typing import Iterable, Iterator, Optional

from .errors import NotASubgroup

Images = tuple[int, ...]


def _compose_images(a: Images, b: Images) -> Images:
    return tuple(a[j - 1] for j in b)


def _inverse_images(a: Images) -> Images:
    inv = [0] * len(a)
    for i, j in enumerate(a, start=1):
        inv[j - 1] = i
    return tuple(inv)


class Permutation:
    """A permutation of {1, ..., n} stored as its tuple of images.

    Instances are treated as immutable; they hash and sort by the image
    tuple, so iteration orders built on them are deterministic.
    """

    __slots__ = ("images",)

    def __init__(self, images: Iterable[int]):
        imgs = tuple(images)
        if sorted(imgs) != list(range(1, len(imgs) + 1)):
            raise ValueError(f"not a permutation of 1..{len(imgs)}: {imgs!r}")
        self.images = imgs

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        return cls(range(1, degree + 1))

    @classmethod
    def from_cycles(cls, degree: int, cycles: Iterable[Iterable[int]]) -> "Permutation":
        imgs = list(range(1, degree + 1))
        for cyc in cycles:
            cyc = list(cyc)
            for pos, point in enumerate(cyc):
                imgs[point - 1] = cyc[(pos + 1) % len(cyc)]
        return cls(imgs)

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, point: int) -> int:
        return self.images[point - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        if self.degree != other.degree:
            raise ValueError("degree mismatch")
        return Permutation(_compose_images(self.images, other.images))

    def inverse(self) -> "Permutation":
        return Permutation(_inverse_images(self.images))

    def __pow__(self, k: int) -> "Permutation":
        if k < 0:
            return self.inverse() ** (-k)
        out = Permutation.identity(self.degree)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles, each rotated to start at its minimum and
        sorted by that minimum."""
        seen = set()
        out = []
        for start in range(1, self.degree + 1):
            if start in seen:
                continue
            cyc = [start]
            seen.add(start)
            nxt = self(start)
            while nxt != start:
                cyc.append(nxt)
                seen.add(nxt)
                nxt = self(nxt)
            if len(cyc) > 1:
                out.append(tuple(cyc))
        return out

    def order(self) -> int:
        lens = [len(c) for c in self.cycles()]
        return lcm(*lens) if lens else 1

    def sign(self) -> int:
        transpositions = sum(len(c) - 1 for c in self.cycles())
        return -1 if transpositions % 2 else 1

    def is_identity(self) -> bool:
        return self.images == tuple(range(1, self.degree + 1))

    def cycle_string(self) -> str:
        cycs = self.cycles()
        if not cycs:
            return "id"
        sep = "" if self.degree <= 9 else " "
        return "".join("(" + sep.join(str(p) for p in c) + ")" for c in cycs)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __lt__(self, other: "Permutation") -> bool:
        return (self.degree, self.images) < (other.degree, other.images)

    def __repr__(self) -> str:
        return f"Permutation({self.cycle_string()}, degree={self.degree})"


class PermGroup:
    """A finite group of permutations of one common degree.

    `images` is the frozenset of the elements' image tuples; membership,
    equality, hashing and subgroup tests read it, and the hash equals the
    hash of (degree, frozenset of the Permutations). `elements`, the
    frozenset of Permutation objects, is built from `images` on first
    access and kept, so every element passes Permutation's own check
    there; a group made by the public constructor keeps the Permutations
    it was given.

    The public constructor, and _from_images, which all_subgroups and
    symmetric_group use, store `images` at once. A group made by generate()
    stores only its degree and generators. Its `order` runs Schreier-Sims
    once and keeps the product of the orbit lengths; its `images` are
    built on first read by _closure, and if the order is known by then the
    two counts must agree, or ValueError is raised.

    Every image set is stored through one step (_store) that first checks
    that the set is non-empty, of one degree, holds the identity and is
    inverse-closed. It does not check product closure, which costs |G|^2
    products: as_subgroup does, and _closure is closed by construction.
    """

    __slots__ = ("degree", "generators", "_images", "_order", "_elements")

    def __init__(self, degree: int, elements: Iterable[Permutation],
                 generators: Iterable[Permutation] = ()):
        elems = frozenset(elements)
        self._store(degree, frozenset(p.images for p in elems), generators)
        self._order = None
        self._elements = elems

    @classmethod
    def _from_images(cls, degree: int, images: Iterable[Images],
                     generators: Iterable[Permutation] = ()) -> "PermGroup":
        """The group whose elements have the given image tuples; the
        Permutation objects are built only if `elements` is read."""
        G = cls.__new__(cls)
        G._store(degree, frozenset(images), generators)
        G._order = G._elements = None
        return G

    @classmethod
    def _generated(cls, degree: int, generators: tuple[Permutation, ...]) -> "PermGroup":
        """The group generated by permutations of the given degree; nothing
        about it is computed until it is read."""
        G = cls.__new__(cls)
        G.degree = degree
        G.generators = generators
        G._images = G._order = G._elements = None
        return G

    def _store(self, degree: int, images: frozenset[Images],
               generators: Iterable[Permutation]) -> None:
        if not images:
            raise ValueError("a group needs at least the identity")
        if set(map(len, images)) != {degree}:
            raise ValueError("mixed degrees in group element set")
        if tuple(range(1, degree + 1)) not in images:
            raise ValueError("identity missing")
        t = next((t for t in images if _inverse_images(t) not in images), None)
        if t is not None:
            raise ValueError(f"inverse of {Permutation(t)} missing")
        self.degree = degree
        self._images = images
        self.generators = tuple(generators)

    @property
    def images(self) -> frozenset[Images]:
        if self._images is None:
            images = _closure(self.degree, [g.images for g in self.generators])
            if self._order is not None and len(images) != self._order:
                raise ValueError(f"closure lists {len(images)} elements, "
                                 f"Schreier-Sims counts {self._order}")
            self._store(self.degree, images, self.generators)
        return self._images

    @property
    def elements(self) -> frozenset[Permutation]:
        if self._elements is None:
            self._elements = frozenset(map(Permutation, self.images))
        return self._elements

    @property
    def order(self) -> int:
        if self._images is not None:
            return len(self._images)
        if self._order is None:
            _, transversals = _schreier_sims(self.degree, [g.images for g in self.generators])
            self._order = prod(map(len, transversals))
        return self._order

    def sorted_elements(self) -> list[Permutation]:
        # one degree throughout, so image order is Permutation order
        return sorted(self.elements, key=attrgetter("images"))

    def __contains__(self, p: Permutation) -> bool:
        return p.images in self.images

    def __iter__(self) -> Iterator[Permutation]:
        return iter(self.sorted_elements())

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, PermGroup)
                and self.degree == other.degree
                and self.images == other.images)

    def __hash__(self) -> int:
        return hash((self.degree, self.images))

    def __repr__(self) -> str:
        return f"PermGroup(order={self.order}, degree={self.degree})"

    def is_abelian(self) -> bool:
        elems = self.sorted_elements()
        for i, a in enumerate(elems):
            for b in elems[i + 1:]:
                if a * b != b * a:
                    return False
        return True

    def is_subgroup_of(self, other: "PermGroup") -> bool:
        return self.degree == other.degree and self.images <= other.images

    def element_order_profile(self) -> tuple[tuple[int, int], ...]:
        counts = Counter(p.order() for p in self.elements)
        return tuple(sorted(counts.items()))


def _closure(degree: int, seed: Iterable[Images]) -> frozenset[Images]:
    """Image tuples of the group generated by the seed, built by adding
    one generator at a time (Dimino's algorithm; Butler, Fundamental
    Algorithms for Permutation Groups, LNCS 559, 1991).

    The known elements always form the group H generated by the kept
    generators. A seed element already in H costs one lookup and is
    dropped. A new one, g, is kept, and the group it generates with H is
    a union of right cosets H*x: a breadth-first search over coset
    representatives, starting from g, multiplies each representative on
    the right by every kept generator, and a product outside the known
    elements is a new representative whose whole coset is added at once.
    Every product composes through an itemgetter of 0-based images, so a
    coset is one map over H.
    """
    seen = {tuple(range(1, degree + 1))}
    steps = []
    for g in seed:
        if g in seen:
            continue
        # g is not the identity, so it has degree >= 2 and every getter
        # takes at least two indices: it returns a tuple, never a scalar
        steps.append(itemgetter(*[j - 1 for j in g]))
        base = list(seen)
        seen.update(map(steps[-1], base))
        reps = [g]
        for r in reps:
            for step in steps:
                c = step(r)
                if c not in seen:
                    seen.update(map(itemgetter(*[j - 1 for j in c]), base))
                    reps.append(c)
    return frozenset(seen)


def _schreier_sims(degree: int, seed: Iterable[Images]) -> tuple[list[int], list[dict]]:
    """A base and its transversals for the group generated by the seed,
    by the deterministic Schreier-Sims algorithm (Sims, 1970; Holt, Eick
    and O'Brien, Handbook of Computational Group Theory, 2005, 4.4.2).

    Points and image tuples are 0-based here. Level i has a base point
    b_i, the strong generators that fix b_0..b_{i-1}, and a transversal
    mapping each point c of the orbit of b_i under them to a pair (u, u^-1)
    with u(b_i) == c. To sift g from level i is to divide it by the u of
    g(b_i) at each level until a point falls outside an orbit; a residue of
    the identity proves g lies in the group. A seed element that sifts to
    the identity is dropped. Otherwise its residue joins the strong
    generators of every level it fixes, and the levels are completed from
    that one back to level 0: every Schreier generator u_{x(c)}^-1 x u_c
    of a level must sift to the identity through the levels after it, and
    one that does not adds its residue the same way and restarts at the
    level where it stuck. Then the stabilizer of b_i in the group of level
    i is generated by the strong generators of level i + 1, so the group
    order is the product of the orbit lengths. Returns the base and, per
    level, {c: u}.
    """
    # only a group that moves a point has a base point, and then degree >= 2:
    # every getter below takes at least two indices and returns a tuple
    ident = tuple(range(degree))
    base, strong, trans = [], [], []

    def sift(g, level):
        for i in range(level, len(base)):
            pair = trans[i].get(g[base[i]])
            if pair is None:
                return g, i
            g = itemgetter(*g)(pair[1])
        return g, len(base)

    def add(r, first, last):
        if last == len(base):
            base.append(next(p for p in ident if r[p] != p))
            strong.append([])
            trans.append({base[-1]: (ident, ident)})
        for i in range(first, last + 1):
            strong[i].append(r)
            orbit = trans[i]
            points = list(orbit)
            for c in points:
                u = orbit[c][0]
                for x in strong[i]:
                    d = x[c]
                    if d not in orbit:
                        v = itemgetter(*u)(x)
                        orbit[d] = (v, tuple(sorted(ident, key=v.__getitem__)))
                        points.append(d)

    def unsifted_schreier_generator(i):
        orbit = trans[i]
        for c, (u, _) in orbit.items():
            for x in strong[i]:
                h = itemgetter(*itemgetter(*u)(x))(orbit[x[c]][1])
                if h != ident:
                    r, j = sift(h, i + 1)
                    if r != ident:
                        return r, j
        return None

    for g in seed:
        r, j = sift(tuple(p - 1 for p in g), 0)
        if r == ident:
            continue
        add(r, 0, j)
        i = j
        while i >= 0:
            found = unsifted_schreier_generator(i)
            if found is None:
                i -= 1
            else:
                add(found[0], i + 1, found[1])
                i = found[1]
    return base, [{c: u for c, (u, _) in orbit.items()} for orbit in trans]


def generate(degree: int, generators: Iterable[Permutation]) -> PermGroup:
    """Smallest group containing the given permutations. Only the degree
    and the generators are stored; see PermGroup for what is computed when
    `order` or the elements are read."""
    gens = tuple(generators)
    for g in gens:
        if g.degree != degree:
            raise ValueError(f"generator {g} has degree {g.degree}, not {degree}")
    return PermGroup._generated(degree, gens)


def symmetric_group(n: int) -> PermGroup:
    if n < 1:
        raise ValueError("degree must be positive")
    gens: tuple[Permutation, ...] = ()
    if n >= 2:
        swap = Permutation.from_cycles(n, [(1, 2)])
        cyc = Permutation(tuple(range(2, n + 1)) + (1,))
        gens = (swap,) if n == 2 else (swap, cyc)
    return PermGroup._from_images(n, itertools.permutations(range(1, n + 1)), gens)


def klein_group() -> PermGroup:
    """The diagonal Klein four-group in S4: id, (12)(34), (13)(24), (14)(23).

    Sorting its elements by image tuple puts them in exactly that order,
    which the basis conventions elsewhere rely on.
    """
    a = Permutation.from_cycles(4, [(1, 2), (3, 4)])
    b = Permutation.from_cycles(4, [(1, 3), (2, 4)])
    return generate(4, (a, b))


def easy_klein() -> PermGroup:
    """The Klein four-group generated by the disjoint swaps (12) and (34)."""
    a = Permutation.from_cycles(4, [(1, 2)])
    b = Permutation.from_cycles(4, [(3, 4)])
    return generate(4, (a, b))


def as_subgroup(parent: PermGroup, elements: Iterable[Permutation]) -> PermGroup:
    """Wrap elements as a subgroup of parent, verifying full closure.

    Raises NotASubgroup when containment, the identity, an inverse, or a
    product is missing.  Only meant for small sets.
    """
    elems = frozenset(elements)
    for p in elems:
        if p not in parent:
            raise NotASubgroup(f"{p} is not an element of the parent group")
    if Permutation.identity(parent.degree) not in elems:
        raise NotASubgroup("identity missing")
    for p in elems:
        if p.inverse() not in elems:
            raise NotASubgroup(f"inverse of {p} missing")
    for a in elems:
        for b in elems:
            if a * b not in elems:
                raise NotASubgroup(f"product {a} * {b} falls outside the set")
    return PermGroup(parent.degree, elems)


@lru_cache(maxsize=16)
def all_subgroups(G: PermGroup) -> tuple[PermGroup, ...]:
    """Every subgroup of G, found by repeatedly extending known subgroups
    by one extra generator, ordered by order, then by sorted elements.
    Restricted to |G| <= 48 to keep the closure workload trivial.

    <H, g> = <H, a g b> for every a, b in H, so each H is extended by one
    g per double coset H g H outside H, the first in image order.  A
    group is immutable and hashed by its elements, so the answer is kept
    per group, as a tuple: equal groups share one enumeration."""
    if G.order > 48:
        raise ValueError(f"subgroup enumeration restricted to order <= 48, got {G.order}")
    ident = tuple(range(1, G.degree + 1))
    elems = sorted(G.images)
    trivial = frozenset({ident})
    found = {trivial}
    layer = [trivial]
    while layer:
        fresh = []
        for H in layer:
            # x -> x b for each b in H, as itemgetters; below degree 2 no g
            # lies outside H, and a getter would not return a tuple
            right = [itemgetter(*[j - 1 for j in b]) for b in H] if G.degree > 1 else []
            covered = set(H)
            for g in elems:
                if g in covered:
                    continue
                # a g for a in H, then every right multiple: the double coset
                left = [_compose_images(a, g) for a in H]
                covered.update(step(x) for step in right for x in left)
                K = _closure(G.degree, list(H) + [g])
                if K not in found:
                    found.add(K)
                    fresh.append(K)
        layer = fresh
    ordered = sorted(found, key=lambda S: (len(S), sorted(S)))
    return tuple(PermGroup._from_images(G.degree, S) for S in ordered)


def subgroups_of_type(G: PermGroup, t: "GroupType | str") -> list[PermGroup]:
    """All subgroups of G with the given isomorphism type (a GroupType or
    its tag name)."""
    name = t if isinstance(t, str) else t.name
    return [H for H, found in _typed_subgroups(G) if found == name]


@lru_cache(maxsize=16)
def _typed_subgroups(G: PermGroup) -> tuple:
    """(H, the tag name of H's isomorphism type) for every subgroup H of G,
    in all_subgroups' order, kept per group like all_subgroups."""
    return tuple((H, isomorphism_type(H).name) for H in all_subgroups(G))


def is_characteristic_under_inner(G: PermGroup, H: PermGroup) -> bool:
    """True iff every conjugation by an element of G maps H onto H.

    For groups whose automorphisms are all inner (S4 is one, a classical
    fact this package does not re-prove) this settles being characteristic.
    """
    if not H.is_subgroup_of(G):
        raise NotASubgroup("H is not contained in G")
    return all({g * h * g.inverse() for h in H.elements} == H.elements
               for g in G.elements)


def are_conjugate(G: PermGroup, H1: PermGroup, H2: PermGroup) -> Optional[Permutation]:
    """A g in G with g H1 g^-1 == H2, or None.  The identity is tried
    first so equal subgroups get the identity witness."""
    if H1.images == H2.images:
        return Permutation.identity(G.degree)
    # the identity is the smallest image tuple, so it sorts first
    for g in G.sorted_elements()[1:]:
        ginv = g.inverse()
        if {g * h * ginv for h in H1.elements} == H2.elements:
            return g
    return None


def normalizer(G: PermGroup, H: PermGroup) -> PermGroup:
    members = set()
    for g in G.elements:
        ginv = g.inverse()
        if {g * h * ginv for h in H.elements} == H.elements:
            members.add(g)
    return PermGroup(G.degree, members)


@dataclass(frozen=True)
class GroupType:
    """Isomorphism-type fingerprint: order, abelianness, and the sorted
    (element order, count) profile.  Named tags cover the types that can
    occur in this project; anything else is tagged Other but still
    carries the distinguishing fields."""

    name: str
    order: int
    abelian: bool
    profile: tuple[tuple[int, int], ...]


_NAMED_TYPES: dict[tuple[int, bool, tuple[tuple[int, int], ...]], str] = {
    (1, True, ((1, 1),)): "Trivial",
    (2, True, ((1, 1), (2, 1))): "Z2",
    (3, True, ((1, 1), (3, 2))): "Z3",
    (4, True, ((1, 1), (2, 1), (4, 2))): "Z4",
    (4, True, ((1, 1), (2, 3))): "Klein",
    (6, False, ((1, 1), (2, 3), (3, 2))): "S3",
    (8, True, ((1, 1), (2, 1), (4, 2), (8, 4))): "Z8",
    (8, True, ((1, 1), (2, 3), (4, 4))): "Z2xZ4",
    (8, True, ((1, 1), (2, 7))): "Z2xZ2xZ2",
    (8, False, ((1, 1), (2, 5), (4, 2))): "D4",
    (8, False, ((1, 1), (2, 1), (4, 6))): "Q8",
    (12, False, ((1, 1), (2, 3), (3, 8))): "A4",
    # Among the fifteen groups of order 24 only S4 has this profile: the
    # other two with eight order-3 elements, SL(2,3) and Z2 x A4, have one
    # and seven involutions respectively.
    (24, False, ((1, 1), (2, 9), (3, 8), (4, 6))): "S4",
}


def isomorphism_type(G: PermGroup) -> GroupType:
    if G.order > 24:
        raise ValueError(f"type recognition restricted to order <= 24, got {G.order}")
    profile = G.element_order_profile()
    abelian = G.is_abelian()
    name = _NAMED_TYPES.get((G.order, abelian, profile), "Other")
    return GroupType(name, G.order, abelian, profile)
