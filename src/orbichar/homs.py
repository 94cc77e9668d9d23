"""Finitely presented groups and homomorphism classes into finite groups.

A presentation is a generator count k together with relators, each relator a
word in the generators.  Words are tuples of nonzero signed integers: letter
``+i`` is generator i (1-based) and ``-i`` its inverse.  The built-in names
cover everything the sector machinery needs: ``Z``, ``Z^m``, ``F_k`` and
``trivial``.

Classes of homomorphisms Gamma -> G under conjugation by G come from one
orderly walk (``hom_classes``, after McKay's isomorph-free generation).  A
class's lex-least tuple is found greedily: x_1 is least in its conjugacy
class, x_2 least in its orbit under the centralizer C(x_1), and so on.  So
the walk extends a prefix only by the least members of the orbits of the
prefix's centralizer, keeps a candidate when the relators whose last
generator it is hold, and narrows the centralizer to the candidate's.
Every level, level 0 included, finds those orbits by one walk and reads
no stored class list.  Each class is met once, in lex order, with its
centralizer C and orbit size |G| / |C|.

A second route, every homomorphism (``enumerate_homs``, backtracking with
each relator checked once its last generator is assigned) closed into
G-orbits (``hom_orbits``), is kept for the direct side of ``verify
sectors``: the walk's "class of x_1, then C(x_1)-orbits of x_2" is the
very lemma that check tests.  Both routes refuse a candidate space |G|^k
above ``DEFAULT_HOM_CAP`` before any work -- there is no silent truncation.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field

from .errors import EnumerationCapExceeded, InputError, InvalidWord
from .groups import FiniteGroup, centralizer, generators, orbit, orbits

DEFAULT_HOM_CAP = 10**8


@dataclass(frozen=True)
class Presentation:
    generators: int
    relators: tuple = ()
    name: str | None = None

    def __post_init__(self):
        if self.generators < 0:
            raise InputError("generator count must be >= 0")
        object.__setattr__(
            self, "relators", tuple(tuple(w) for w in self.relators)
        )
        for word in self.relators:
            validate_word(word, self.generators)


def validate_word(word, generators: int) -> tuple:
    word = tuple(word)
    for letter in word:
        if not isinstance(letter, int) or letter == 0 or abs(letter) > generators:
            raise InvalidWord(
                f"letter {letter!r} out of range for {generators} generator(s)"
            )
    return word


def free_group(k: int) -> Presentation:
    return Presentation(k, (), name=f"F_{k}" if k != 1 else "Z")


def free_abelian(m: int) -> Presentation:
    """Z^m: m generators, commutator relators [g_i, g_j] for i < j."""
    relators = tuple(
        (i, j, -i, -j) for i in range(1, m + 1) for j in range(i + 1, m + 1)
    )
    return Presentation(m, relators, name=f"Z^{m}" if m != 1 else "Z")


def trivial_presentation() -> Presentation:
    return Presentation(0, (), name="trivial")


def parse_presentation(spec) -> Presentation:
    """Accept 'trivial', 'Z', 'Z^m', 'F_k', or an explicit dict."""
    if isinstance(spec, Presentation):
        return spec
    if isinstance(spec, dict):
        return Presentation(
            spec["generators"], tuple(spec.get("relators", ())), spec.get("name")
        )
    if isinstance(spec, str):
        s = spec.strip()
        if s == "trivial":
            return trivial_presentation()
        if s == "Z":
            return free_abelian(1)
        m = re.fullmatch(r"(Z\^|F_)(\d+)", s)
        if m:
            kind, digits = m.group(1), m.group(2).lstrip("0") or "0"
            # Past k = limit every group of order >= 2 has 2^k > cap
            # candidate tuples, so such a k is refused before a relator is
            # built; one with more digits than the limit is not converted.
            limit = DEFAULT_HOM_CAP.bit_length() - 1
            if len(digits) > len(str(limit)) or int(digits) > limit:
                count = digits if len(digits) <= 20 else f"a {len(digits)}-digit number of"
                raise EnumerationCapExceeded(
                    f"{kind}k with {count} generators: |G|^k exceeds enumeration"
                    f" cap {DEFAULT_HOM_CAP} for every group of order >= 2 once"
                    f" k > {limit}"
                )
            k = int(digits)
            return free_abelian(k) if kind == "Z^" else free_group(k)
    raise InputError(f"cannot parse presentation spec {spec!r}")


def product_presentation(p: Presentation, q: Presentation) -> Presentation:
    """Presentation of the direct product: both relator sets plus all
    cross commutators between the two generator blocks."""
    k = p.generators

    def shift(word):
        return tuple(l + k if l > 0 else l - k for l in word)

    relators = list(p.relators) + [shift(w) for w in q.relators]
    for i in range(1, k + 1):
        for j in range(k + 1, k + q.generators + 1):
            relators.append((i, j, -i, -j))
    name = None
    if p.name and q.name:
        name = f"{p.name} x {q.name}"
    return Presentation(k + q.generators, tuple(relators), name)


# ---------------------------------------------------------------------------
# homomorphisms


@dataclass(frozen=True)
class GroupHom:
    """A homomorphism into ``group``, recorded by its generator images."""

    group: FiniteGroup = field(compare=False)
    images: tuple = ()


def _evaluate(group: FiniteGroup, images, word) -> int:
    """The image of a word whose letters are known to be in range."""
    x = group.identity
    for letter in word:
        a = images[letter - 1] if letter > 0 else group.inverse[images[-letter - 1]]
        x = group.table[x][a]
    return x


def _check_hom_cap(presentation: Presentation, group: FiniteGroup) -> None:
    n, k = group.order, presentation.generators
    if n**k > DEFAULT_HOM_CAP:
        raise EnumerationCapExceeded(
            f"|G|^k = {n}^{k} exceeds enumeration cap {DEFAULT_HOM_CAP}"
        )


def _relator_buckets(presentation: Presentation) -> list:
    """The relators, bucketed by the last generator they mention."""
    buckets: list[list[tuple]] = [[] for _ in range(presentation.generators)]
    for word in presentation.relators:
        if word:
            buckets[max(abs(l) for l in word) - 1].append(word)
    return buckets


def enumerate_homs(presentation: Presentation, group: FiniteGroup) -> list[GroupHom]:
    """All homomorphisms, sorted lexicographically by image tuple.

    The candidate space has |G|^k points; if that exceeds ``DEFAULT_HOM_CAP``
    the call raises EnumerationCapExceeded rather than returning a partial
    answer.
    """
    _check_hom_cap(presentation, group)
    k = presentation.generators
    n = group.order
    if k == 0:
        return [GroupHom(group, ())]
    buckets = _relator_buckets(presentation)
    out: list[GroupHom] = []
    images = [0] * k

    def assign(i: int) -> None:
        for x in range(n):
            images[i] = x
            if all(_evaluate(group, images, w) == group.identity for w in buckets[i]):
                if i + 1 == k:
                    out.append(GroupHom(group, tuple(images)))
                else:
                    assign(i + 1)

    assign(0)
    del assign  # a recursive closure holds itself; unbinding frees the homs
    return out


@dataclass(frozen=True)
class HomClass:
    """A conjugacy class of homomorphisms, with a lex-minimal representative
    and the centralizer of its image (a sorted tuple of elements of G)."""

    representative: GroupHom
    orbit_size: int
    centralizer: tuple = field(compare=False, repr=False)


def hom_classes(presentation: Presentation, group: FiniteGroup) -> list[HomClass]:
    """Orbits of Hom(P, G) under pointwise conjugation by G, by the orderly
    walk of the module docstring.

    Canonical output: lex-min representative per orbit, classes sorted by
    representative.  Orbit sizes always sum to the total homomorphism count.
    """
    _check_hom_cap(presentation, group)
    k = presentation.generators
    n = group.order
    everything = tuple(range(n))
    if k == 0:
        return [HomClass(GroupHom(group, ()), 1, everything)]
    buckets = _relator_buckets(presentation)
    table, identity = group.table, group.identity
    out: list[HomClass] = []
    images = [0] * k

    def extend(i: int, cent: tuple) -> None:
        for x in _orbit_minima(group, cent):
            images[i] = x
            if all(_evaluate(group, images, w) == identity for w in buckets[i]):
                row = table[x]
                narrowed = tuple([g for g in cent if table[g][x] == row[g]])
                if len(narrowed) == len(cent):
                    narrowed = cent  # share the equal tuple
                if i + 1 == k:
                    hom = GroupHom(group, tuple(images))
                    out.append(HomClass(hom, n // len(narrowed), narrowed))
                else:
                    extend(i + 1, narrowed)

    extend(0, everything)
    del extend  # a recursive closure holds itself; unbinding frees the classes
    return out


def _orbit_minima(group: FiniteGroup, cent: tuple) -> list:
    """The least member of each orbit that conjugation by the subgroup
    ``cent`` makes on G, in increasing order, by an orbit walk along the
    conjugations by ``groups.generators(group, cent)``, level 0 included."""
    n = group.order
    table, inverse = group.table, group.inverse
    moves = []
    for g in generators(group, cent):
        row, back = table[g], inverse[g]
        moves.append([table[y][back] for y in row])  # x -> g x g^-1
    return [
        members[0]
        for members in orbits(range(n), lambda x: orbit(x, moves, _conjugate))
    ]


def _conjugate(x: int, move: list) -> int:
    """x moved by one conjugation, given as the list of all its images."""
    return move[x]


def hom_orbits(presentation: Presentation, group: FiniteGroup) -> list[HomClass]:
    """The classes of ``hom_classes`` by the second route: every
    homomorphism, each orbit closed by conjugating with all of G, and each
    centralizer from ``groups.centralizer``."""
    homs = enumerate_homs(presentation, group)
    table, inverse = group.table, group.inverse

    def conjugates(t: tuple) -> set:
        return {
            tuple(table[table[g][x]][inverse[g]] for x in t)
            for g in range(group.order)
        }

    # The homs are lex-sorted, so each orbit opens at its lex-min member.
    return [
        HomClass(GroupHom(group, members[0]), len(members), centralizer(group, members[0]))
        for members in orbits([h.images for h in homs], conjugates)
    ]
