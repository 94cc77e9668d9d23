"""Finitely presented groups and exhaustive homomorphism enumeration.

A presentation is a generator count k together with relators, each relator a
word in the generators.  Words are tuples of nonzero signed integers: letter
``+i`` is generator i (1-based) and ``-i`` its inverse.  The built-in names
cover everything the sector machinery needs: ``Z``, ``Z^m``, ``F_k`` and
``trivial``.

Homomorphisms into a finite group G are enumerated by backtracking over
generator images.  A relator is checked as soon as all generators occurring
in it have been assigned, so e.g. for Z^m the commutation constraints prune
prefixes immediately.  Enumeration is exact or it raises -- there is no
silent truncation.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field

from .errors import EnumerationCapExceeded, InputError, InvalidWord
from .groups import FiniteGroup

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
        m = re.fullmatch(r"Z\^(\d+)", s)
        if m:
            return free_abelian(int(m.group(1)))
        m = re.fullmatch(r"F_(\d+)", s)
        if m:
            return free_group(int(m.group(1)))
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

    def evaluate(self, word) -> int:
        return evaluate_word(self.group, self.images, word)


def evaluate_word(group: FiniteGroup, images, word) -> int:
    validate_word(word, len(images))
    x = group.identity
    for letter in word:
        a = images[letter - 1] if letter > 0 else group.inverse[images[-letter - 1]]
        x = group.table[x][a]
    return x


def _word_prefix_check(group, images, word, assigned):
    """Evaluate a relator whose letters all reference assigned generators."""
    x = group.identity
    for letter in word:
        idx = abs(letter) - 1
        a = images[idx] if letter > 0 else group.inverse[images[idx]]
        x = group.table[x][a]
    return x == group.identity


def enumerate_homs(
    presentation: Presentation, group: FiniteGroup, cap: int = DEFAULT_HOM_CAP
) -> list[GroupHom]:
    """All homomorphisms, sorted lexicographically by image tuple.

    The candidate space has |G|^k points; if that exceeds ``cap`` the call
    raises EnumerationCapExceeded rather than returning a partial answer.
    """
    k = presentation.generators
    n = group.order
    if n**k > cap:
        raise EnumerationCapExceeded(
            f"|G|^k = {n}^{k} exceeds enumeration cap {cap}"
        )
    if k == 0:
        return [GroupHom(group, ())]
    # Relators, bucketed by the last generator they mention.
    buckets: list[list[tuple]] = [[] for _ in range(k)]
    for word in presentation.relators:
        if word:
            buckets[max(abs(l) for l in word) - 1].append(word)
    out: list[GroupHom] = []
    images = [0] * k

    def assign(i: int) -> None:
        for x in range(n):
            images[i] = x
            if all(_word_prefix_check(group, images, w, i) for w in buckets[i]):
                if i + 1 == k:
                    out.append(GroupHom(group, tuple(images)))
                else:
                    assign(i + 1)

    assign(0)
    return out


@dataclass(frozen=True)
class HomClass:
    """A conjugacy class of homomorphisms, with a lex-minimal representative."""

    representative: GroupHom
    orbit_size: int


def hom_classes(
    presentation: Presentation, group: FiniteGroup, cap: int = DEFAULT_HOM_CAP
) -> list[HomClass]:
    """Orbits of Hom(P, G) under pointwise conjugation by G.

    Canonical output: lex-min representative per orbit, classes sorted by
    representative.  Orbit sizes always sum to the total homomorphism count.
    """
    homs = enumerate_homs(presentation, group, cap=cap)
    if presentation.generators == 0:
        return [HomClass(GroupHom(group, ()), 1)]
    table, inverse = group.table, group.inverse
    visited = set()
    classes = []
    for hom in homs:  # already lex-sorted, so first unvisited is the min
        t = hom.images
        if t in visited:
            continue
        orbit = {
            tuple(table[table[g][x]][inverse[g]] for x in t)
            for g in range(group.order)
        }
        visited.update(orbit)
        classes.append(HomClass(GroupHom(group, min(orbit)), len(orbit)))
    return classes
