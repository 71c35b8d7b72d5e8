"""Permutations and permutation groups on {1..n}.

Composition applies the left factor first: (p*q)(i) = q(p(i)).  This
makes every action in the package a right action, matching the row-vector
convention of the linear algebra layer.

A subgroup is a PermGroup too, whose `parent` is the group it was taken
in.  Groups at the scale handled here (order a few thousand) are
enumerated outright; there is no Schreier-Sims machinery.  Closures run
breadth-first over image tuples, and only the enumerated elements of a
group are wrapped as Permutation objects.  The subgroup
class search and the conjugacy test share one multiplication table per
group, which holds |G|^2 entries, so only they build it, behind one cap
(SUBGROUP_CLASS_CAP).  Once built, it is also where the class search
takes each class's generators and `sha2_omega` takes the regular module
Z[G] of its free cover.  The maximal cyclic classes that `sha2_omega`
needs come as a generator and the list of element numbers in that table,
not as subgroups: the generator's column moves the lifts that stand for
each class's norm kernel.
Transversals, coset moves and generator words read the table once
the class search has built it, and compose permutations otherwise; both
routes give the same numbering and the same words.  Caps guard against
accidental blowups.  The two that callers set, a group's
`max_order` and the `cap=` of `subgroup_classes` and
`are_conjugate_subgroups`, are keyword arguments; the others are the
module constants.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from functools import cache
from math import lcm

from .errors import CapExceeded, NotASubgroupError, UsageError

DEGREE_CAP = 16
DEFAULT_MAX_ORDER = 100_000
SUBGROUP_CLASS_CAP = 2520
# the coset cap of `fpgroups.todd_coxeter`, kept with the other caps so
# that the CLI reads its default without importing fpgroups
DEFAULT_MAX_COSETS = 100_000


class Permutation:
    """Immutable permutation of {1..degree}, stored as 0-based images."""

    __slots__ = ("images",)

    def __init__(self, images):
        object.__setattr__(self, "images", tuple(images))

    def __setattr__(self, name, value):
        raise AttributeError("Permutation is immutable")

    @staticmethod
    def identity(degree):
        return Permutation(range(degree))

    @staticmethod
    def from_cycles(cycles, degree=None):
        """Product of the given cycles (1-based points), applied left to right."""
        cycles = [tuple(int(x) for x in c) for c in cycles]
        maxpt = max((max(c) for c in cycles if c), default=0)
        if degree is None:
            degree = maxpt
        if maxpt > degree:
            raise ValueError(f"cycle point {maxpt} exceeds degree {degree}")
        result = Permutation.identity(degree)
        for c in cycles:
            if any(x < 1 for x in c):
                raise ValueError("cycle points must be >= 1")
            if len(set(c)) != len(c):
                raise ValueError(f"repeated point in cycle {c}")
            imgs = list(range(degree))
            for a, b in zip(c, c[1:] + c[:1]):
                imgs[a - 1] = b - 1
            result = result * Permutation(imgs)
        return result

    @property
    def degree(self):
        return len(self.images)

    def __mul__(self, other):
        si, oi = self.images, other.images
        if len(si) != len(oi):
            raise ValueError("degree mismatch")
        return _perm(tuple([oi[i] for i in si]))

    def inverse(self):
        inv = [0] * len(self.images)
        for i, x in enumerate(self.images):
            inv[x] = i
        return _perm(tuple(inv))

    def is_identity(self):
        return all(i == x for i, x in enumerate(self.images))

    def order(self):
        cyc = self.cycles()
        return lcm(*(len(c) for c in cyc)) if cyc else 1

    def cycles(self):
        """Disjoint cycles as 1-based tuples, each starting at its minimum."""
        seen = [False] * self.degree
        out = []
        for i in range(self.degree):
            if seen[i] or self.images[i] == i:
                seen[i] = True
                continue
            cyc = []
            j = i
            while not seen[j]:
                seen[j] = True
                cyc.append(j + 1)
                j = self.images[j]
            out.append(tuple(cyc))
        return tuple(out)

    def cycle_string(self):
        cyc = self.cycles()
        if not cyc:
            return "()"
        return "".join("(" + " ".join(map(str, c)) + ")" for c in cyc)

    def extend(self, degree):
        if degree < self.degree:
            raise ValueError("cannot shrink a permutation")
        return Permutation(self.images + tuple(range(self.degree, degree)))

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.images == other.images

    def __lt__(self, other):
        return self.images < other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        return f"Permutation[{self.degree}] {self.cycle_string()}"


# the setter of the one slot, which Permutation.__setattr__ refuses
_set_images = Permutation.images.__set__


def _perm(images):
    """The Permutation on images, a tuple of 0-based images, built
    without the constructor's copy."""
    p = object.__new__(Permutation)
    _set_images(p, images)
    return p


def _closure_images(degree, generators, cap):
    """The set of image tuples of all products of the generators, BFS
    from the identity."""
    gens = [g.images for g in generators]
    ident = tuple(range(degree))
    seen = {ident}
    out = [ident]
    for cur in out:
        for g in gens:
            nxt = tuple(map(g.__getitem__, cur))
            if nxt not in seen:
                if len(seen) >= cap:
                    raise CapExceeded(f"group order exceeds cap {cap}")
                seen.add(nxt)
                out.append(nxt)
    return seen


class PermGroup:
    """A permutation group given by generators; enumerated lazily.

    A subgroup is a PermGroup whose `parent` is the group it was taken in
    (None for a group that was not); its generators must lie in the parent.
    """

    __slots__ = (
        "degree", "generators", "_label", "kind", "max_order", "parent",
        "_elements", "_element_set", "_word_cache", "_class_cache", "_table",
    )

    def __init__(self, degree, generators, label=None, kind=None, max_order=DEFAULT_MAX_ORDER,
                 parent=None, _elements=None):
        gens = []
        for g in generators:
            if g.degree != degree:
                raise ValueError("generator degree mismatch")
            if parent is not None and g not in parent:
                raise NotASubgroupError(f"{g.cycle_string()} is not in {parent.label}")
            if not g.is_identity() and g not in gens:
                gens.append(g)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "generators", tuple(gens))
        object.__setattr__(self, "_label", label)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "max_order", max_order)
        object.__setattr__(self, "parent", parent)
        object.__setattr__(self, "_elements", None if _elements is None else tuple(_elements))
        object.__setattr__(self, "_element_set", None)
        object.__setattr__(self, "_word_cache", {})
        object.__setattr__(self, "_class_cache", None)
        object.__setattr__(self, "_table", None)

    def __setattr__(self, name, value):
        raise AttributeError("PermGroup is immutable; caches are internal")

    @property
    def label(self):
        """The name given at construction, else the generators in <...>."""
        return self._label or f"<{self.describe()}>"

    def elements(self):
        """All elements, sorted by their images; the identity comes first."""
        if self._elements is None:
            images = _closure_images(self.degree, self.generators, self.max_order)
            object.__setattr__(self, "_elements", tuple(map(_perm, sorted(images))))
        return self._elements

    def element_set(self):
        if self._element_set is None:
            object.__setattr__(self, "_element_set", frozenset(self.elements()))
        return self._element_set

    def order(self):
        return len(self.elements())

    def __contains__(self, p):
        return p in self.element_set()

    def elements_with_words(self, alphabet=None):
        """Map every reachable element to a shortest word over the alphabet.

        Words are tuples of 1-based generator indices (right-to-left
        application is never needed: index k means "multiply by
        alphabet[k-1] on the right").  Defaults to the group's own
        generators, in which case the map covers the whole group; the
        program always takes that default.  The letters lie in the group.
        The search is breadth-first from the identity over each letter's
        column, the numbers of a*x over the elements a (`_times`), so it
        reads the multiplication table when the group holds one and
        takes |G| permutation products per letter otherwise.
        """
        key = tuple(p.images for p in alphabet) if alphabet is not None else None
        cached = self._word_cache.get(key)
        if cached is not None:
            return cached
        gens = tuple(alphabet) if alphabet is not None else self.generators
        elems = self.elements()
        number = _numbers(self)
        cols = [_times(self, number, range(len(elems)), number[g.images]) for g in gens]
        found = [None] * len(elems)
        found[0] = ()  # elements()[0] is the identity
        queue = [0]
        for cur in queue:
            w = found[cur]
            for k, col in enumerate(cols, 1):
                nxt = col[cur]
                if found[nxt] is None:
                    found[nxt] = w + (k,)
                    queue.append(nxt)
        words = {elems[a]: found[a] for a in queue}
        self._word_cache[key] = words
        return words

    def multiplication_table(self):
        """(number, table, inv), built on first use.

        number maps the images of each element to its place in elements();
        table[c][a] is the number of elements()[a] * elements()[c], and
        inv[c] that of the inverse of elements()[c].  Each list table[c] is
        the list of c's breadth-first parent composed with one generator's
        move, so the table costs |G| * k permutation products for k
        generators.
        """
        if self._table is None:
            elems = self.elements()
            n = len(elems)
            number = _numbers(self)
            moves = [_times(self, number, range(n), number[g.images]) for g in self.generators]
            table = [None] * n
            table[0] = list(range(n))  # elements()[0] is the identity
            queue = [0]
            for c in queue:
                col = table[c]
                for move in moves:
                    d = move[c]
                    if table[d] is None:
                        table[d] = [move[a] for a in col]
                        queue.append(d)
            inv = [col.index(0) for col in table]
            object.__setattr__(self, "_table", (number, table, inv))
        return self._table

    def subgroup(self, generators):
        return PermGroup(self.degree, [g.extend(self.degree) for g in generators],
                         max_order=self.max_order, parent=self)

    def trivial_subgroup(self):
        return self.subgroup(())

    def point_stabilizer(self, point):
        """Stabilizer of a point (1-based) in the natural action."""
        if not 1 <= point <= self.degree:
            raise UsageError(f"point {point} out of range 1..{self.degree}")
        return _spanned(self, [g for g in self.elements() if g.images[point - 1] == point - 1])

    def describe(self):
        if not self.generators:
            return "1"
        return ",".join(g.cycle_string() for g in self.generators)

    def __repr__(self):
        return f"PermGroup({self.label}, degree={self.degree})"


def small_generating_set(elements):
    """Greedy generating set from a sorted element list; deterministic."""
    elements = sorted(elements)
    if not elements:
        return ()
    degree = elements[0].degree
    target = len(elements)
    gens = []
    have = {tuple(range(degree))}
    for e in elements:
        if e.images in have:
            continue
        gens.append(e)
        have = _closure_images(degree, gens, target + 1)
        if len(have) == target:
            break
    return tuple(gens)


def _spanned(G, elements):
    """The subgroup of G on the given sorted elements, generated greedily."""
    return PermGroup(G.degree, small_generating_set(elements), max_order=G.max_order,
                     parent=G, _elements=elements)


def _check_subgroup(G, H):
    """H is a subgroup of G (G itself included) when it has G's degree and
    its generators lie in G."""
    if H.degree != G.degree or any(g not in G for g in H.generators):
        raise NotASubgroupError(f"<{H.describe()}> is not a subgroup of {G.label}")


def _numbers(G):
    """The map from the images of each element of G to its place in
    G.elements(): the multiplication table's own once it is built."""
    if G._table is not None:
        return G._table[0]
    return {p.images: i for i, p in enumerate(G.elements())}


def _times(G, number, nums, x):
    """The numbers of a*x for the elements a numbered in nums and the
    element numbered x: x's column of G's multiplication table when G
    holds one, else permutation products."""
    if G._table is not None:
        col = G._table[1][x]
        return [col[a] for a in nums]
    elems = G.elements()
    p = elems[x]
    return [number[(elems[a] * p).images] for a in nums]


class CosetMap(namedtuple("CosetMap", "group number coset")):
    """The coset map of `right_transversal`: coset[a] is the index of the
    coset of the element numbered a, and number maps the images of each
    element of group to its number, its place in group.elements()."""

    __slots__ = ()


def right_transversal(G, H):
    """Canonical right-coset representatives of H in G, and the coset map.

    The representative of a coset Hg is its lexicographically smallest
    member, its first element in G.elements(); the list is sorted by that
    key, so the identity coset comes first and the lexicographically
    largest coset comes last.  The map (a CosetMap) sends every element
    of G to the 0-based index of its coset in that list.  Each coset H*g
    is g's column of the multiplication table at H's elements once the
    class search has built the table, and |H| permutation products
    otherwise.
    """
    _check_subgroup(G, H)
    elems = G.elements()
    number = _numbers(G)
    hnums = [number[h.images] for h in H.elements()]
    coset = [-1] * len(elems)
    reps = []
    for g in range(len(elems)):
        if coset[g] < 0:
            for a in _times(G, number, hnums, g):
                coset[a] = len(reps)
            reps.append(elems[g])
    return reps, CosetMap(G, number, coset)


def coset_moves(transversal, coset_of, xs):
    """The action of each x in xs on the cosets right_transversal lists:
    entry i of the list for x is the index of the coset of transversal[i]*x,
    read off x's column of the multiplication table when the group of the
    coset map holds one."""
    G, number, coset = coset_of
    reps = [number[t.images] for t in transversal]
    return [[coset[b] for b in _times(G, number, reps, number[x.images])] for x in xs]


def _fingerprint(orders):
    """Size and element-order counts of a subgroup, from the orders of its
    elements; conjugate subgroups share it."""
    counts = Counter(orders)
    return sum(counts.values()), tuple(sorted(counts.items()))


def _conjugates_into(table, inv, gens, target):
    """Whether some g has g^-1 h g in target for every h in gens, all
    elements given by their numbers in the multiplication table."""
    cols = [table[h] for h in gens]
    for g, ig in enumerate(inv):
        col = table[g]
        for hcol in cols:
            if col[hcol[ig]] not in target:
                break
        else:
            return True
    return False


def are_conjugate_subgroups(G, H1, H2, cap=SUBGROUP_CLASS_CAP):
    """Brute-force subgroup conjugacy test: exists g with g^-1 H1 g = H2.

    cap bounds |G| as `subgroup_classes` takes it, before the
    multiplication table is built."""
    if G.order() > cap:
        raise CapExceeded(f"|G|={G.order()} too large for brute-force conjugacy "
                          f"(cap {cap})")
    _check_subgroup(G, H1)
    _check_subgroup(G, H2)
    if (_fingerprint(p.order() for p in H1.elements())
            != _fingerprint(p.order() for p in H2.elements())):
        return False
    number, table, inv = G.multiplication_table()
    return _conjugates_into(table, inv, [number[h.images] for h in H1.generators],
                            {number[p.images] for p in H2.elements()})


def closure_idx(table, gens):
    """The numbers of the elements of the subgroup generated by the
    element numbers gens, breadth-first from the identity (number 0), in
    a table as PermGroup.multiplication_table returns it."""
    n = len(table)
    half = n // 2
    cols = [table[g] for g in gens]
    seen = bytearray(n)
    seen[0] = 1
    out = [0]
    for w in out:
        for col in cols:
            t = col[w]
            if not seen[t]:
                seen[t] = 1
                out.append(t)
        # a subgroup of order > |G|/2 must be G itself
        if len(out) > half:
            return list(range(n))
    return out


def _cyclic_classes(G, cap):
    """Seed the subgroup class search of G with the trivial class, then
    one class per conjugacy class of cyclic subgroups, in element order.
    Returns (classes, register, cyclics) on the numbers of
    G.multiplication_table(); register(sset, gens) -> (index, new), and
    cyclics[i] lists the numbers of the cyclic group element i generates."""
    n = G.order()
    if n > cap:
        raise CapExceeded(f"|G|={n} exceeds subgroup enumeration cap {cap}")
    _, table, inv = G.multiplication_table()

    classes = []  # (frozenset, gens tuple, fingerprint)
    setmap = {}

    def register(sset, gens):
        hit = setmap.get(sset)
        if hit is not None:
            return hit, False
        fp = _fingerprint(eorder[i] for i in sset)
        for ci, (_, cgens, cfp) in enumerate(classes):
            if cfp == fp and _conjugates_into(table, inv, cgens, sset):
                setmap[sset] = ci
                return ci, False
        classes.append((sset, tuple(gens), fp))
        ci = len(classes) - 1
        setmap[sset] = ci
        return ci, True

    # the order of an element is the size of the cyclic group it generates
    cyclics = [closure_idx(table, [i]) for i in range(n)]
    eorder = [len(c) for c in cyclics]
    register(frozenset([0]), ())
    for i in range(1, n):
        register(frozenset(cyclics[i]), (i,))
    return classes, register, cyclics


def _class_handles(G, classes):
    """The classes' subgroups, sorted as subgroup_classes returns them.

    Element numbers follow the sorted order of G.elements(), so walking a
    class's sorted numbers and keeping each one outside the closure of
    those kept so far picks the generators small_generating_set would,
    and sorting by the sorted numbers sorts by the sorted elements.
    """
    elems = G.elements()
    _, table, _ = G.multiplication_table()
    picks = []
    for sset, _, _ in classes:
        nums = sorted(sset)
        gens, have = [], {0}
        for i in nums:
            if i not in have:
                gens.append(i)
                have = set(closure_idx(table, gens))
                if len(have) == len(nums):
                    break
        picks.append((nums, gens))
    picks.sort(key=lambda pick: (-len(pick[0]), pick[0]))
    return [PermGroup(G.degree, [elems[i] for i in gens], max_order=G.max_order, parent=G,
                      _elements=[elems[i] for i in nums])
            for nums, gens in picks]


def subgroup_classes(G, cap=SUBGROUP_CLASS_CAP):
    """Conjugacy-class representatives of all subgroups of G.

    Breadth-first cyclic extension: seed with the classes of cyclic
    subgroups, then repeatedly extend each known class rep S by single
    elements, deduplicating by brute-force conjugacy.  Extensions only
    run over (double) coset representatives since <S, s1*g*s2> = <S, g>.
    The result includes the trivial subgroup and G, sorted by decreasing
    order with ties broken by the sorted element tuple.
    """
    n = G.order()
    # a cached list is returned only within the cap
    if G._class_cache is not None and n <= cap:
        return G._class_cache
    classes, register, _ = _cyclic_classes(G, cap)
    _, table, _ = G.multiplication_table()
    # every class but the trivial one is extended
    queue = list(range(1, len(classes)))
    qi = 0
    while qi < len(queue):
        ci = queue[qi]
        qi += 1
        sset, sgens, _ = classes[ci]
        slist = sorted(sset)
        scols = [table[s] for s in slist]
        covered = bytearray(n)
        for s in slist:
            covered[s] = 1
        mark_double = len(sset) * len(sset) <= 8 * n
        for g in range(n):
            if covered[g]:
                continue
            # mark the coset S*g, or the double coset S*g*S
            col = table[g]
            for s1 in slist:
                x = col[s1]
                if mark_double:
                    for scol in scols:
                        covered[scol[x]] = 1
                else:
                    covered[x] = 1
            tset = frozenset(closure_idx(table, [*sgens, g]))
            ti, new = register(tset, tuple(sgens) + (g,))
            if new:
                queue.append(ti)

    handles = _class_handles(G, classes)
    object.__setattr__(G, "_class_cache", handles)
    return handles


def maximal_cyclic_subgroup_classes(G, cap=SUBGROUP_CLASS_CAP):
    """The nontrivial classes of subgroup_classes(G) whose subgroups are
    maximal cyclic ones, in no larger cyclic subgroup, each as a pair
    (c, nums) in the numbering of G.multiplication_table(): nums, the
    sorted list of its element numbers, and c, the smallest number among
    them of a generator.  They are the same representatives in the same
    order, by decreasing order and then by nums, from its seeding step
    alone.  <x> lies in a larger cyclic subgroup exactly when x is a
    power of an element of larger order, so the seeding step's closures
    of the elements mark every such x."""
    classes, _, cyclics = _cyclic_classes(G, cap)
    # inside[x]: x lies in the cyclic group of an element of larger order
    inside = bytearray(len(cyclics))
    for c in cyclics:
        for x in c:
            if len(cyclics[x]) < len(c):
                inside[x] = 1
    kept = [(gens[0], sorted(sset)) for sset, gens, _ in classes[1:] if not inside[gens[0]]]
    return sorted(kept, key=lambda pick: (-len(pick[1]), pick[1]))


# ---------------------------------------------------------------------------
# catalog constructors

def _check_degree(n):
    if n < 1:
        raise ValueError("n must be positive")
    if n > DEGREE_CAP:
        raise CapExceeded(f"degree {n} exceeds catalog cap {DEGREE_CAP}")


@cache
def alternating(n):
    """A_n with standard generators (1 2 3) and the n- or (n-1)-cycle."""
    _check_degree(n)
    if n <= 2:
        return PermGroup(max(n, 1), (), label=f"A{n}", kind=("A", n))
    three = Permutation.from_cycles([(1, 2, 3)], degree=n)
    if n == 3:
        gens = (three,)
    elif n % 2 == 1:
        gens = (three, Permutation.from_cycles([tuple(range(1, n + 1))], degree=n))
    else:
        gens = (three, Permutation.from_cycles([tuple(range(2, n + 1))], degree=n))
    return PermGroup(n, gens, label=f"A{n}", kind=("A", n))


@cache
def symmetric(n):
    """S_n with standard generators (1 2) and (1 2 ... n)."""
    _check_degree(n)
    if n == 1:
        return PermGroup(1, (), label="S1", kind=("S", 1))
    swap = Permutation.from_cycles([(1, 2)], degree=n)
    if n == 2:
        gens = (swap,)
    else:
        gens = (swap, Permutation.from_cycles([tuple(range(1, n + 1))], degree=n))
    return PermGroup(n, gens, label=f"S{n}", kind=("S", n))


@cache
def cyclic(n):
    _check_degree(n)
    if n == 1:
        return PermGroup(1, (), label="C1", kind=("C", 1))
    g = Permutation.from_cycles([tuple(range(1, n + 1))], degree=n)
    return PermGroup(n, (g,), label=f"C{n}", kind=("C", n))


@cache
def dihedral(n):
    """Dihedral group of order 2n."""
    _check_degree(n)
    if n == 1:
        f = Permutation.from_cycles([(1, 2)], degree=2)
        return PermGroup(2, (f,), label="D1", kind=("D", 1))
    if n == 2:
        r = Permutation.from_cycles([(1, 2)], degree=4)
        f = Permutation.from_cycles([(3, 4)], degree=4)
        return PermGroup(4, (r, f), label="D2", kind=("D", 2))
    r = Permutation.from_cycles([tuple(range(1, n + 1))], degree=n)
    f = Permutation(tuple((n - i) % n for i in range(n)))
    return PermGroup(n, (r, f), label=f"D{n}", kind=("D", n))


def product_of_cyclics(parts):
    """C_{n1} x C_{n2} x ... acting on disjoint blocks."""
    return _product_of_cyclics(tuple(int(p) for p in parts))


@cache
def _product_of_cyclics(parts):
    if any(p < 1 for p in parts):
        raise ValueError("cyclic orders must be positive")
    active = tuple(p for p in parts if p > 1)
    degree = sum(active) if active else 1
    _check_degree(degree)
    gens = []
    offset = 0
    for p in active:
        gens.append(Permutation.from_cycles(
            [tuple(range(offset + 1, offset + p + 1))], degree=degree))
        offset += p
    label = "x".join(f"C{p}" for p in parts)
    return PermGroup(degree, gens, label=label, kind=("C*", parts))
