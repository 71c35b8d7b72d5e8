"""Permutations and permutation groups on {1..n}.

Composition applies the left factor first: (p*q)(i) = q(p(i)).  This
makes every action in the package a right action, matching the row-vector
convention of the linear algebra layer.

Groups at the scale handled here (order a few thousand) are enumerated
outright; there is no Schreier-Sims machinery.  Caps guard against
accidental blowups and surface as keyword arguments.
"""

from __future__ import annotations

from math import lcm

from .errors import CapExceeded, NotASubgroupError

DEGREE_CAP = 16
DEFAULT_MAX_ORDER = 100_000
CONJUGACY_CAP = 5040
SUBGROUP_CLASS_CAP = 2520


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
        if self.degree != other.degree:
            raise ValueError("degree mismatch")
        oi = other.images
        return Permutation(tuple(oi[x] for x in self.images))

    def inverse(self):
        inv = [0] * len(self.images)
        for i, x in enumerate(self.images):
            inv[x] = i
        return Permutation(inv)

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        result = Permutation.identity(self.degree)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

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


def _closure(degree, generators, cap):
    """All products of the generators, BFS from the identity."""
    gens = [g.images for g in generators]
    ident = tuple(range(degree))
    seen = {ident}
    out = [ident]
    for cur in out:
        for g in gens:
            nxt = tuple(g[x] for x in cur)
            if nxt not in seen:
                if len(seen) >= cap:
                    raise CapExceeded(f"group order exceeds cap {cap}")
                seen.add(nxt)
                out.append(nxt)
    return [Permutation(t) for t in sorted(seen)]


class PermGroup:
    """A permutation group given by generators; enumerated lazily."""

    __slots__ = (
        "degree", "generators", "label", "kind", "max_order",
        "_elements", "_element_set", "_word_cache", "_class_cache",
    )

    def __init__(self, degree, generators, label=None, kind=None, max_order=DEFAULT_MAX_ORDER):
        gens = []
        for g in generators:
            if g.degree != degree:
                raise ValueError("generator degree mismatch")
            if not g.is_identity() and g not in gens:
                gens.append(g)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "generators", tuple(gens))
        object.__setattr__(self, "label", label or "<group>")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "max_order", max_order)
        object.__setattr__(self, "_elements", None)
        object.__setattr__(self, "_element_set", None)
        object.__setattr__(self, "_word_cache", {})
        object.__setattr__(self, "_class_cache", None)

    def __setattr__(self, name, value):
        raise AttributeError("PermGroup is immutable; caches are internal")

    def elements(self):
        if self._elements is None:
            elems = tuple(_closure(self.degree, self.generators, self.max_order))
            object.__setattr__(self, "_elements", elems)
            object.__setattr__(self, "_element_set", frozenset(elems))
        return self._elements

    def element_set(self):
        self.elements()
        return self._element_set

    def order(self):
        return len(self.elements())

    def __contains__(self, p):
        return p in self.element_set()

    def identity(self):
        return Permutation.identity(self.degree)

    def elements_with_words(self, alphabet=None):
        """Map every reachable element to a shortest word over the alphabet.

        Words are tuples of 1-based generator indices (right-to-left
        application is never needed: index k means "multiply by
        alphabet[k-1] on the right").  Defaults to the group's own
        generators, in which case the map covers the whole group.
        """
        key = tuple(p.images for p in alphabet) if alphabet is not None else None
        cached = self._word_cache.get(key)
        if cached is not None:
            return cached
        gens = tuple(alphabet) if alphabet is not None else self.generators
        words = {self.identity(): ()}
        queue = [self.identity()]
        for cur in queue:
            w = words[cur]
            for k, g in enumerate(gens):
                nxt = cur * g
                if nxt not in words:
                    if len(words) >= self.max_order:
                        raise CapExceeded("word enumeration exceeds max_order")
                    words[nxt] = w + (k + 1,)
                    queue.append(nxt)
        self._word_cache[key] = words
        return words

    def subgroup(self, generators):
        return SubgroupHandle(self, generators)

    def trivial_subgroup(self):
        return SubgroupHandle(self, ())

    def as_subgroup(self):
        return SubgroupHandle(self, self.generators, _elements=self.elements())

    def point_stabilizer(self, point):
        """Stabilizer of a point (1-based) in the natural action."""
        if not 1 <= point <= self.degree:
            raise ValueError(f"point {point} out of range 1..{self.degree}")
        fixed = [g for g in self.elements() if g.images[point - 1] == point - 1]
        gens = small_generating_set(fixed)
        return SubgroupHandle(self, gens, _elements=tuple(fixed))

    def __repr__(self):
        return f"PermGroup({self.label}, degree={self.degree})"


class SubgroupHandle:
    """A subgroup of a parent group, with its elements materialized."""

    __slots__ = ("parent", "generators", "_elements", "_element_set")

    def __init__(self, parent, generators, _elements=None):
        gens = []
        for g in generators:
            g = g.extend(parent.degree) if g.degree < parent.degree else g
            if g.degree != parent.degree:
                raise ValueError("generator degree exceeds parent degree")
            if not g.is_identity() and g not in gens:
                gens.append(g)
        pset = parent.element_set()
        for g in gens:
            if g not in pset:
                raise NotASubgroupError(f"{g.cycle_string()} is not in {parent.label}")
        object.__setattr__(self, "parent", parent)
        object.__setattr__(self, "generators", tuple(gens))
        if _elements is None:
            _elements = tuple(_closure(parent.degree, gens, parent.max_order))
        object.__setattr__(self, "_elements", tuple(_elements))
        object.__setattr__(self, "_element_set", frozenset(_elements))

    def __setattr__(self, name, value):
        raise AttributeError("SubgroupHandle is immutable")

    def elements(self):
        return self._elements

    def element_set(self):
        return self._element_set

    def order(self):
        return len(self._elements)

    def __contains__(self, p):
        return p in self._element_set

    def is_normal(self):
        pset = self._element_set
        for g in self.parent.generators:
            gi = g.inverse()
            for h in self.generators:
                if gi * h * g not in pset:
                    return False
        return True

    def is_cyclic(self):
        n = self.order()
        return any(e.order() == n for e in self._elements)

    def describe(self):
        if not self.generators:
            return "1"
        return ",".join(g.cycle_string() for g in self.generators)

    def __repr__(self):
        return f"Subgroup(order={self.order()}, gens={self.describe()})"


def small_generating_set(elements):
    """Greedy generating set from a sorted element list; deterministic."""
    elements = sorted(elements)
    if not elements:
        return ()
    degree = elements[0].degree
    target = len(elements)
    gens = []
    have = {Permutation.identity(degree)}
    for e in elements:
        if e in have:
            continue
        gens.append(e)
        have = set(_closure(degree, gens, target + 1))
        if len(have) == target:
            break
    return tuple(gens)


def _check_subgroup(G, H):
    if H.parent is not G:
        # allow handles built on an equal group object
        if H.parent.degree != G.degree or H.parent.element_set() != G.element_set():
            raise NotASubgroupError("handle does not belong to this group")


def right_transversal(G, H):
    """Canonical right-coset representatives of H in G, and the coset map.

    The representative of a coset Hg is its lexicographically smallest
    member; the list is sorted by that key, so the identity coset comes
    first and the lexicographically largest coset comes last.  The map
    sends the images of every element of G to the 0-based index of its
    coset in that list.
    """
    _check_subgroup(G, H)
    helems = H.elements()
    coset_of = {}
    reps = []
    for g in G.elements():
        if g.images in coset_of:
            continue
        i = len(reps)
        reps.append(g)
        for h in helems:
            coset_of[(h * g).images] = i
    return reps, coset_of


def coset_position(G, H, transversal, p):
    """1-based position of the coset H*p in the transversal."""
    if p not in G.element_set():
        raise ValueError("element is not in the group")
    hset = H.element_set()
    for i, rep in enumerate(transversal, start=1):
        if p * rep.inverse() in hset:
            return i
    raise ValueError("element lies in no listed coset (not in the group?)")


def coset_moves(transversal, coset_of, xs):
    """The action of each x in xs on the cosets right_transversal lists:
    entry i of the list for x is the index of the coset of transversal[i]*x."""
    return [[coset_of[(t * x).images] for t in transversal] for x in xs]


def core(G, H):
    """Largest normal subgroup of G contained in H: the kernel of the
    action of G on the right cosets of H."""
    _check_subgroup(G, H)
    T, coset_of = right_transversal(G, H)
    still = list(range(len(T)))
    helems = H.elements()
    elems = tuple(sorted(h for h, m in zip(helems, coset_moves(T, coset_of, helems))
                         if m == still))
    return SubgroupHandle(G, small_generating_set(elems), _elements=elems)


def _order_multiset(handle):
    counts = {}
    for e in handle.elements():
        o = e.order()
        counts[o] = counts.get(o, 0) + 1
    return tuple(sorted(counts.items()))


def are_conjugate_subgroups(G, H1, H2, cap=CONJUGACY_CAP):
    """Brute-force subgroup conjugacy test: exists g with g^-1 H1 g = H2."""
    if G.order() > cap:
        raise CapExceeded(f"|G|={G.order()} too large for brute-force conjugacy (cap {cap})")
    if H1.order() != H2.order():
        return False
    if _order_multiset(H1) != _order_multiset(H2):
        return False
    set2 = H2.element_set()
    gens1 = H1.generators
    if not gens1:
        return True  # both trivial
    for g in G.elements():
        gi = g.inverse()
        if all(gi * h * g in set2 for h in gens1):
            return True
    return False


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
    if n > cap:
        raise CapExceeded(f"|G|={n} exceeds subgroup enumeration cap {cap}")
    if G._class_cache is not None:
        return G._class_cache
    elems = G.elements()
    index = {p.images: i for i, p in enumerate(elems)}
    table = []
    for p in elems:
        pim = p.images
        table.append([index[tuple(q.images[x] for x in pim)] for q in elems])
    inv = [index[p.inverse().images] for p in elems]
    eorder = [p.order() for p in elems]
    half = n // 2

    def closure_idx(gens):
        seen = bytearray(n)
        seen[0] = 1
        out = [0]
        for w in out:
            row = table[w]
            for g in gens:
                t = row[g]
                if not seen[t]:
                    seen[t] = 1
                    out.append(t)
            # a subgroup of order > |G|/2 must be G itself
            if len(out) > half:
                return list(range(n))
        return out

    def fingerprint(s):
        counts = {}
        for i in s:
            o = eorder[i]
            counts[o] = counts.get(o, 0) + 1
        return (len(s), tuple(sorted(counts.items())))

    classes = []  # (frozenset, gens tuple, fingerprint)
    setmap = {}

    def register(sset, gens):
        hit = setmap.get(sset)
        if hit is not None:
            return hit, False
        fp = fingerprint(sset)
        for ci, (cset, cgens, cfp) in enumerate(classes):
            if cfp != fp:
                continue
            for g in range(n):
                ig = inv[g]
                ok = True
                for h in cgens:
                    if table[table[ig][h]][g] not in sset:
                        ok = False
                        break
                if ok:
                    setmap[sset] = ci
                    return ci, False
        classes.append((sset, tuple(gens), fp))
        ci = len(classes) - 1
        setmap[sset] = ci
        return ci, True

    register(frozenset([0]), ())
    queue = []
    for i in range(1, n):
        sset = frozenset(closure_idx([i]))
        ci, new = register(sset, (i,))
        if new:
            queue.append(ci)
    qi = 0
    while qi < len(queue):
        ci = queue[qi]
        qi += 1
        sset, sgens, _ = classes[ci]
        slist = sorted(sset)
        covered = bytearray(n)
        for s in slist:
            covered[s] = 1
        mark_double = len(sset) * len(sset) <= 8 * n
        for g in range(n):
            if covered[g]:
                continue
            if mark_double:
                for s1 in slist:
                    row = table[table[s1][g]]
                    for s2 in slist:
                        covered[row[s2]] = 1
            else:
                for s1 in slist:
                    covered[table[s1][g]] = 1
            tset = frozenset(closure_idx(list(sgens) + [g]))
            ti, new = register(tset, tuple(sgens) + (g,))
            if new:
                queue.append(ti)

    handles = []
    for sset, _, _ in classes:
        members = tuple(elems[i] for i in sorted(sset))
        gens = small_generating_set(members)
        handles.append(SubgroupHandle(G, gens, _elements=members))
    handles.sort(key=lambda h: (-h.order(), tuple(p.images for p in h.elements())))
    object.__setattr__(G, "_class_cache", handles)
    return handles


def cyclic_subgroup_classes(G, cap=SUBGROUP_CLASS_CAP):
    """Nontrivial cyclic classes from subgroup_classes, largest first."""
    return [h for h in subgroup_classes(G, cap) if h.order() > 1 and h.is_cyclic()]


# ---------------------------------------------------------------------------
# catalog constructors

_catalog_cache = {}


def _cached(kind, builder):
    got = _catalog_cache.get(kind)
    if got is None:
        got = builder()
        _catalog_cache[kind] = got
    return got


def _check_degree(n, cap):
    if n > cap:
        raise CapExceeded(f"degree {n} exceeds catalog cap {cap}")


def alternating(n, degree_cap=DEGREE_CAP):
    """A_n with standard generators (1 2 3) and the n- or (n-1)-cycle."""
    if n < 1:
        raise ValueError("n must be positive")
    _check_degree(n, degree_cap)

    def build():
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

    return _cached(("A", n), build)


def symmetric(n, degree_cap=DEGREE_CAP):
    """S_n with standard generators (1 2) and (1 2 ... n)."""
    if n < 1:
        raise ValueError("n must be positive")
    _check_degree(n, degree_cap)

    def build():
        if n == 1:
            return PermGroup(1, (), label="S1", kind=("S", 1))
        swap = Permutation.from_cycles([(1, 2)], degree=n)
        if n == 2:
            gens = (swap,)
        else:
            gens = (swap, Permutation.from_cycles([tuple(range(1, n + 1))], degree=n))
        return PermGroup(n, gens, label=f"S{n}", kind=("S", n))

    return _cached(("S", n), build)


def cyclic(n, degree_cap=DEGREE_CAP):
    if n < 1:
        raise ValueError("n must be positive")
    _check_degree(n, degree_cap)

    def build():
        if n == 1:
            return PermGroup(1, (), label="C1", kind=("C", 1))
        g = Permutation.from_cycles([tuple(range(1, n + 1))], degree=n)
        return PermGroup(n, (g,), label=f"C{n}", kind=("C", n))

    return _cached(("C", n), build)


def dihedral(n, degree_cap=DEGREE_CAP):
    """Dihedral group of order 2n."""
    if n < 1:
        raise ValueError("n must be positive")
    _check_degree(n, degree_cap)

    def build():
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

    return _cached(("D", n), build)


def product_of_cyclics(parts, degree_cap=DEGREE_CAP):
    """C_{n1} x C_{n2} x ... acting on disjoint blocks."""
    parts = tuple(int(p) for p in parts)
    if any(p < 1 for p in parts):
        raise ValueError("cyclic orders must be positive")
    active = tuple(p for p in parts if p > 1)
    degree = sum(active) if active else 1
    _check_degree(degree, degree_cap)

    def build():
        gens = []
        offset = 0
        for p in active:
            gens.append(Permutation.from_cycles(
                [tuple(range(offset + 1, offset + p + 1))], degree=degree))
            offset += p
        label = "x".join(f"C{p}" for p in parts)
        return PermGroup(degree, gens, label=label, kind=("C*", parts))

    return _cached(("C*", parts), build)


def klein_four():
    return product_of_cyclics((2, 2))


def trivial_group(degree=1):
    return PermGroup(degree, (), label="1", kind=("C", 1))
