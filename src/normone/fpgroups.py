"""Finitely presented groups and Todd-Coxeter coset enumeration.

Words are tuples of nonzero integers: +k is the k-th generator (1-based),
-k its inverse.  The enumerator is HLT-style with a fixed deterministic
definition order and union-find coincidence handling; after the table
stabilizes it is verified outright (every relator trivial on every coset,
subgroup words fixing the first coset), so a bad table cannot escape.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import CapExceeded, InternalCheckError
from .perms import DEFAULT_MAX_COSETS, Permutation

# the largest n whose Schur cover of S_n is enumerated
MAX_SCHUR_N = 6


class FpGroup(namedtuple("FpGroup", "ngens relators")):
    __slots__ = ()

    def __new__(cls, ngens, relators):
        rels = tuple(tuple(int(x) for x in w) for w in relators)
        for w in rels:
            for letter in w:
                if letter == 0 or abs(letter) > ngens:
                    raise ValueError(f"bad letter {letter} in relator {w}")
        return super().__new__(cls, ngens, rels)


class CosetTable(namedtuple("CosetTable", "coset_count action")):
    """Closed coset table: one permutation of {1..coset_count} per generator
    (action, a tuple of Permutations)."""

    __slots__ = ()

    def word_permutation(self, word):
        p = Permutation.identity(self.coset_count)
        for letter in word:
            g = self.action[abs(letter) - 1]
            p = p * (g if letter > 0 else g.inverse())
        return p


def todd_coxeter(fp: FpGroup, subgroup_words=(), max_cosets=DEFAULT_MAX_COSETS) -> CosetTable:
    """Enumerate the cosets of <subgroup_words> in fp.

    Raises CapExceeded when more than max_cosets cosets get defined
    (possibly an infinite index, possibly just a low bound).
    """
    subgroup_words = tuple(tuple(int(x) for x in w) for w in subgroup_words)
    ncols = 2 * fp.ngens
    table = [[None] * ncols]
    rep = [0]

    def col(letter):
        return 2 * (letter - 1) if letter > 0 else 2 * (-letter - 1) + 1

    def find(a):
        root = a
        while rep[root] != root:
            root = rep[root]
        while rep[a] != root:
            rep[a], a = root, rep[a]
        return root

    def define(alpha, c):
        nonlocal mutations
        if len(table) >= max_cosets:
            raise CapExceeded(f"coset enumeration exceeded {max_cosets} cosets")
        beta = len(table)
        table.append([None] * ncols)
        rep.append(beta)
        table[alpha][c] = beta
        table[beta][c ^ 1] = alpha
        mutations += 1
        return beta

    mutations = 0

    def merge(a, b, queue):
        nonlocal mutations
        a, b = find(a), find(b)
        if a != b:
            keep, dead = (a, b) if a < b else (b, a)
            rep[dead] = keep
            queue.append(dead)
            mutations += 1

    def coincidence(alpha, beta):
        queue = []
        merge(alpha, beta, queue)
        qi = 0
        while qi < len(queue):
            gamma = queue[qi]
            qi += 1
            for c in range(ncols):
                delta = table[gamma][c]
                if delta is None:
                    continue
                if table[delta][c ^ 1] == gamma:
                    table[delta][c ^ 1] = None
                mu, nu = find(gamma), find(delta)
                if table[mu][c] is not None:
                    merge(nu, table[mu][c], queue)
                elif table[nu][c ^ 1] is not None:
                    merge(mu, table[nu][c ^ 1], queue)
                else:
                    table[mu][c] = nu
                    table[nu][c ^ 1] = mu

    def scan_and_fill(alpha, word):
        f, i = alpha, 0
        b, j = alpha, len(word) - 1
        while True:
            while i <= j:
                t = table[f][col(word[i])]
                if t is None:
                    break
                f = t
                i += 1
            if i > j:
                if f != b:
                    coincidence(f, b)
                return
            while j >= i:
                t = table[b][col(-word[j])]
                if t is None:
                    break
                b = t
                j -= 1
            if j < i:
                coincidence(f, b)
                return
            if i == j:
                table[f][col(word[i])] = b
                table[b][col(-word[i])] = f
                return
            define(f, col(word[i]))

    # repeat full passes until a pass makes no change and the table is
    # closed; the last pass doubles as a consistency sweep
    while True:
        before = mutations
        for w in subgroup_words:
            if w:
                scan_and_fill(find(0), w)
        alpha = 0
        while alpha < len(table):
            if find(alpha) != alpha:
                alpha += 1
                continue
            for w in fp.relators:
                if not w:
                    continue
                scan_and_fill(alpha, w)
                if find(alpha) != alpha:
                    break
            if find(alpha) == alpha:
                for c in range(ncols):
                    if table[alpha][c] is None:
                        define(alpha, c)
            alpha += 1
        live = [a for a in range(len(table)) if find(a) == a]
        closed = all(table[a][c] is not None for a in live for c in range(ncols))
        if mutations == before and closed:
            break

    live = [a for a in range(len(table)) if find(a) == a]
    renum = {a: i for i, a in enumerate(live)}
    count = len(live)
    perms = []
    for g in range(fp.ngens):
        images = [None] * count
        for a in live:
            t = table[a][2 * g]
            if t is None:
                raise InternalCheckError("coset table not closed")
            images[renum[a]] = renum[find(t)]
        if sorted(images) != list(range(count)):
            raise InternalCheckError("generator column is not a bijection")
        perms.append(Permutation(images))
    result = CosetTable(count, tuple(perms))

    # definitive verification: relators trivial everywhere, subgroup fixes 1
    for w in fp.relators:
        if not result.word_permutation(w).is_identity():
            raise InternalCheckError(f"relator {w} does not act trivially")
    for w in subgroup_words:
        if result.word_permutation(w).images[0] != 0:
            raise InternalCheckError(f"subgroup word {w} moves the base coset")
    return result


def schur_cover_sn(n) -> FpGroup:
    """The extended symmetric-group presentation on z, t_1..t_{n-1}:
    z^2 = 1, z central, t_i^2 = z, (t_i t_{i+1})^3 = z, and
    t_i t_j = z t_j t_i for |i - j| >= 2.
    """
    if not 4 <= n <= MAX_SCHUR_N:
        raise CapExceeded(f"n={n} outside supported range 4..{MAX_SCHUR_N}")
    z = 1
    t = lambda i: i + 1  # t_i, 1-based i
    rels = [(z, z)]
    for i in range(1, n):
        rels.append((z, t(i), -z, -t(i)))
    for i in range(1, n):
        rels.append((t(i), t(i), -z))
    for i in range(1, n - 1):
        rels.append((t(i), t(i + 1)) * 3 + (-z,))
    for i in range(1, n):
        for j in range(1, n):
            if abs(i - j) >= 2:
                rels.append((t(i), t(j), -t(i), -t(j), -z))
    return FpGroup(n, tuple(rels))


class PreimageData(namedtuple("PreimageData", "regular index_table v_generators v_order")):
    """The index-2 preimage of the even part inside the covering group:
    regular, the CosetTable of the cover's regular representation;
    index_table, that of the cosets of <z, e_i> in the cover (index 2);
    v_generators, faithful permutations of z, e_1..e_{n-2} whose degree
    is the preimage's order, v_order."""

    __slots__ = ()


def preimage_an(n, max_cosets=DEFAULT_MAX_COSETS) -> PreimageData:
    """Enumerate <z, e_1..e_{n-2}> in the cover and extract its regular action.

    e_i := t_1 t_{i+1}.  The subgroup must have index 2; its own order is
    read off from the orbit of the base coset in the cover's regular
    representation.
    """
    cover = schur_cover_sn(n)
    e_words = tuple((2, i + 2) for i in range(1, n - 1))
    sub_words = ((1,),) + e_words
    index_table = todd_coxeter(cover, sub_words, max_cosets=max_cosets)
    if index_table.coset_count != 2:
        raise InternalCheckError(
            f"expected index 2, got {index_table.coset_count}")
    regular = todd_coxeter(cover, (), max_cosets=max_cosets)
    gens = [regular.word_permutation(w) for w in sub_words]

    # orbit of the base point under the subgroup = a free orbit; restricting
    # gives the subgroup's regular representation
    orbit = [0]
    seen = {0}
    for pt in orbit:
        for g in gens:
            q = g.images[pt]
            if q not in seen:
                seen.add(q)
                orbit.append(q)
    orbit.sort()
    pos = {p: i for i, p in enumerate(orbit)}
    restricted = tuple(
        Permutation(tuple(pos[g.images[p]] for p in orbit)) for g in gens
    )
    return PreimageData(regular, index_table, restricted, len(orbit))


def verify_commutator_claim(data: PreimageData) -> bool:
    """Check z = [e_1^-1 e_2 e_1, e_2] in the even preimage, with the
    commutator convention [g, h] = g h g^-1 h^-1."""
    z, e1, e2 = data.v_generators[0], data.v_generators[1], data.v_generators[2]
    a = e1.inverse() * e2 * e1
    comm = a * e2 * a.inverse() * e2.inverse()
    return comm == z
