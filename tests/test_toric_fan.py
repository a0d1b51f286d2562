"""X3 and X4 against the permutohedral fan, an oracle that does not restate
the product tables of p3 and p4.

The resolution of the standard Cremona map of P^n is the toric variety of
the permutohedral fan: its rays are e_S for the nonempty proper subsets S
of {0..n} and its cones are the chains of such subsets (Fulton,
*Introduction to Toric Varieties*, 1993, section 5.2).  In the ring's
names, D_S = E_{S^c} for |S| >= 2 (the exceptional divisor over the span
of the points outside S) and D_{j} = H - sum of the E_T with j not in T;
the Cremona map is v -> -v on the lattice, so D_S -> D_{S^c}.

Danilov-Jurkiewicz: the Chow ring of a smooth complete fan is Z[D_S]
modulo the linear relations and the products over non-cones, generated in
degree 1, with a unimodular pairing whose degree is 1 on every maximal
cone.  For a commutative and associative table (test_chow_core checks
both) the checks below make x_S -> D_S a ring map from it to X3/X4, and
the flag degrees make that map injective in every grade; equal ranks (the
Eulerian numbers) and unimodular pairings on X3/X4 make it an
isomorphism, so together they pin the whole product table.
"""

from itertools import combinations, permutations

import pytest

from cremona import p3, p4

# ring, rays of the fan, incomparable ray pairs, full flags
SPACES = {"X3": (p3, 14, 55, 24), "X4": (p4, 30, 285, 120)}


def rays(n):
    return [frozenset(S) for k in range(1, n + 1)
            for S in combinations(range(n + 1), k)]


def toric_divisor(ring, S):
    n = ring.dim
    if len(S) >= 2:
        return ring.cls(("E", tuple(sorted(set(range(n + 1)) - S))))
    (j,) = S
    centers = [T for k in range(1, n) for T in combinations(range(n + 1), k)]
    return ring.make_class(1, [(("H", ()), 1)] + [
        (("E", T), -1) for T in centers if j not in T])


def fan(ring):
    return {S: toric_divisor(ring, S) for S in rays(ring.dim)}


def determinant(rows):
    # fraction-free (Bareiss) elimination on Python ints
    a = [list(r) for r in rows]
    size, sign, prev = len(a), 1, 1
    for k in range(size):
        pivot = next((i for i in range(k, size) if a[i][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            a[k], a[pivot], sign = a[pivot], a[k], -sign
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * prev


def eulerian(m, k):
    # permutations of m letters with k descents
    return sum(sum(x > y for x, y in zip(p, p[1:])) == k
               for p in permutations(range(m)))


@pytest.mark.parametrize("name", SPACES)
def test_ray_count_and_ranks(name):
    mod, nrays, _, _ = SPACES[name]
    ring = mod.RING
    n = ring.dim
    assert len(rays(n)) == nrays == 2 ** (n + 1) - 2
    assert [len(list(ring.basis(k))) for k in range(n + 1)] == \
        [eulerian(n + 1, k) for k in range(n + 1)]


@pytest.mark.parametrize("name", SPACES)
def test_linear_relations(name):
    ring = SPACES[name][0].RING
    D, H = fan(ring), ring.cls("H")
    for j in range(ring.dim + 1):
        total = ring.zero(1)
        for S, x in D.items():
            if j in S:
                total = total + x
        assert total == H


@pytest.mark.parametrize("name", SPACES)
def test_incomparable_rays_multiply_to_zero(name):
    mod, _, pairs, _ = SPACES[name]
    D = fan(mod.RING)
    apart = [(S, T) for S, T in combinations(D, 2)
             if not (S <= T or T <= S)]
    assert len(apart) == pairs
    for S, T in apart:
        assert (D[S] * D[T]).is_zero(), (sorted(S), sorted(T))


@pytest.mark.parametrize("name", SPACES)
def test_every_full_flag_has_degree_one(name):
    mod, _, _, flags = SPACES[name]
    ring = mod.RING
    D = fan(ring)
    count = 0
    for order in permutations(range(ring.dim + 1)):
        chain = [frozenset(order[:k]) for k in range(1, ring.dim + 1)]
        x = D[chain[0]]
        for S in chain[1:]:
            x = x * D[S]
        assert ring.degree(x) == 1, order
        count += 1
    assert count == flags


@pytest.mark.parametrize("name", SPACES)
def test_cremona_is_minus_one_on_the_lattice(name):
    mod = SPACES[name][0]
    D = fan(mod.RING)
    everything = frozenset(range(mod.RING.dim + 1))
    for S, x in D.items():
        assert mod.cremona(x) == D[everything - S], sorted(S)


@pytest.mark.parametrize("name", SPACES)
def test_pairings_are_unimodular(name):
    ring = SPACES[name][0].RING
    n = ring.dim
    for k in range(n + 1):
        low = [ring.cls(e) for e in ring.basis(k)]
        high = [ring.cls(e) for e in ring.basis(n - k)]
        matrix = [[ring.degree(a * b) for b in high] for a in low]
        assert abs(determinant(matrix)) == 1, k
