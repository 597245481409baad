"""Fraction reference paths for the integer classification core.

These are the original exact-rational algorithms, written against the
Fraction form of a RootSystem only: the bilinear form as a Fraction
double loop, coroot pairings through coroot functionals, the dominant
representative and the Weyl orbit by Fraction reflections, the Weyl
group as a breadth-first search over Fraction reflection matrices, the
chamber id as a linear scan over those matrices, the enumeration box's
ranges from the inverse Gram matrix of the coordinate basis, the
enumeration itself as a float bounding box plus float prefilter whose
survivors an exact Fraction quadratic form decides, the pairwise check of a Z/2 root
grading, the Freudenthal recursion over the candidate box between a
highest weight and its antidominant image, the Cartan type matched
against the standard matrices under every permutation, the
decomposition of a character by peeling off full irreducible characters,
the tensor product of characters as a convolution of Fraction-keyed
supports, the Weyl-invariance check by Fraction orbits, the spin module
as a sum over all sign vectors of the noncompact roots, and the product
and rank by Gaussian elimination of matrices over the Gaussian
rationals Q(i), entries as (re, im) Fraction pairs.
Also kept: the root data of a system and of its subsystems (RootData
records of the six Fraction fields) and the grading check, built
in Fractions, with the inverse Cartan matrix and every lattice solve by
Gaussian elimination over Fraction, and the Weyl dimension as a product
of Fraction form values.
Test tools that no production path calls live here too: the Fraction
reflection in a root, the dual of a character and the multiplicity of
the trivial representation in it, whether a pair is fully compact, and
the index pairing of a fully compact pair computed through them.
The package computes the same results on integers (or, for the
decomposition, by Brauer-Klimyk's signed dominance moves; for a rank,
as the trace of an idempotent); tests compare the two element by
element.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from dirac_atlas import repring
from dirac_atlas.dirac import _lattice_box, dirac_induct
from dirac_atlas.errors import ValidationError
from dirac_atlas.jsonutil import vec_str
from dirac_atlas.rootsys import (
    CartanType,
    _cartan_matrix_simple,
    _symmetrizer,
    apply_matrix,
    grlex_key,
    identify_cartan_type,
    positive_roots_from_cartan,
    wadd,
    wneg,
    wscale,
    wsub,
)
from dirac_atlas.spinmod import SpinCharacter, spin_characters


def wzero(n):
    """The zero weight of rank n."""
    return (Fraction(0),) * n


def mat_inv(a):
    """Invert a square Fraction matrix; raises ValueError if singular."""
    n = len(a)
    aug = [list(row) + [Fraction(1 if i == j else 0) for j in range(n)] for i, row in enumerate(a)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if piv is None:
            raise ValueError("singular matrix")
        aug[col], aug[piv] = aug[piv], aug[col]
        inv_p = Fraction(1) / aug[col][col]
        aug[col] = [x * inv_p for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


def solve_left(rows, target):
    """Solve sum_i x_i * rows[i] = target exactly, by Gauss-Jordan over Fraction.

    Returns the coefficient vector, or None when target is not in the
    row span. Requires the rows to be linearly independent.
    """
    m = len(rows)
    if m == 0:
        return () if all(t == 0 for t in target) else None
    n = len(rows[0])
    # Transposed system: n equations in the m unknowns x_j.
    aug = [[Fraction(rows[j][i]) for j in range(m)] + [Fraction(target[i])] for i in range(n)]
    pivots = []
    r = 0
    for col in range(m):
        piv = next((k for k in range(r, n) if aug[k][col] != 0), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        inv_p = Fraction(1) / aug[r][col]
        aug[r] = [x * inv_p for x in aug[r]]
        for k in range(n):
            if k != r and aug[k][col] != 0:
                f = aug[k][col]
                aug[k] = [x - f * y for x, y in zip(aug[k], aug[r])]
        pivots.append(col)
        r += 1
    if len(pivots) < m:
        raise ValueError("rows are linearly dependent")
    if any(all(aug[k][c] == 0 for c in range(m)) and aug[k][m] != 0 for k in range(r, n)):
        return None
    x = [Fraction(0)] * m
    for i, col in enumerate(pivots):
        x[col] = aug[i][m]
    return tuple(x)


def lattice_contains(basis, w):
    """w is an integer combination of the basis rows, by solve_left."""
    coeffs = solve_left(basis, w)
    return coeffs is not None and all(c.denominator == 1 for c in coeffs)


def inner(a, b, rs):
    """(a, b) as a Fraction double loop over the form."""
    assert len(a) == len(b) == rs.rank
    total = Fraction(0)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        row = rs.form[i]
        total += ai * sum((row[j] * bj for j, bj in enumerate(b) if bj != 0), Fraction(0))
    return total


@functools.lru_cache(maxsize=None)
def coroot_functional(root, rs):
    """Row vector u with <x, root^vee> = sum_j x_j u_j."""
    nn = inner(root, root, rs)
    col = tuple(sum(rs.form[j][k] * root[k] for k in range(rs.rank)) for j in range(rs.rank))
    return tuple(2 * c / nn for c in col)


def coroot_pairing(x, i, rs):
    assert len(x) == rs.rank
    u = coroot_functional(rs.simple_roots[i], rs)
    return sum((xj * uj for xj, uj in zip(x, u)), Fraction(0))


def make_dominant(x, rs):
    cur = x
    while True:
        i = next((k for k in range(len(rs.simple_roots)) if coroot_pairing(cur, k, rs) < 0), None)
        if i is None:
            return cur
        cur = wsub(cur, wscale(coroot_pairing(cur, i, rs), rs.simple_roots[i]))


def weyl_orbit(x, rs):
    seen = {x}
    frontier = [x]
    while frontier:
        nxt = []
        for w in frontier:
            for i in range(len(rs.simple_roots)):
                c = coroot_pairing(w, i, rs)
                if c == 0:
                    continue
                img = wsub(w, wscale(c, rs.simple_roots[i]))
                if img not in seen:
                    seen.add(img)
                    nxt.append(img)
        frontier = nxt
    return tuple(sorted(seen, key=grlex_key))


def grading_is_additive(rs, compact):
    """Pairwise check: the marking, extended by e(-a) = e(a), is additive
    on every pair of roots whose sum is a root."""
    eps = {}
    for r in rs.positive_roots:
        eps[r] = 0 if r in compact else 1
        eps[wneg(r)] = eps[r]
    return all(
        (eps[a] + eps[b]) % 2 == eps[wadd(a, b)] for a in eps for b in eps if wadd(a, b) in eps
    )


class RootData(NamedTuple):
    """The six Fraction fields a root system is compared on."""

    cartan: CartanType
    rank: int
    simple_roots: tuple
    positive_roots: tuple
    form: tuple
    rho: tuple


def build_root_system(cartan):
    """The root system of a CartanType built in Fractions: the inverse
    Cartan matrix by mat_inv, each root's coordinates as a Fraction
    combination of the Cartan rows, rho as half their Fraction sum."""
    n = cartan.rank
    cm = [[Fraction(0)] * n for _ in range(n)]
    sym = []
    offset = 0
    simple_coords = []
    for fam, rank in cartan.factors:
        block = _cartan_matrix_simple(fam, rank)
        for i in range(rank):
            for j in range(rank):
                cm[offset + i][offset + j] = Fraction(block[i][j])
        sym.extend(_symmetrizer(fam, rank))
        for k in positive_roots_from_cartan(block):
            simple_coords.append((0,) * offset + k + (0,) * (n - offset - rank))
        offset += rank
    simple_coords.sort(key=lambda k: (sum(k), k))
    cmat = tuple(tuple(row) for row in cm)
    inv = mat_inv(cmat)
    form = tuple(tuple(inv[i][j] * sym[j] for j in range(n)) for i in range(n))

    def to_fw(k):
        return tuple(sum((Fraction(k[i]) * cmat[i][j] for i in range(n)), Fraction(0)) for j in range(n))

    positives = tuple(to_fw(k) for k in simple_coords)
    simples = tuple(to_fw(tuple(1 if j == i else 0 for j in range(n))) for i in range(n))
    rho = wscale(Fraction(1, 2), functools.reduce(wadd, positives, wzero(n)))
    return RootData(cartan=cartan, rank=n, simple_roots=simples, positive_roots=positives, form=form, rho=rho)


def subsystem(ambient, roots):
    """The subsystem on a closed set of positive roots, in Fractions:
    membership by a scan of the ambient roots, simple roots by Fraction
    differences, Cartan pairings from the Fraction form, and the
    closure rebuilt as Fraction combinations of the simple roots."""
    pos = sorted(set(roots), key=grlex_key)
    pos_set = set(pos)
    for r in pos:
        if r not in ambient.positive_roots:
            raise ValidationError(f"{vec_str(r)} is not a positive root of the ambient system")
    simples = [r for r in pos if all(wsub(r, s) not in pos_set for s in pos)]
    cm = [[2 * inner(a, b, ambient) / inner(b, b, ambient) for b in simples] for a in simples]
    if any(x.denominator != 1 for row in cm for x in row):
        raise ValidationError("marked set is not a root subsystem (non-integral Cartan pairing)")
    cm = [[int(x) for x in row] for row in cm]
    if simples:
        rebuilt = {
            functools.reduce(wadd, (wscale(k[i], simples[i]) for i in range(len(simples))), wzero(ambient.rank))
            for k in positive_roots_from_cartan(cm)
        }
        if rebuilt != pos_set:
            raise ValidationError("marked set is not a root subsystem (closure mismatch)")
    return RootData(
        cartan=identify_cartan_type(tuple(simples), ambient, cm),
        rank=ambient.rank,
        simple_roots=tuple(simples),
        positive_roots=tuple(pos),
        form=ambient.form,
        rho=wscale(Fraction(1, 2), functools.reduce(wadd, pos, wzero(ambient.rank))),
    )


def validate_grading(rs, compact):
    """The height-induction check of a Z/2 root grading on Fraction
    weights: e(b) = e(b - a) + e(a) mod 2 for every positive root b and
    simple root a with b - a positive. Raises with the first failure."""
    eps = {r: 0 if r in compact else 1 for r in rs.positive_roots}
    for b in rs.positive_roots:
        for a in rs.simple_roots:
            rest = wsub(b, a)
            if rest in eps and (eps[rest] + eps[a]) % 2 != eps[b]:
                raise ValidationError(
                    "compact marking is not an additive Z/2 grading "
                    f"(fails at {vec_str(rest)} + {vec_str(a)})"
                )


def weyl_dimension(mu, rs):
    """prod (mu + rho, a) / (rho, a) over the positive roots a, one
    Fraction form value at a time."""
    shifted = wadd(tuple(Fraction(c) for c in mu), rs.rho)
    out = Fraction(1)
    for a in rs.positive_roots:
        out *= inner(shifted, a, rs) / inner(rs.rho, a, rs)
    return out


def _reflection_matrix(root, rs):
    u = coroot_functional(root, rs)
    n = rs.rank
    return tuple(
        tuple(Fraction(1 if j == k else 0) - u[j] * root[k] for k in range(n)) for j in range(n)
    )


def _mat_mul(a, b):
    return tuple(
        tuple(sum((ra[k] * b[k][j] for k in range(len(b))), Fraction(0)) for j in range(len(b[0])))
        for ra in a
    )


@functools.lru_cache(maxsize=None)
def weyl_elements_bfs(rs):
    """Weyl group by BFS over Fraction matrices, levels sorted."""
    gens = [_reflection_matrix(r, rs) for r in rs.simple_roots]
    ident = tuple(tuple(Fraction(1 if i == j else 0) for j in range(rs.rank)) for i in range(rs.rank))
    seen = {ident}
    order = [ident]
    frontier = [ident]
    while frontier:
        nxt = set()
        for m in frontier:
            for g in gens:
                prod = _mat_mul(m, g)
                if prod not in seen:
                    nxt.add(prod)
        frontier = sorted(nxt)
        seen.update(frontier)
        order.extend(frontier)
    return tuple(order)


def is_regular_scan(x, rs):
    return all(inner(x, a, rs) != 0 for a in rs.positive_roots)


def chamber_scan(lam, rs):
    """Chamber id by scanning the Fraction Weyl group for w(dom) = lam."""
    dom = make_dominant(lam, rs)
    for idx, m in enumerate(weyl_elements_bfs(rs)):
        if apply_matrix(m, dom) == lam:
            return idx
    raise AssertionError("regular weight not reached from its dominant representative")


def box_ranges_gram_inverse(pair, bound):
    """Box ranges around the bound ellipsoid, from the inverse basis Gram matrix.

    In the coordinates of mu the ball (lambda, lambda) <= bound is an
    ellipsoid centred at -rho_K (solved for in the unit basis); its
    extent along axis i is sqrt(bound * G^-1_ii) for the Gram matrix G
    of the basis. Rounded outwards to whole integers, exactly.
    """
    g = pair.g
    basis = tuple(tuple(Fraction(1 if j == i else 0) for j in range(g.rank)) for i in range(g.rank))
    gram_inv = mat_inv(tuple(tuple(inner(bi, bj, g) for bj in basis) for bi in basis))
    center = solve_left(basis, tuple(-c for c in pair.k.rho))
    ranges = []
    for i, c in enumerate(center):
        s = math.isqrt(math.floor(Fraction(bound) * gram_inv[i][i]))
        ranges.append(range(math.floor(c) - s, math.ceil(c) + s + 1))
    return ranges


def lattice_box_float(pair, bound, basis):
    """Lattice points mu with (mu + rho_K) in the bound ball, via floats.

    The float norm prefilter keeps an absolute slack of 0.5; the exact
    Fraction form decides membership.
    """
    g = pair.g
    n = g.rank
    rho_k = pair.k.rho
    gram_inv = mat_inv(tuple(tuple(inner(bi, bj, g) for bj in basis) for bi in basis))
    center = solve_left(basis, tuple(-c for c in rho_k))
    ranges = []
    for i in range(n):
        half = bound * gram_inv[i][i]
        s = math.sqrt(float(half)) if half > 0 else 0.0
        ranges.append(range(math.floor(float(center[i]) - s) - 1, math.ceil(float(center[i]) + s) + 2))
    grid = np.array(list(itertools.product(*ranges)), dtype=float)
    basis_f = np.array([[float(c) for c in b] for b in basis])
    form_f = np.array([[float(c) for c in row] for row in g.form])
    lam_f = grid @ basis_f + np.array([float(c) for c in rho_k])
    norms = np.einsum("ij,jk,ik->i", lam_f, form_f, lam_f)
    for coeffs in grid[norms <= float(bound) + 0.5].astype(int):
        mu = tuple(
            sum((Fraction(int(coeffs[i])) * basis[i][j] for i in range(n)), Fraction(0))
            for j in range(n)
        )
        lam = wadd(mu, rho_k)
        if inner(lam, lam, g) <= bound:
            yield mu


def enumerate_scan(pair, bound, degree_roots="positive"):
    """Parameters as (lambda, mu, signed trace, chamber id), all in Fractions.

    Sorted like enumerate_discrete_series: by norm, then graded-lex.
    """
    if not pair.equal_rank or pair.parity == 1:
        return []
    g, k = pair.g, pair.k
    bound = Fraction(bound)
    basis = tuple(tuple(Fraction(1 if j == i else 0) for j in range(g.rank)) for i in range(g.rank))
    roots = g.positive_roots if degree_roots == "positive" else g.simple_roots
    out = []
    for mu in lattice_box_float(pair, bound, basis):
        if any(coroot_pairing(mu, i, k) < 0 for i in range(len(k.simple_roots))):
            continue
        lam = wadd(mu, k.rho)
        if not is_regular_scan(lam, g):
            continue
        signed = Fraction(1)
        for a in roots:
            signed *= inner(lam, a, g) / inner(g.rho, a, g)
        out.append((lam, mu, signed, chamber_scan(lam, g)))
    out.sort(key=lambda t: (inner(t[0], t[0], g), sum(t[0]), t[0]))
    return out


def enumerate_by_induction(pair, bound, degree_roots="positive"):
    """Parameters by dirac_induct on each lattice-box survivor, sorted by
    (Fraction norm, grlex_key): the enumeration before the survivors were
    sorted and built on integers."""
    if not pair.equal_rank or pair.parity == 1:
        return []
    rows, _, den = _lattice_box(pair, Fraction(bound))
    out = []
    for row in rows.tolist():
        res = dirac_induct(wsub(tuple(Fraction(c, den) for c in row), pair.k.rho), pair, degree_roots)
        if res.ok:
            out.append(res.parameter)
    out.sort(key=lambda p: (inner(p.lam, p.lam, pair.g), grlex_key(p.lam)))
    return out


def dominant_multiplicities_box(mu, rs):
    """Freudenthal recursion over the dominant points of the candidate box.

    Candidates are mu - sum k_i a_i for 0 <= k_i <= kmax_i, where kmax
    are the simple-root coordinates of mu minus its antidominant image,
    taken level by level (then graded-lex) so every multiplicity on the
    right-hand side is known when a weight is processed.
    """
    simples = rs.simple_roots
    if not simples:
        return {mu: 1}
    kmax = solve_left(simples, wsub(mu, wneg(make_dominant(wneg(mu), rs))))
    if kmax is None or not all(k.denominator == 1 and k >= 0 for k in kmax):
        raise AssertionError("mu minus its antidominant image is not in the positive root cone")
    candidates = []
    for ks in itertools.product(*(range(int(k) + 1) for k in kmax)):
        lam = mu
        for i, k in enumerate(ks):
            if k:
                lam = wsub(lam, wscale(k, simples[i]))
        if all(coroot_pairing(lam, i, rs) >= 0 for i in range(len(simples))):
            candidates.append((sum(ks), lam))
    candidates.sort(key=lambda t: (t[0], grlex_key(t[1])))
    rho = rs.rho
    top = inner(wadd(mu, rho), wadd(mu, rho), rs)
    mult = {}
    for level, lam in candidates:
        if level == 0:
            mult[lam] = 1
            continue
        acc = Fraction(0)
        for alpha in rs.positive_roots:
            t = 1
            while True:
                nu = wadd(lam, wscale(t, alpha))
                m = mult.get(make_dominant(nu, rs))
                if m is None:
                    break
                acc += m * inner(nu, alpha, rs)
                t += 1
        val = 2 * acc / (top - inner(wadd(lam, rho), wadd(lam, rho), rs))
        if val.denominator != 1 or val <= 0:
            raise AssertionError("Freudenthal recursion broke")
        mult[lam] = int(val)
    return mult


def cartan_type_by_permutation(pairing):
    """(family, rank) factors of a Cartan pairing matrix, sorted: each
    orthogonality component matched against the standard Cartan matrices
    of rank r under every permutation of its nodes, families in order."""
    m = len(pairing)
    unvisited = set(range(m))
    factors = []
    while unvisited:
        comp = {min(unvisited)}
        stack = list(comp)
        while stack:
            v = stack.pop()
            for w in range(m):
                if w != v and pairing[v][w] and w not in comp:
                    comp.add(w)
                    stack.append(w)
        unvisited -= comp
        comp = sorted(comp)
        r = len(comp)
        sub = [[int(pairing[i][j]) for j in comp] for i in comp]
        cands = [("A", r)] + [(f, r) for f in "BC" if r >= 2] + [("D", r)] * (r >= 3)
        cands += [("E", r)] * (r in (6, 7, 8)) + [("F", r)] * (r == 4) + [("G", r)] * (r == 2)
        found = next(
            (fam, rank)
            for fam, rank in cands
            for ref in [_cartan_matrix_simple(fam, rank)]
            for perm in itertools.permutations(range(r))
            if all(sub[perm[i]][perm[j]] == ref[i][j] for i in range(r) for j in range(r))
        )
        factors.append(found)
    return tuple(sorted(factors))


def product_convolve(a, b):
    """Weight -> multiplicity map of the product of two characters: the
    convolution of their Fraction-keyed supports, zeros dropped."""
    out = {}
    for w1, m1 in a.terms.items():
        for w2, m2 in b.terms.items():
            w = wadd(w1, w2)
            out[w] = out.get(w, 0) + m1 * m2
    return {w: m for w, m in out.items() if m}


def is_weyl_invariant_orbits(chi):
    """Every Fraction Weyl orbit meets the support with one multiplicity."""
    seen = set()
    for w, m in chi.terms.items():
        if w in seen:
            continue
        orbit = weyl_orbit(w, chi.ambient)
        if any(chi.terms.get(o, 0) != m for o in orbit):
            return False
        seen.update(orbit)
    return True


def decompose_peel(chi):
    """Decomposition by peeling: subtract the full character of the
    irreducible at the maximal dominant weight of what is left, keeping
    the dominant weights of the remainder in a second dict."""
    rs = chi.ambient
    if not is_weyl_invariant_orbits(chi):
        raise ValidationError("character is not Weyl-invariant")
    rho = rs.rho

    def key(w):
        return (inner(wadd(w, rho), wadd(w, rho), rs), grlex_key(w))

    rest = dict(chi.terms)
    dominants = {w: key(w) for w in rest if all(coroot_pairing(w, i, rs) >= 0 for i in range(len(rs.simple_roots)))}
    out = []
    while rest:
        if not dominants:
            raise ValidationError("character is not Weyl-invariant")
        mu = max(dominants, key=dominants.__getitem__)
        c = rest[mu]
        terms = repring.irr_character(repring.IrrLabel(mu), rs).terms
        table = repring.dominant_multiplicities(mu, rs)
        for w, m in terms.items():
            nm = rest.get(w, 0) - c * m
            if nm == 0:
                rest.pop(w, None)
                dominants.pop(w, None)
            else:
                rest[w] = nm
                if w in table and w not in dominants:
                    dominants[w] = key(w)
        out.append((repring.IrrLabel(mu), c))
    out.sort(key=lambda t: grlex_key(t[0].highest_weight))
    return out


def spin_characters_by_sign_vectors(pair):
    """S+ and S- from all 2^{n+} sign vectors over the noncompact positive
    roots: the weight (1/2) sum eps_b * b goes to S+ or S- by the parity
    of the number of minus signs."""
    plus, minus = {}, {}
    halves = [wscale(Fraction(1, 2), b) for b in pair.noncompact_positive]
    for mask in range(1 << len(halves)):
        w = wzero(pair.g.rank)
        negs = 0
        for i, h in enumerate(halves):
            if mask >> i & 1:
                w = wsub(w, h)
                negs += 1
            else:
                w = wadd(w, h)
        tgt = plus if negs % 2 == 0 else minus
        tgt[w] = tgt.get(w, 0) + 1
    return SpinCharacter(
        s_plus=repring.char_from_terms(pair.k, plus),
        s_minus=repring.char_from_terms(pair.k, minus),
    )


def gq_mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def gq_matmul(x, y):
    """Product of square matrices of (re, im) Fraction pairs."""
    n = len(x)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            re = im = Fraction(0)
            for k in range(n):
                p = gq_mul(x[i][k], y[k][j])
                re += p[0]
                im += p[1]
            row.append((re, im))
        out.append(row)
    return out


def gq_rank(rows):
    """Rank by Gauss-Jordan elimination over Q(i); entries are ints,
    Fractions or (re, im) pairs of them."""
    rows = [[(Fraction(x[0]), Fraction(x[1])) if isinstance(x, tuple) else (Fraction(x), Fraction(0)) for x in r]
            for r in rows]
    n = len(rows)
    rank = 0
    for col in range(n):
        piv = next((r for r in range(rank, n) if rows[r][col] != (0, 0)), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        a, b = rows[rank][col]
        den = a * a + b * b
        inv = (a / den, -b / den)
        rows[rank] = [gq_mul(inv, x) for x in rows[rank]]
        for r in range(n):
            if r != rank and rows[r][col] != (0, 0):
                f = rows[r][col]
                rows[r] = [
                    (x[0] - (y := gq_mul(f, rows[rank][c]))[0], x[1] - y[1])
                    for c, x in enumerate(rows[r])
                ]
        rank += 1
    return rank


def reflect(x, root, rs):
    """Reflection s_root(x) = x - 2(x,root)/(root,root) * root."""
    nn = inner(root, root, rs)
    if nn == 0:
        raise ValidationError("cannot reflect in an isotropic vector")
    c = 2 * inner(x, root, rs) / nn
    return wsub(x, wscale(c, root))


def dual(chi):
    """Contragredient: negate every weight in the support."""
    return repring.VirtualCharacter(chi.ambient, {tuple(-c for c in w): m for w, m in chi.nums.items()}, chi.den)


def invariant_multiplicity(chi):
    """Coefficient of the trivial representation in chi."""
    zero = wzero(chi.ambient.rank)
    for label, c in repring.decompose(chi):
        if label.highest_weight == zero:
            return c
    return 0


def is_compact(pair) -> bool:
    """Equal rank with no noncompact positive root: K is all of G."""
    return pair.equal_rank and not pair.noncompact_positive


def pairing_compact_oracle(h_label, v, pair):
    """Index pairing in the fully compact case via invariants.

    Computes the invariant multiplicity of dual(V) x dual(S) x H over
    K. With the trivial spin module of a compact pair this is exactly
    the Kronecker delta of the two labels.
    """
    if not is_compact(pair):
        raise ValidationError("compact oracle needs a fully compact pair")
    sc = spin_characters(pair)
    s_total = sc.s_plus + sc.s_minus
    chi = repring.product(
        repring.product(dual(repring.irr_character(v, pair.k)), dual(s_total)),
        repring.irr_character(h_label, pair.k),
    )
    return invariant_multiplicity(chi)
