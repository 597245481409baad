"""The Dirac index of finite-dimensional representations, across modules.

For an equal-rank pair (g, K) and a g-dominant integral lambda, the
Gross-Kostant-Ramond-Sternberg identity reads

    V_g(lambda)|_K (S+ - S-) = sum over w in W^1(lambda) of
                               (-1)^l(w) V_K(w(lambda + rho) - rho_K),

with W^1(lambda) the Weyl elements w for which w(lambda + rho) is
K-dominant. The left side runs through repring (restriction, product,
decompose) and spinmod; the right side comes from the materialized Weyl
group of g. Each K-type mu = w(lambda + rho) - rho_K on the right is the
minimal K-type of the discrete series with Harish-Chandra parameter
w(lambda + rho), so dirac_induct must return that parameter, w's chamber
and, by the Weyl dimension formula read through the formal degree,
the dimension of V_g(lambda).

The K systems have half-integral rho_K, so decompose runs Freudenthal
on numerators over denominator 2 here.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirac_atlas.dirac import dirac_induct
from dirac_atlas.repring import IrrLabel, char_from_terms, decompose, irr_character, product, weyl_dimension
from dirac_atlas.rootsys import (
    WEYL_MATERIALIZE_CAP,
    apply_matrix,
    is_dominant,
    wadd,
    weight,
    weyl_elements,
    weyl_group_order,
    wsub,
)
from dirac_atlas.spinmod import build_pair, catalog_names, get_pair, spin_characters
from test_spinmod import ONE_NODE_GRADINGS

# One-node gradings (Borel-de Siebenthal; see test_spinmod) with |W| within
# the materialization cap.
GRADINGS = [("A3", 2), ("B3", 1), ("C3", 3), ("G2", 2), ("D4", 1), ("D4", 2), ("C4", 4), ("F4", 4)]
# Labels are drawn from the g-dominant weights with coordinates up to
# LABEL_TOP and at most DIM_CAP dimensions, which keeps the products small.
LABEL_TOP = {1: 3, 2: 2}
DIM_CAP = 300


PAIRS = {name: get_pair(name) for name in catalog_names() if get_pair(name).equal_rank}
PAIRS.update({f"{c}-node{n}": build_pair(c, compact) for c, n, compact, _ in ONE_NODE_GRADINGS if (c, n) in GRADINGS})


def small_labels(g):
    top = LABEL_TOP.get(g.rank, 1)
    labels = [weight(c) for c in itertools.product(range(top + 1), repeat=g.rank)]
    return [lam for lam in labels if weyl_dimension(lam, g) <= DIM_CAP]


def test_fixture_pairs_are_materializable_and_noncompact_gradings():
    assert all(weyl_group_order(pair.g) <= WEYL_MATERIALIZE_CAP for pair in PAIRS.values())
    assert all(PAIRS[f"{name}-node{node}"].n_plus > 0 for name, node in GRADINGS)


def index_terms(lam, pair):
    """{K-type: (sign, w(lambda + rho), index of w)} over W^1(lambda)."""
    g = pair.g
    shifted = wadd(lam, g.rho)
    out = {}
    for idx, w in enumerate(weyl_elements(g)):
        image = apply_matrix(w, shifted)
        if is_dominant(image, pair.k):
            length = sum(p < 0 for p in g.integral.pairings(image)[0])
            out[IrrLabel(wsub(image, pair.k.rho))] = ((-1) ** length, image, idx)
    return out


@settings(max_examples=6, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("name", sorted(PAIRS))
def test_dirac_index_of_finite_dimensional_representations(name, data):
    pair = PAIRS[name]
    lam = data.draw(st.sampled_from(small_labels(pair.g)))
    spin = spin_characters(pair)
    restricted = char_from_terms(pair.k, irr_character(lam, pair.g).terms)
    left = dict(decompose(product(restricted, spin.s_plus - spin.s_minus)))
    right = index_terms(lam, pair)
    assert left == {mu: sign for mu, (sign, _, _) in right.items()}
    dim = weyl_dimension(lam, pair.g)
    for mu, (_, image, idx) in right.items():
        res = dirac_induct(mu.highest_weight, pair)
        assert res.ok
        param = res.parameter
        assert param.lam == image and param.min_k_type == mu
        assert param.chamber_id == idx
        assert param.formal_degree == dim
