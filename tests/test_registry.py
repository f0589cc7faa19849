import dataclasses

import numpy as np
import pytest

from hardylab.norms import _abs_power, hardy_norm_reinhardt
from hardylab.quadrature import torus_integrals
from hardylab.registry import (RegistryEntry, TaggedEvaluator,
                               default_registry, fa_entry, monomial_entry,
                               polynomial_entry, product_entry,
                               sum_of_products)
from hardylab.reinhardt import density_difference, dilate_truncate, polydisc
from hardylab.series import PowerSeries, partial_sum
from hardylab.witnesses import T1T2Split, fa_series

RNG = np.random.default_rng(5150)
PTS = RNG.uniform(-0.65, 0.65, 12) + 1j * RNG.uniform(-0.65, 0.65, 12)


def geometric_series():
    """1/(1 - z) with no spike tag: its pole sits on the rim."""
    return PowerSeries.from_generator(lambda k: 1.0,
                                      closed_form=lambda z: 1 / (1 - z))


def undeclared_entry():
    return RegistryEntry("u", (geometric_series(),))


def test_default_registry_contents():
    reg = default_registry()
    for name in ("const-1", "mono-1", "mono-5", "poly-3", "poly-12",
                 "fa-0", "fa-0.9", "fa-0.999", "prod-fa-0.9",
                 "prod-fa-0.9-0.5", "mono2-1-2"):
        assert name in reg
    assert len(reg.entries(dim=1)) == 12
    assert len(reg.entries(dim=2)) == 3


def test_registry_seeding_is_reproducible():
    r1 = default_registry(777)
    r2 = default_registry(777)
    r3 = default_registry(778)
    c1 = r1.get("poly-7").factors[0].coefficients(7)
    c2 = r2.get("poly-7").factors[0].coefficients(7)
    c3 = r3.get("poly-7").factors[0].coefficients(7)
    assert np.array_equal(c1, c2)
    assert not np.array_equal(c1, c3)


def test_registry_rejects_duplicates_and_unknown():
    reg = default_registry()
    with pytest.raises(ValueError):
        reg.add(monomial_entry(1))
    with pytest.raises(KeyError):
        reg.get("no-such-function")


def test_fa_partial_fast_path_matches_truncation():
    ent = fa_entry(0.85)
    for N in (0, 5, 33):
        fast = ent.partial_evaluator(N)(PTS)
        slow = partial_sum(ent.factors[0], N)(PTS)
        assert np.allclose(fast, slow, rtol=1e-11, atol=1e-13)


def test_tail_plus_partial_reassembles():
    for ent in (fa_entry(0.6), polynomial_entry("p", [1, 2, 3, 4, 5])):
        for N in (1, 3, 9):
            total = np.asarray(ent.partial_evaluator(N)(PTS)) \
                + np.asarray(ent.tail_evaluator(N)(PTS))
            direct = np.asarray(ent.evaluator(PTS))
            assert np.allclose(total, direct, rtol=1e-11, atol=1e-13)


def test_polynomial_tail_vanishes_at_degree():
    ent = polynomial_entry("p", [2.0, -1.0, 0.5, 3.0])
    tail = ent.tail_evaluator(3)(PTS)
    assert np.all(tail == 0)
    tail2 = ent.tail_evaluator(1)(PTS)
    assert np.allclose(tail2, 0.5 * PTS ** 2 + 3.0 * PTS ** 3, rtol=1e-13)


def test_product_entry_evaluator_and_square_partial():
    reg = default_registry()
    ent = reg.get("prod-fa-0.9-0.5")
    z1, z2 = PTS[:6], PTS[6:]
    f1 = reg.get("fa-0.9").evaluator
    f2 = reg.get("fa-0.5").evaluator
    assert np.allclose(ent.evaluator(z1, z2),
                       np.asarray(f1(z1)) * np.asarray(f2(z2)), rtol=1e-12)
    N = 7
    sq = ent.partial_evaluator(N)(z1, z2)
    s1 = reg.get("fa-0.9").partial_evaluator(N)(z1)
    s2 = reg.get("fa-0.5").partial_evaluator(N)(z2)
    assert np.allclose(sq, np.asarray(s1) * np.asarray(s2), rtol=1e-11)


def test_product_square_tail_identity():
    reg = default_registry()
    three = product_entry((reg.get("fa-0.9"), reg.get("fa-0.5"),
                           reg.get("poly-3")))
    for ent, zs in ((reg.get("prod-fa-0.9"), (PTS[:6], PTS[6:])),
                    (three, (PTS[:4], PTS[4:8], PTS[8:]))):
        for N in (2, 10):
            total = np.asarray(ent.partial_evaluator(N)(*zs)) \
                + np.asarray(ent.tail_evaluator(N)(*zs))
            assert np.allclose(total, ent.evaluator(*zs), rtol=1e-10)


def test_product_square_partial_on_monomial_factors():
    reg = default_registry()
    ent = reg.get("mono2-1-2")
    z1, z2 = PTS[:6], PTS[6:]
    # square degree 1 drops the (1, 2) monomial entirely
    assert np.allclose(ent.partial_evaluator(1)(z1, z2), 0.0)
    assert np.allclose(ent.partial_evaluator(2)(z1, z2),
                       z1 * z2 ** 2, rtol=1e-12)
    assert np.allclose(ent.tail_evaluator(2)(z1, z2), 0.0,
                       atol=1e-15)


def test_spike_tags_propagate():
    # a partial sum of order N is tagged min(|s|, N/(N+1)), the floor of its
    # degree, on each axis; tails keep the pole's tag
    ent = fa_entry(0.9)
    assert ent.spike == pytest.approx(0.9)
    assert ent.partial_evaluator(4).spike == 0.8
    assert ent.partial_evaluator(16).spike == 0.9
    assert ent.tail_evaluator(4).spike == 0.9
    prod = default_registry().get("prod-fa-0.9-0.5")
    assert prod.spike == (0.9, 0.5)
    assert prod.partial_evaluator(3).spike == (0.75, 0.5)
    assert prod.tail_evaluator(3).spike == (0.9, 0.5)
    assert undeclared_entry().partial_evaluator(3).spike is None


def test_product_with_an_undeclared_factor_is_refused():
    # a factor that declares no spike keeps its None in the product, which
    # then has no Hardy norm the estimator can integrate on the torus
    reg = default_registry()
    prod = product_entry((reg.get("fa-0.5"), undeclared_entry()))
    assert prod.spike == (0.5, None)
    with pytest.raises(ValueError, match="spike tag on every axis"):
        hardy_norm_reinhardt(prod.evaluator, 1.0, polydisc(2))


def test_polynomial_entries_are_declared_entire():
    reg = default_registry()
    for name in ("const-1", "mono-1", "poly-7"):
        assert reg.get(name).spike == 0.0
    assert reg.get("mono2-1-2").spike == (0.0, 0.0)
    assert undeclared_entry().spike is None


def test_tagged_evaluator_passthrough():
    tag = TaggedEvaluator(lambda z: 2 * z, 0.5)
    assert tag(3.0) == 6.0
    assert tag.spike == 0.5
    # the wrapper holds the callable and its tag; everything else it
    # declares is the callable's own
    assert [f.name for f in dataclasses.fields(TaggedEvaluator)] == \
        ["fn", "spike"]


def test_product_entry_rejects_multivariable_factors():
    reg = default_registry()
    with pytest.raises(ValueError):
        product_entry((reg.get("prod-fa-0.9"),))


def test_partial_plus_tail_reassembles_every_entry():
    # one evaluator pair serves every dimension; PTS split into dim
    # coordinate arrays stays inside the unit polydisc
    for ent in default_registry().entries():
        zs = np.split(PTS, ent.dim)
        direct = np.asarray(ent.evaluator(*zs))
        for N in (0, 1, 7):
            total = np.asarray(ent.partial_evaluator(N)(*zs)) \
                + np.asarray(ent.tail_evaluator(N)(*zs))
            assert np.allclose(total, direct, rtol=1e-10, atol=1e-13), \
                (ent.name, N)


def test_one_factor_product_matches_its_factor():
    fa09 = default_registry().get("fa-0.9")
    prod = product_entry((fa09,))
    for N in (0, 1, 7):
        assert np.array_equal(prod.partial_evaluator(N)(PTS),
                              fa09.partial_evaluator(N)(PTS))
        assert np.array_equal(prod.tail_evaluator(N)(PTS),
                              fa09.tail_evaluator(N)(PTS))


def test_product_evaluator_rejects_wrong_coordinate_count():
    ent = default_registry().get("prod-fa-0.9")
    with pytest.raises(ValueError, match="expected 2 coordinates"):
        ent.evaluator(0.1, 0.2, 0.3)
    with pytest.raises(ValueError, match="expected 2 coordinates"):
        ent.evaluator(0.1)


def test_products_expose_their_factors():
    # a product in several variables is the one-term sum of products and
    # holds its factors as that one term; in one variable it is its one
    # factor, which holds no terms
    reg = default_registry()
    ent = reg.get("prod-fa-0.9-0.5")
    assert ent.evaluator.terms == (ent.factors,)
    sn = ent.partial_evaluator(5)
    (factors,) = sn.terms
    assert [f.spike for f in factors] == [5 / 6, 0.5]
    z1, z2 = PTS[:, None], PTS[None, :]
    assert np.array_equal(sn(z1, z2), factors[0](z1) * factors[1](z2))
    assert len(ent.tail_evaluator(5).terms) == 2
    assert not hasattr(reg.get("fa-0.9").partial_evaluator(5), "terms")


def test_tails_hold_their_terms():
    # the tail of a product is the telescoping sum over j of
    # f_1 ... f_(j-1) t_j S_(j+1) ... S_n, and holds those terms; in one
    # variable it is the factor's tail, which holds no terms
    reg = default_registry()
    fa09 = reg.get("fa-0.9")
    ent = product_entry((fa09, reg.get("fa-0.5"), fa09))
    terms = ent.tail_evaluator(5).terms
    assert len(terms) == 3 and all(len(term) == 3 for term in terms)
    assert terms[1][0] is terms[2][0] is ent.factors[0]
    assert terms[2][1] is ent.factors[1]
    assert terms[0][2] is terms[1][2]
    zs = [PTS[:, None, None], PTS[None, :, None], PTS[None, None, :]]
    tail = ent.tail_evaluator(5)(*zs)
    expect = sum(np.asarray(term[0](zs[0])) * term[1](zs[1]) * term[2](zs[2])
                 for term in terms)
    assert np.array_equal(tail, expect)
    assert np.allclose(ent.evaluator(*zs),
                       ent.partial_evaluator(5)(*zs) + tail,
                       rtol=0, atol=1e-12)
    one = fa09.tail_evaluator(5)
    assert not hasattr(one, "terms") and one.fn is not None
    assert np.array_equal(one(PTS), fa09.factors[0].tail(5)(PTS))


def test_a_sum_of_one_product_is_the_product():
    fa09 = default_registry().get("fa-0.9").factors[0]
    prod = sum_of_products([(fa09, fa09)])
    assert prod.terms == ((fa09, fa09),)
    assert sum_of_products([(fa09,)]) is fa09


def test_an_empty_sum_or_an_empty_term_is_refused():
    # refused when the sum is built, not when it is first called
    for terms in ([], [()], [(), ()]):
        with pytest.raises(ValueError, match="needs a factor"):
            sum_of_products(terms)


def _tagged(spike, conj_symmetric=False):
    def fn(z):
        return z
    fn.conj_symmetric = conj_symmetric
    return TaggedEvaluator(fn, spike)


def test_a_sum_of_products_takes_each_axis_largest_tag():
    # a sum is holomorphic where every term is, so an axis carries the tag
    # of largest modulus among its factors, whichever term holds it
    a, b, c = _tagged(0.5), _tagged(0.9), _tagged(0.0)
    assert sum_of_products([(a, c), (b, c), (a, a)]).spike == (0.9, 0.5)
    assert sum_of_products([(c, b)]).spike == (0.0, 0.9)
    assert sum_of_products([(c, a, c), (c, c, b)]).spike == (0.0, 0.5, 0.9)


def test_an_undeclared_factor_leaves_its_axis_undeclared():
    a = _tagged(0.5)
    for u in (_tagged(None), lambda z: z):
        assert sum_of_products([(a, a), (a, u)]).spike == (0.5, None)
        assert sum_of_products([(u, a), (a, a)]).spike == (None, 0.5)
        assert sum_of_products([(a,), (u,)]).spike is None


def test_a_sum_of_products_is_conj_symmetric_when_every_factor_is():
    sym, plain = _tagged(0.0, True), _tagged(0.0)
    assert sum_of_products([(sym, sym), (sym, sym)]).conj_symmetric
    assert sum_of_products([(sym,), (sym,)]).conj_symmetric
    for terms in ([(sym, sym), (sym, plain)], [(plain, sym)],
                  [(sym,), (plain,)], [(sym, lambda z: z)]):
        assert not sum_of_products(terms).conj_symmetric


def test_a_one_variable_sum_carries_a_scalar_tag():
    a, b = _tagged(0.5), _tagged(0.9)
    g = sum_of_products([(a,), (b,)])
    assert g.spike == 0.9 and g.terms == ((a,), (b,))
    assert g(0.25) == 0.5


def test_built_functions_declare_what_their_entry_declares():
    # the evaluator, S_N, tail and density difference of every entry derive
    # from their factors the declarations written out here from the series:
    # the tags s_j, on S_N min(|s_j|, N/(N+1)) per axis, a scalar in one
    # variable, and conjugate symmetry when every series declares it; a
    # tail declares its own, so above a polynomial's degree it is the zero
    # series, which declares it (_tail_declared)
    def per_axis(tags):
        return tags if len(tags) > 1 else tags[0]
    for entry in default_registry().entries():
        tags = per_axis(tuple(s.spike for s in entry.factors))
        real = all(s.conj_symmetric for s in entry.factors)
        assert (entry.spike, entry.conj_symmetric) == (tags, real)
        q = [dilate_truncate(s, 0.75, 6) for s in entry.factors]
        cases = [(entry.evaluator, tags, real),
                 (density_difference(entry, q), tags, real)]
        for N in (0, 1, 8, 64):
            degree = per_axis(tuple(None if s.spike is None
                                    else min(abs(s.spike), N / (N + 1))
                                    for s in entry.factors))
            cases += [(entry.partial_evaluator(N), degree, real),
                      (entry.tail_evaluator(N), tags,
                       _tail_declared(entry, N))]
        for f, spike, conj in cases:
            assert f.spike == spike, (entry.name, f.spike, spike)
            assert f.conj_symmetric is conj, entry.name


def _tail_declared(entry, N):
    # whether f - S_N declares conjugate symmetry: when the entry does, or
    # when it is a polynomial in one variable of degree <= N, whose tail
    # is the zero series, with real coefficients
    s = entry.factors[0]
    return entry.conj_symmetric or (entry.dim == 1 and s.is_polynomial
                                    and s.degree <= N)


def test_entries_of_one_series_declare_axis_symmetry():
    # f, S_N and the tail of an entry whose factors are all one series are
    # unchanged by permuting the axes, as square truncation commutes with
    # it; entries of distinct series, one-variable entries and density
    # differences declare nothing
    reg = default_registry()
    three = product_entry((reg.get("fa-0.9"),) * 3, name="fa-0.9-x3")
    for entry in (*reg.entries(), three):
        declared = entry.name in ("prod-fa-0.9", "fa-0.9-x3")
        built = [entry.evaluator]
        for N in (0, 1, 8, 64):
            built += [entry.partial_evaluator(N), entry.tail_evaluator(N)]
        for f in built:
            assert getattr(f, "axis_symmetric", False) is declared, entry.name
        q = [dilate_truncate(s, 0.75, 6) for s in entry.factors]
        assert not hasattr(density_difference(entry, q), "axis_symmetric")
    z = PTS.reshape(3, 4)
    for entry in (reg.get("prod-fa-0.9"), three):
        for f in (entry.evaluator, entry.partial_evaluator(8),
                  entry.tail_evaluator(8)):
            swapped = f(*z[:entry.dim][::-1])
            np.testing.assert_allclose(swapped, f(*z[:entry.dim]),
                                       rtol=1e-12, atol=1e-15)


def test_every_tail_refuses_a_negative_order():
    # as S_N does: a polynomial's tail at N = -1 would otherwise be f
    for entry in default_registry().entries():
        with pytest.raises(ValueError, match="must be >= 0"):
            entry.tail_evaluator(-1)
    with pytest.raises(ValueError, match="must be >= 0"):
        PowerSeries.from_coefficients([0.0, 0.0, 1.0]).tail(-1)


def test_terms_of_unequal_length_are_refused():
    # a short term would otherwise lose coordinates silently
    fa09 = default_registry().get("fa-0.9").factors[0]
    for terms in ([(fa09, fa09), (fa09,)], [(fa09,), (fa09, fa09, fa09)]):
        with pytest.raises(ValueError, match="one factor per coordinate"):
            sum_of_products(terms)


@pytest.mark.parametrize("dim", [2, 3])
def test_a_one_term_sum_is_its_hidden_tensor_sum(dim):
    # on the tensor grid a product's values are its factors' values
    # multiplied left to right, bit for bit, and the integrals taken from
    # its terms axis by axis agree with the tensor sums of the hidden
    # callable to roundoff
    reg = default_registry()
    ent = product_entry((reg.get("fa-0.9"), reg.get("fa-0.5"),
                         reg.get("poly-3"))[:dim])
    f = ent.partial_evaluator(6)
    zs = [PTS.reshape((1,) * j + (-1,) + (1,) * (dim - 1 - j))
          for j in range(dim)]
    expect = np.asarray(f.terms[0][0](zs[0]))
    for fj, z in zip(f.terms[0][1:], zs[1:]):
        expect = expect * fj(z)
    assert f(*zs).tobytes() == expect.tobytes()
    radii = np.array([[0.5] * dim, [0.9] * dim, [0.7, 0.95, 0.6][:dim]])
    angular = (16, 12, 8)[:dim]
    fast = torus_integrals(f, radii, angular)
    hidden = torus_integrals(lambda *z: f(*z), radii, angular)
    assert np.max(np.abs(fast - hidden) / np.abs(hidden)) <= 1e-13


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_density_differences_are_exact(dim):
    # f - q written as f + (-q_1) q_2 ... q_n is f - q bit for bit:
    # negation commutes with every rounding.  It holds its two terms in
    # every dimension
    f = product_entry((default_registry().get("fa-0.9"),) * dim)
    q = [dilate_truncate(s, 0.875, 12) for s in f.factors]
    diff = density_difference(f, q)
    zs = [PTS.reshape((1,) * j + (-1,) + (1,) * (dim - 1 - j))
          for j in range(dim)]
    expect = np.asarray(f.evaluator(*zs)) - sum_of_products([q])(*zs)
    assert diff(*zs).tobytes() == expect.tobytes()
    assert len(diff.terms) == 2


def test_entries_are_products_of_power_series():
    # an entry is a name and its one-variable series; the rest is derived,
    # and the evaluator is built once
    assert [f.name for f in dataclasses.fields(RegistryEntry)] == \
        ["name", "factors"]
    reg = default_registry()
    fa09, prod = reg.get("fa-0.9"), reg.get("prod-fa-0.9")
    assert fa09.evaluator is fa09.factors[0] and fa09.dim == 1
    assert prod.evaluator is prod.evaluator and prod.dim == 2
    assert prod.factors == (fa09.factors[0],) * 2
    for factors in ((), (lambda z: z,), (geometric_series(), 1.0)):
        with pytest.raises(TypeError, match="PowerSeries"):
            RegistryEntry("g", factors)


def test_conjugate_symmetry_is_declared_exactly_for_real_coefficients():
    # an entry, its S_N, its tail and its density difference declare
    # f(conj z) = conj f(z) exactly when their coefficients are real: every
    # factor's first 64, or for the tail those above N, and _abs_power
    # turns that into the integrand flag; the seeded complex polynomials
    # declare nothing, but their tails above their degree are zero
    reg = default_registry()
    for entry in reg.entries():
        real = all(not np.any(s.coefficients(63).imag)
                   for s in entry.factors)
        assert entry.conj_symmetric is real
        q = [dilate_truncate(s, 0.75, 6) for s in entry.factors]
        tail_real = all(not np.any(s.coefficients(63)[9:].imag)
                        for s in entry.factors)
        assert _tail_declared(entry, 8) is tail_real
        for f, conj in ((entry.evaluator, real),
                        (entry.partial_evaluator(8), real),
                        (entry.tail_evaluator(8), tail_real),
                        (density_difference(entry, q), real)):
            assert f.conj_symmetric is conj, entry.name
            assert _abs_power(f, 1.0).conj_even is conj, entry.name
    for name in ("poly-3", "poly-7", "poly-12"):
        assert not reg.get(name).conj_symmetric


def test_split_closed_forms_declare_through_a_wrapper():
    # T1T2Split declares conj_symmetric for real a, so a wrapper of any of
    # its four bound methods takes it, nested wrappers too, and for complex
    # a nothing; the estimators read the wrapper, never a bare bound
    # method's object
    for a, real in ((0.9, True), (0.0, True), (-0.5, True), (0.5j, False),
                    (0.3 + 0.4j, False)):
        split = T1T2Split(a, 8)
        assert split.conj_symmetric is real
        for fn in (split.partial, split.t1, split.t2, split.tail):
            wrapped = TaggedEvaluator(fn, abs(a))
            assert wrapped.conj_symmetric is real
            assert TaggedEvaluator(wrapped).conj_symmetric is real
            assert _abs_power(wrapped, 1.0).conj_even is real
            assert not _abs_power(fn, 1.0).conj_even
    t1 = T1T2Split(0.9, 8).t1
    assert not TaggedEvaluator(lambda z: t1(z), 0.9).conj_symmetric
    # a series' own S_N and tail carry the split's declaration
    for a in (0.9, 0.5j):
        s = fa_series(a)
        assert TaggedEvaluator(s.partial(8)).conj_symmetric is \
            s.conj_symmetric
        assert TaggedEvaluator(s.tail(8)).conj_symmetric is s.conj_symmetric


def test_power_series_and_wrappers_declare_conjugate_symmetry():
    # a coefficient list derives it, a generator takes the keyword, f_a
    # declares it for real a, and a wrapper of a callable that declares
    # nothing is off
    assert PowerSeries.from_coefficients([1.0, -2.0, 0.5]).conj_symmetric
    assert not PowerSeries.from_coefficients([1.0, 0.5j]).conj_symmetric
    assert not PowerSeries.from_coefficients(
        [1.0, 0.5j], conj_symmetric=True).conj_symmetric
    assert not geometric_series().conj_symmetric
    assert PowerSeries.from_generator(lambda k: 1.0,
                                      conj_symmetric=True).conj_symmetric
    assert fa_series(0.9).conj_symmetric and fa_series(0.0).conj_symmetric
    assert not fa_series(0.5j).conj_symmetric
    assert not RegistryEntry("g", (fa_series(0.5j),)).partial_evaluator(
        4).conj_symmetric
    assert not TaggedEvaluator(lambda z: z, 0.0).conj_symmetric
