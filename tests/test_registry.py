import numpy as np
import pytest

from hardylab.norms import hardy_norm_reinhardt
from hardylab.registry import (RegistryEntry, TaggedEvaluator,
                               default_registry, fa_entry, monomial_entry,
                               polynomial_entry, product_entry)
from hardylab.reinhardt import polydisc
from hardylab.series import PowerSeries, partial_sum

RNG = np.random.default_rng(5150)
PTS = RNG.uniform(-0.65, 0.65, 12) + 1j * RNG.uniform(-0.65, 0.65, 12)


def undeclared_entry():
    """1/(1 - z) with no spike tag: its pole sits on the rim."""
    return RegistryEntry("u", 1, lambda z: 1 / (1 - z))


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
    c1 = r1.get("poly-7").series.coefficients(7)
    c2 = r2.get("poly-7").series.coefficients(7)
    c3 = r3.get("poly-7").series.coefficients(7)
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
        slow = partial_sum(ent.series, N)(PTS)
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


def test_generic_square_partial_on_finite_series():
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
    geometric = RegistryEntry("g", 1, lambda z: 1 / (1 - z),
                              series=PowerSeries.from_generator(lambda k: 1.0))
    assert geometric.partial_evaluator(3).spike is None


def test_product_with_an_undeclared_factor_is_refused():
    # a factor that declares no spike keeps its None in the product, which
    # then has no Hardy norm the estimator can integrate on the torus
    reg = default_registry()
    prod = product_entry((reg.get("fa-0.5"), undeclared_entry()))
    assert prod.spike == (0.5, None)
    with pytest.raises(ValueError, match="spike="):
        hardy_norm_reinhardt(prod.evaluator, 1.0, polydisc(2),
                             spike=prod.spike)


def test_polynomial_entries_are_declared_entire():
    reg = default_registry()
    for name in ("const-1", "mono-1", "poly-7", "mono2-1-2"):
        assert reg.get(name).spike == 0.0
    assert undeclared_entry().spike is None


def test_tagged_evaluator_passthrough():
    tag = TaggedEvaluator(lambda z: 2 * z, 0.5)
    assert tag(3.0) == 6.0
    assert tag.spike == 0.5


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
