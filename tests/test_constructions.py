"""Products, homomorphisms, substructures, and fixture plumbing."""

import pytest

import hyperlab as H

from conftest import mutated


class TestProducts:
    def test_arity_mismatch_rejected(self, madar, z4):
        with pytest.raises(H.ArityError):
            H.product(madar, z4)

    def test_product_matches_fixture(self, z2z3):
        z2 = H.fixture("ring:Z2").structure
        z3 = H.fixture("ring:Z3").structure
        built = H.product(z2, z3)
        assert built == z2z3
        assert built.names == ("0|0", "0|1", "0|2", "1|0", "1|1", "1|2")
        assert built.zero == 0
        assert built.names[built.one] == "1|1"

    def test_product_lattice_is_componentwise(self):
        z4 = H.fixture("ring:Z4").structure
        z3 = H.fixture("ring:Z3").structure
        prod = H.fixture("ring:Z4xZ3").structure
        lat = H.enumerate_hyperideals(prod)
        expected = {
            H.product_ideal(z4, z3, q1, q2).mask
            for q1 in H.enumerate_hyperideals(z4)
            for q2 in H.enumerate_hyperideals(z3)
        }
        assert {q.mask for q in lat} == expected

    def test_invalid_factor_caught_by_revalidation(self, z6):
        broken = mutated(z6, g_key=(2, 3), g_value=1)
        z2 = H.fixture("ring:Z2").structure
        built = H.product(broken, z2)
        assert built.size == 12
        violations = H.check_krasner(built)
        assert violations
        for v in violations:
            assert H.replay(built, v)

    def test_madar_square_is_valid(self, madar):
        square = H.product(madar, madar)
        assert square.size == 16
        assert H.check_krasner(square) == []

    def test_product_mult_set(self, z4):
        z3 = H.fixture("ring:Z3").structure
        s = H.product_ideal(z4, z3, z4.subset([1, 3]), z3.subset([1]))
        prod = H.fixture("ring:Z4xZ3").structure
        assert s.render(prod.names) == "{1|1,3|1}"


class TestHomomorphisms:
    @pytest.mark.parametrize("j,k", [(2, 3), (4, 3)])
    def test_crt_is_an_isomorphism(self, j, k):
        h = H.crt_homomorphism(j, k)
        assert h.is_homomorphism()
        assert h.is_injective()
        assert h.image().mask == h.target.full_set().mask

    def test_identity_homomorphism(self, z6):
        h = H.identity_homomorphism(z6)
        assert h.is_homomorphism() and h.is_injective()

    def test_preimages_are_hyperideals(self, z12):
        h = H.crt_homomorphism(4, 3)
        for q2 in H.enumerate_hyperideals(h.target):
            pre = H.preimage_ideal(h, q2)
            assert H.is_hyperideal(h.source, pre).holds

    def test_crt_preimage_frozen(self):
        h = H.crt_homomorphism(2, 3)
        target = h.target
        evens = H.preimage_ideal(h, target.subset([0, 1, 2]))
        assert evens.render(h.source.names) == "{0,2,4}"

    def test_mapping_validation(self, z6, ex33):
        with pytest.raises(H.ArityError):
            H.Homomorphism(z6, ex33, (0,) * z6.size)
        with pytest.raises(ValueError):
            H.Homomorphism(z6, z6, (0, 1))

    def test_map_set(self, z6):
        h = H.crt_homomorphism(2, 3)
        got = h.map_set(z6.subset([1, 5]))
        assert got.render(h.target.names) == "{1|1,1|2}"


class TestSubstructures:
    def test_identity_detection(self, z6):
        sub = H.substructure(z6, z6.subset([0, 2, 4]))
        assert sub.names == ("0", "2", "4")
        assert sub.names[sub.one] == "4"
        assert H.check_krasner(sub) == []

    def test_no_identity_detected(self, z4):
        sub = H.substructure(z4, z4.subset([0, 2]))
        assert sub.one is None

    def test_inclusion_preserves_operations(self, z6):
        sub = H.substructure(z6, z6.subset([0, 2, 4]))
        incl = H.inclusion(sub, z6)
        # the detected identity 4 maps to a non-identity of the parent,
        # every table entry still commutes with the map
        assert incl.violations() == ["identity is not preserved"]
        assert not incl.identity_incomplete()

    def test_closure_required(self, z6):
        with pytest.raises(H.TableError):
            H.substructure(z6, z6.subset([0, 1]))
        with pytest.raises(H.TableError):
            H.substructure(z6, z6.subset([1, 2]))


class TestFixtures:
    def test_designated_data(self):
        fx = H.fixture("paper-2-4")
        assert fx.canonical
        assert fx.ideal.render(fx.structure.names) == "{0}"
        assert fx.mult_set.render(fx.structure.names) == "{2,3}"

    def test_discrepancy_notes(self):
        fx = H.fixture("paper-3-3")
        assert not fx.canonical
        assert any("meets" in note for note in fx.notes)
        assert any("distributivity" in note for note in fx.notes)

    def test_repaired_variant(self):
        fx = H.fixture("paper-3-3-s1")
        assert fx.structure == H.fixture("paper-3-3").structure
        assert fx.mult_set.render(fx.structure.names) == "{1}"
        assert not fx.canonical

    def test_ring_names(self):
        z5 = H.fixture("ring:Z5").structure
        assert z5.names == ("0", "1", "2", "3", "4")
        assert H.check_krasner(z5) == []

    def test_unknown_names_rejected(self):
        for bad in ("bogus", "ring:Z1", "ring:Z65", "ring:Z9xZ9",
                    "ring:Z\u0663", "ring:Z3xZ\u0662", "ring:Z3\n",
                    "ring:Z" + "9" * 5000, "ring:Z06", "ring:Z007",
                    "ring:Z02xZ3"):
            with pytest.raises(H.UnknownFixtureError):
                H.fixture(bad)
        # a leading zero is not a ring size, so Z0 is no name at all
        with pytest.raises(H.UnknownFixtureError, match="unknown fixture"):
            H.fixture("ring:Z0")

    def test_fixture_cache(self):
        # no cache: each call builds an equal fixture of its own
        first, second = H.fixture("ring:Z6"), H.fixture("ring:Z6")
        assert first == second and first is not second

    def test_product_fixture_records_factors(self):
        fx = H.fixture("ring:Z4xZ3")
        assert fx.factors == (H.fixture("ring:Z4"), H.fixture("ring:Z3"))
