"""Prime-type predicates: frozen verdicts, error contracts, and
randomized agreement with independent oracles."""

import inspect
import itertools
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

import hyperlab as H
from hyperlab.predicates import CLASSIFY_KEYS, IGNORES_S, PREDICATES

from conftest import BENCH_CORPUS, SMALL_FIXTURES, multiplicative_by_search


class TestDesignatedExampleReproduction:
    def test_prime_counterexample_is_exact(self, madar):
        verdict = H.is_prime(madar, madar.subset([0]))
        assert verdict.holds is False
        assert verdict.counterexample == (1, 1, 2, 3)

    def test_weakly_s_prime_holds_vacuously(self, madar):
        verdict = H.is_weakly_s_prime(
            madar, madar.subset([0]), madar.subset([2, 3]))
        assert verdict.holds is True
        assert verdict.note == "vacuously true"
        assert verdict.witness_s is None

    def test_s_prime_needs_identity(self, madar):
        with pytest.raises(H.IdentityRequired):
            H.is_s_prime(madar, madar.subset([0]), madar.subset([2, 3]))


class TestFrozenVerdicts:
    def test_z4_family(self, z4, lattices):
        q, s = z4.subset([0]), z4.subset([1])
        lat = lattices[z4.label]
        assert H.is_s_prime(z4, q, s).counterexample == (2, 2)
        assert H.is_weakly_s_prime(z4, q, s).holds is True
        assert H.is_strongly_weakly_s_prime(z4, q, s, lat).holds is True
        assert H.is_strongly_weakly_s_prime_colon(z4, q, s).holds is True
        assert H.is_primary(z4, q, lat).holds is True

    def test_z6_family(self, z6, lattices):
        lat = lattices[z6.label]
        assert H.is_primary(z6, z6.subset([0]), lat).counterexample == (2, 3)
        assert H.is_weakly_prime(z6, z6.subset([0])).holds is True
        assert H.is_prime(z6, z6.subset([0, 3])).holds is True
        verdict = H.is_strongly_weakly_s_prime(
            z6, z6.subset([0, 3]), z6.subset([1]), lat)
        assert verdict.holds is True and verdict.witness_s == 1

    def test_z12_strongly_weakly_counterexample(self, z12, lattices):
        lat = lattices[z12.label]
        verdict = H.is_strongly_weakly_s_prime(
            z12, z12.subset([0, 6]), z12.subset([1]), lat)
        assert verdict.holds is False
        assert verdict.counterexample == (3, 4)
        assert [lat[i].render(z12.names) for i in verdict.counterexample] == [
            "{0,3,6,9}", "{0,2,4,6,8,10}"]
        colon_route = H.is_strongly_weakly_s_prime_colon(
            z12, z12.subset([0, 6]), z12.subset([1]))
        assert colon_route.holds is False

    def test_ideal_level_counterexample_renders_ideals(self):
        a = H.fixture("ring:Z2xZ4").structure
        lat = H.enumerate_hyperideals(a)
        verdict = H.is_strongly_weakly_s_prime(
            a, a.subset([a.index_of("0|0"), a.index_of("0|2")]),
            a.subset([a.index_of("1|1")]), lat)
        assert verdict.counterexample == (3, 4)
        assert verdict.ideals == (lat[3], lat[4])
        assert verdict.render(a.names) == (
            "false counterexample=({0|0,0|1,0|2,0|3},{0|0,0|2,1|0,1|2}) "
            "(counterexample holds hyperideal indices)")

    def test_z12_weakly_prime(self, z12):
        assert H.is_weakly_prime(z12, z12.subset([0, 6])).counterexample == (2, 3)
        assert H.is_prime(z12, z12.subset([0])).counterexample == (2, 6)


class TestPreconditions:
    def test_disjointness(self, z6):
        with pytest.raises(H.DisjointnessViolated):
            H.is_weakly_s_prime(z6, z6.subset([0, 3]), z6.subset([3]))

    def test_empty_mult_set(self, z6):
        with pytest.raises(H.EmptyArgumentError):
            H.is_s_prime(z6, z6.subset([0]), z6.subset([]))

    def test_not_proper(self, z6):
        with pytest.raises(H.NotProper):
            H.is_prime(z6, z6.full_set())

    def test_identity_lazy_for_weakly_prime(self, madar):
        # no qualifying tuple, so the missing identity is never needed
        assert H.is_weakly_prime(madar, madar.subset([0])).holds is True

    def test_capacity_budget(self, z12, lattices):
        with pytest.raises(H.CapacityError):
            H.is_strongly_weakly_s_prime(
                z12, z12.subset([0]), z12.subset([1]),
                replace(lattices[z12.label], budget=1))

    def test_budget_gate_comes_before_the_product_table(self, z12):
        lattice = replace(H.enumerate_hyperideals(z12), budget=1)
        q, s = z12.subset([0]), z12.subset([1])
        with pytest.raises(H.CapacityError):
            H.is_strongly_weakly_s_prime(z12, q, s, lattice)
        with pytest.raises(H.CapacityError):
            H.strongly_associated(z12, q, 1, lattice)
        assert "products" not in vars(lattice)
        lattice = replace(lattice, budget=None)
        H.strongly_associated(z12, q, 1, lattice)
        assert len(vars(lattice)["products"]) == 21  # C(6 + 1, 2) index pairs


class TestClassify:
    def test_record_keys(self, z4, lattices):
        record = H.classify(z4, z4.subset([0]), z4.subset([1]),
                            lattices[z4.label])
        assert tuple(record) == CLASSIFY_KEYS

    def test_unevaluable_folds_to_none(self, madar, lattices):
        record = H.classify(madar, madar.subset([0]), madar.subset([2, 3]),
                            lattices[madar.label])
        assert record["s-prime"].holds is None
        assert "identity" in record["s-prime"].note
        assert record["weakly-s-prime"].holds is True
        assert record["strongly-weakly-s-prime"].holds is True

    def test_disjointness_is_the_only_gate(self, z6, lattices):
        with pytest.raises(H.DisjointnessViolated):
            H.classify(z6, z6.subset([0, 3]), z6.subset([3]),
                       lattices[z6.label])

    def test_chain_violations_empty_on_sample(self, z12, lattices):
        record = H.classify(z12, z12.subset([0, 6]), z12.subset([1]),
                            lattices[z12.label])
        assert H.chain_violations(record) == []

    def test_the_lattice_carries_the_ideal_scan_budget(self, z12, lattices):
        q, s = z12.subset([0]), z12.subset([1])
        tight = replace(lattices[z12.label], budget=1)
        message = "6^2 ideal tuples exceed the scan budget 1"
        record = H.classify(z12, q, s, tight)
        assert record["strongly-weakly-s-prime"] == H.Verdict(None, note=f"capacity: {message}")
        with pytest.raises(H.CapacityError) as raised:
            H.strongly_associated(z12, q, 1, tight)
        assert str(raised.value) == message
        unlimited = H.classify(z12, q, s, lattices[z12.label])
        assert {k: v for k, v in record.items() if k != "strongly-weakly-s-prime"} \
            == {k: v for k, v in unlimited.items() if k != "strongly-weakly-s-prime"}
        for fn in (*PREDICATES.values(), H.classify, H.evaluate_predicate):
            assert "budget" not in inspect.signature(fn).parameters


def walk_inputs():
    """Small fixtures, the benchmark structures and their factors, seeded
    g-mutants, and 21-element tables whose g is min, max, 1 or 0."""
    names = dict.fromkeys([*SMALL_FIXTURES, *BENCH_CORPUS])
    for name in BENCH_CORPUS:
        names.update(dict.fromkeys(f.name for f in H.fixture(name).factors or ()))
    for name in names:
        yield H.fixture(name).structure
    for name in ("paper-2-4", "paper-3-3", "ring:Z6", "ring:Z12", "ring:Z2xZ4"):
        base, rng = H.fixture(name).structure, random.Random(name)
        for _ in range(20):
            g_entries = dict(base.g_table)
            for _ in range(rng.randint(1, 3)):
                g_entries[rng.choice(sorted(g_entries))] = rng.randrange(base.size)
            yield H.HyperStructure.from_tables(
                base.m, base.n, base.names, {k: tuple(v) for k, v in base.f_table.items()},
                g_entries, base.zero, base.one, label=f"{name}-g-mutant")
    z21 = H.fixture("ring:Z21").structure
    f_entries = {k: tuple(v) for k, v in z21.f_table.items()}
    for label, g in (("min", min), ("max", max), ("one", lambda ms: 1),
                     ("zero", lambda ms: 0)):
        yield H.HyperStructure.from_tables(
            2, 2, z21.names, f_entries, {ms: g(ms) for ms in z21.g_table}, 0, None,
            label=f"Z21-{label}")


class TestMultiplicativeSets:
    def test_frozen_pools(self, madar, z4):
        assert [s.render(madar.names) for s in
                H.multiplicative_subsets(madar, 3)] == ["{2}", "{2,3}"]
        assert [s.render(z4.names) for s in
                H.multiplicative_subsets(z4, 3)] == ["{1}", "{1,3}"]

    def test_closure_walk_equals_the_subset_search(self):
        # every cap from 0 to 4: the search at cap 4, cut by size
        for a in walk_inputs():
            searched = [s.mask for s in multiplicative_by_search(a, 4)]
            for k in range(5):
                expected = [m for m in searched if m.bit_count() <= k]
                assert [s.mask for s in H.multiplicative_subsets(a, k)] == expected, (a.label, k)

    def test_closure_counterexample(self, z4):
        verdict = H.is_multiplicative(z4, z4.subset([2]))
        assert verdict.holds is False
        assert verdict.counterexample == (2, 2)


def naive_s_flavour(a, q, s, weakly):
    """Direct restatement over ordered tuples, independent padding logic."""
    best = None
    for cand in sorted(s):
        ok = True
        for args in itertools.product(range(a.size), repeat=a.n):
            value = a.eval_g(args)
            if value not in q or (weakly and value == a.zero):
                continue
            hit = False
            for x in args:
                if a.n == 2:
                    scaled = a.eval_g((cand, x))
                else:
                    scaled = a.eval_g((cand, x) + (a.one,) * (a.n - 2))
                if scaled in q:
                    hit = True
                    break
            if not hit:
                ok = False
                break
        if ok:
            best = cand
            break
    return best


class TestRandomizedAgreement:
    @settings(max_examples=60, derandomize=True)
    @given(st.sampled_from(["ring:Z4", "ring:Z6", "ring:Z12"]), st.data())
    def test_element_scan_matches_naive(self, name, data):
        a = H.fixture(name).structure
        lattice = H.enumerate_hyperideals(a)
        q = data.draw(st.sampled_from(lattice.proper()))
        pool = [s for s in H.multiplicative_subsets(a, 3) if q.isdisjoint(s)]
        if not pool:
            return
        s = data.draw(st.sampled_from(pool))
        weakly = data.draw(st.booleans())
        fn = H.is_weakly_s_prime if weakly else H.is_s_prime
        verdict = fn(a, q, s)
        expected = naive_s_flavour(a, set(q), set(s), weakly)
        assert verdict.holds is (expected is not None)
        if verdict.holds and verdict.witness_s is not None:
            assert verdict.witness_s == expected

    @settings(max_examples=60, derandomize=True)
    @given(st.sampled_from(["ring:Z4", "ring:Z6", "ring:Z12", "ring:Z2xZ3"]),
           st.data())
    def test_strongly_routes_agree(self, name, data):
        a = H.fixture(name).structure
        lattice = H.enumerate_hyperideals(a)
        q = data.draw(st.sampled_from(lattice.proper()))
        pool = [s for s in H.multiplicative_subsets(a, 3) if q.isdisjoint(s)]
        if not pool:
            return
        s = data.draw(st.sampled_from(pool))
        direct = H.is_strongly_weakly_s_prime(a, q, s, lattice)
        via_colon = H.is_strongly_weakly_s_prime_colon(a, q, s)
        assert direct.holds == via_colon.holds

    @settings(max_examples=40, derandomize=True)
    @given(st.sampled_from(["ring:Z4", "ring:Z6", "ring:Z12"]), st.data())
    def test_negative_verdicts_replay(self, name, data):
        a = H.fixture(name).structure
        lattice = H.enumerate_hyperideals(a)
        q = data.draw(st.sampled_from(lattice.proper()))
        pool = [s for s in H.multiplicative_subsets(a, 3) if q.isdisjoint(s)]
        if not pool:
            return
        s = data.draw(st.sampled_from(pool))
        verdict = H.is_weakly_s_prime(a, q, s)
        if verdict.holds or verdict.counterexample is None:
            return
        ms = verdict.counterexample
        value = a.eval_g(ms)
        assert value in q and value != a.zero
        for cand in s:
            assert all(H.scaled(a, cand, x) not in q for x in set(ms))


def test_hyperintegral_domain(z6, z2z3):
    assert H.is_hyperintegral_domain(z6).counterexample == (2, 3)
    assert H.is_hyperintegral_domain(
        H.fixture("ring:Z3").structure).holds is True
    assert H.is_hyperintegral_domain(z2z3).holds is False


def test_evaluate_predicate_dispatch(z4, lattices):
    lat = lattices[z4.label]
    q, s = z4.subset([0]), z4.subset([1])
    for key in CLASSIFY_KEYS:
        verdict = H.evaluate_predicate(key, z4, q, s, lat)
        assert verdict.holds in (True, False)
    with pytest.raises(ValueError):
        H.evaluate_predicate("bogus", z4, q, s, lat)


def test_ignores_s_names_the_predicates_that_run_without_s(z12, lattices):
    # a predicate that reads S rejects a missing one; the others give the
    # same verdict for every S
    lat = lattices[z12.label]
    without_s = {}
    for name, predicate in PREDICATES.items():
        try:
            without_s[name] = [predicate(z12, q, None, lat) for q in lat.proper()]
        except H.EmptyArgumentError:
            pass
    assert set(without_s) == IGNORES_S
    for name in IGNORES_S:
        for s in H.multiplicative_subsets(z12, 3):
            assert [PREDICATES[name](z12, q, s, lat)
                    for q in lat.proper()] == without_s[name], (name, s)
