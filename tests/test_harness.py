"""Statement suite: instance generation, statuses, and report rendering."""

import functools
import inspect
import json

import pytest

import hyperlab as H
import hyperlab.harness as harness
import hyperlab.predicates as predicates
from hyperlab import core
from hyperlab.cli import main

from conftest import BENCH_CORPUS, multiplicative_by_search, mutated


def by_property(reports, pid):
    return [r for r in reports if r.property_id == pid]


class TestDefaultSuite:
    def test_no_counterexamples(self, default_suite):
        bad = [r for r in default_suite if r.status == H.COUNTEREXAMPLE]
        assert bad == []

    def test_every_property_exercised(self, default_suite):
        for pid in H.PROPERTY_IDS:
            statuses = {r.status for r in by_property(default_suite, pid)}
            assert H.VERIFIED in statuses, f"{pid} never verified"

    def test_axiom_records_per_structure(self, default_suite):
        axioms = by_property(default_suite, "AXIOMS")
        assert [r.instance for r in axioms] == list(H.DEFAULT_CORPUS)
        assert all(r.status == H.VERIFIED for r in axioms)

    def test_summary_counts_are_consistent(self, default_suite):
        counts = H.summarize(default_suite)
        assert counts["total"] == len(default_suite)
        assert counts["total"] == (counts["verified"]
                                   + counts["counterexamples"]
                                   + counts["skipped"])

    def test_product_split_instances(self, default_suite):
        p17 = by_property(default_suite, "P17")
        assert len(p17) > 0
        assert all(r.status == H.VERIFIED for r in p17)

    def test_field_like_factor_statuses(self, default_suite):
        p19 = by_property(default_suite, "P19")
        verified = [r for r in p19 if r.status == H.VERIFIED]
        assert len(verified) == 6
        assert all(r.instance.startswith("ring:Z2xZ3") for r in verified)
        z4z3 = [r for r in p19 if r.instance.startswith("ring:Z4xZ3")]
        assert all(r.status == H.SKIPPED for r in z4z3)


class TestGeneration:
    def test_generation_is_deterministic(self):
        corpus = H.build_corpus(("ring:Z6",))
        first = H.generate_instances("P2", corpus)
        second = H.generate_instances("P2", corpus)
        assert [i.description for i in first] == \
            [i.description for i in second]

    def test_unknown_property_id(self):
        with pytest.raises(ValueError):
            H.generate_instances("P99", [])

    def test_run_property_roundtrip(self):
        corpus = H.build_corpus(("ring:Z4",))
        inst = H.generate_instances("P2", corpus)[0]
        report = H.run_property("P2", inst)
        assert report.property_id == "P2"
        assert report.status in (H.VERIFIED, H.SKIPPED)

    def test_non_canonical_structures_generate_nothing(self):
        corpus = H.build_corpus(("paper-3-3",))
        for pid in H.PROPERTY_IDS:
            assert H.generate_instances(pid, corpus) == []


class TestStatusEdges:
    def test_discrepancy_fixture_suite(self):
        reports = H.run_suite(("paper-3-3",))
        assert {r.status for r in reports} == {H.SKIPPED}
        ids = [r.property_id for r in reports]
        assert ids.count("DISCREPANCY") == 3
        axioms = by_property(reports, "AXIOMS")[0]
        assert axioms.certificate[0]["axiom"] == "DISTRIB"

    def test_broken_canonical_structure_is_a_counterexample(self, z6):
        broken = mutated(z6, g_key=(2, 3), g_value=1)
        fx = harness.Fixture("broken-z6", broken)
        ctx = harness.StructureContext(
            fx, tuple(H.check_krasner(broken)), None,
            "structure fails the validity scan", ())
        report = harness._axiom_report(ctx)
        assert report.status == H.COUNTEREXAMPLE
        assert report.certificate and "axiom" in report.certificate[0]

    def test_budget_skips_instead_of_crashing(self):
        reports = H.run_suite(("ring:Z4",), budget=1)
        assert not any(r.status == H.COUNTEREXAMPLE for r in reports)
        skipped = [r for r in reports if "budget exceeded" in r.reason]
        assert skipped
        assert {r.property_id for r in skipped} <= set(H.PROPERTY_IDS)

    def test_p6_respects_the_ideal_scan_budget(self):
        reports = H.run_suite(["ring:Z12"], budget=1, property_ids=("P6", "P8"))
        p6, p8 = by_property(reports, "P6"), by_property(reports, "P8")
        assert len(p6) == len(p8) == 67
        assert {(r.status, r.reason) for r in p6} == {(r.status, r.reason) for r in p8}
        assert p6[0].reason.startswith("budget exceeded: 6^2 ideal tuples")

    def test_carrier_above_twenty_elements_gets_a_lattice(self):
        reports = H.run_suite(("ring:Z24",), property_ids=("P1",))
        axioms = by_property(reports, "AXIOMS")[0]
        assert (axioms.status, axioms.reason) == (H.VERIFIED, "validity scan clean")
        assert by_property(reports, "P1")
        assert not any(r.status == H.COUNTEREXAMPLE for r in reports)

    def test_triple_over_the_carrier_cap_is_skipped(self):
        reports = H.run_suite(["ring:Z5xZ3"], property_ids=("P18",))
        p18 = by_property(reports, "P18")
        assert p18 and {r.status for r in p18} == {H.SKIPPED}
        assert all("64-element cap" in r.reason for r in p18)

    def test_product_triples_are_valid(self, corpus):
        # products are built without a scan; this is their oracle
        triples = [ctx.triple for ctx in corpus if ctx.factors]
        assert [t.size for t in triples] == [12, 48]
        for triple in triples:
            assert H.check_krasner(triple) == []


def counting(monkeypatch, name):
    """Rebind predicates.<name> to a wrapper that records each call's (Q, S).

    The ``PREDICATES`` registry looks the function up there at call time,
    so the wrapper sees every question ``_verdict`` asks."""
    original = getattr(predicates, name)
    asked = []

    @functools.wraps(original)
    def wrapper(a, q, s=None, *rest):
        asked.append((q.mask, s and s.mask))
        return original(a, q, *(() if s is None else (s,)), *rest)

    monkeypatch.setattr(predicates, name, wrapper)
    return asked


class TestVerdictMemo:
    def test_reports_equal_a_run_without_the_memo(self, monkeypatch):
        memoised = H.run_suite(["ring:Z2xZ4"])

        def undecided(ctx, name, q, s=None):
            return H.evaluate_predicate(name, ctx.structure, q, s, ctx.lattice)

        monkeypatch.setattr(harness, "_verdict", undecided)
        assert H.run_suite(["ring:Z2xZ4"]) == memoised

    def test_a_repeated_question_is_not_asked_again(self, monkeypatch):
        asked = counting(monkeypatch, "is_weakly_s_prime")
        corpus = H.build_corpus(["ring:Z12"])
        instances = H.generate_instances("P2", corpus)
        for inst in instances:
            H.run_property("P2", inst)
        # every P2 instance asks about its (Q, S) and about Q meet P
        assert len(asked) == len(set(asked)) < 2 * len(instances)
        ctx, q, s = corpus[0], instances[0].payload["q"], instances[0].payload["s"]
        first = harness._verdict(ctx, "weakly-s-prime", q, s)
        assert harness._verdict(ctx, "weakly-s-prime", q, s) is first
        assert asked.count((q.mask, s.mask)) == 1

    def test_the_ideal_level_question_reads_the_context_budget(self, monkeypatch):
        asked = counting(monkeypatch, "is_strongly_weakly_s_prime")
        tight = H.build_context("ring:Z12", budget=1)
        q, s = tight.lattice[0], tight.mult_sets[0]
        for _ in range(2):
            with pytest.raises(H.CapacityError):
                harness._verdict(tight, "strongly-weakly-s-prime", q, s)
        assert len(asked) == 2 and not tight.verdicts
        ctx = H.build_context("ring:Z12")
        verdict = harness._verdict(ctx, "strongly-weakly-s-prime", q, s)
        assert harness._verdict(ctx, "strongly-weakly-s-prime", q, s) is verdict
        assert len(asked) == 3 and len(ctx.verdicts) == 1

    def test_the_embedding_statement_asks_through_the_memo(self, monkeypatch):
        # the identity map's preimage question is its target question
        asked = counting(monkeypatch, "is_weakly_s_prime")
        reports = H.run_suite(["ring:Z6"], property_ids=("P15",))
        assert len(reports) > 1 and asked
        assert len(asked) == len(set(asked))

    def test_raising_calls_are_not_memoised(self, monkeypatch):
        asked = counting(monkeypatch, "is_s_prime")
        ctx = H.build_context("ring:Z6")
        q, s = ctx.structure.subset([0, 3]), ctx.structure.subset([3])
        for _ in range(2):
            with pytest.raises(H.DisjointnessViolated):
                harness._verdict(ctx, "s-prime", q, s)
        assert len(asked) == 2 and not ctx.verdicts

    def test_the_harness_asks_registry_predicates_only_through_it(self):
        # P16 and P18 ask is_weakly_s_prime on structures with no context
        named = {n for f in predicates.PREDICATES.values() for n in f.__code__.co_names}
        assert named & set(vars(harness)) <= {"is_weakly_s_prime"}


def test_evaluators_take_exactly_their_payload():
    # P7 and P9 share an evaluator whose S is optional: every parameter is
    # filled by some payload, and no payload holds what its evaluator lacks
    corpus = H.build_corpus(["ring:Z6", "ring:Z4xZ3"])
    filled = {}
    for pid, (_, evaluate) in harness.STATEMENTS.items():
        params = set(inspect.signature(evaluate).parameters)
        instances = H.generate_instances(pid, corpus)
        assert instances, pid
        for inst in instances:
            assert set(inst.payload) <= params, pid
            filled.setdefault(evaluate, set()).update(inst.payload)
    for evaluate, keys in filled.items():
        assert keys == set(inspect.signature(evaluate).parameters), evaluate.__name__


def test_a_corpus_prepares_each_fixture_and_cap_once(monkeypatch):
    # the 14 benchmark structures hold 19 distinct (fixture, cap) pairs;
    # ring:Z2, ring:Z3 and ring:Z4 are factors of 6, 4 and 2 of them
    prepared = []
    prepare = harness._prepare

    def counting(fx, mult_cap, *rest):
        prepared.append((fx.name, mult_cap))
        return prepare(fx, mult_cap, *rest)

    monkeypatch.setattr(harness, "_prepare", counting)
    corpus = H.build_corpus(BENCH_CORPUS)
    assert len(prepared) == len(set(prepared)) == 19
    by_name = {ctx.name: ctx for ctx in corpus}
    assert by_name["ring:Z2xZ3"].factors[0] is by_name["ring:Z2xZ8"].factors[0]


def test_a_theorems_call_walks_the_g_table_once_per_structure_and_mask(monkeypatch, capsys):
    # the element-level predicates ask 2,333 times for the g-table entries
    # valued in a mask, on 184 distinct (structure, mask) pairs
    walks = []

    class Table(dict):
        def items(self):
            walks.append(len(self))
            return super().items()

    init = core.Translations.__init__

    def counting(self, a):
        init(self, a)
        self.g_table = Table(self.g_table)

    monkeypatch.setattr(core.Translations, "__init__", counting)
    assert main(["theorems", "--json", "--corpus", ",".join(BENCH_CORPUS)]) == 0
    capsys.readouterr()
    assert len(walks) == 184
    rows = H.fixture("ring:Z6").structure.translations
    assert isinstance(rows.support_rows(0b1), tuple)
    assert rows.support_rows(0b1) is rows.support_rows(0b1)


def p16_oracle(corpus):
    """P16's instances as generated before: the multiplicative sets of each
    substructure C, searched in C itself."""
    for ctx in corpus:
        if not ctx.usable:
            continue
        a = ctx.structure
        for c in ctx.lattice.proper():
            if c.mask == 1 << a.zero:
                continue
            sub = H.substructure(a, c, label=f"{ctx.name}[{c.render(a.names)}]")
            incl = H.inclusion(sub, a)
            for s_sub in multiplicative_by_search(sub, harness.MULT_SIZE_CAP):
                s_par = incl.map_set(s_sub)
                for q2 in ctx.lattice.proper():
                    if not q2 & s_par:
                        desc = (f"{ctx.name}: C={c.render(a.names)} "
                                f"S={s_sub.render(sub.names)} Q={q2.render(a.names)}")
                        yield desc, (sub.label, sub.names, s_sub.mask, s_par.mask, q2.mask)


@pytest.mark.parametrize("names", [H.DEFAULT_CORPUS, BENCH_CORPUS], ids=["default", "bench"])
def test_p16_reads_the_context_mult_sets_as_the_substructure_search_did(names):
    corpus = H.build_corpus(names)
    got = []
    for inst in H.generate_instances("P16", corpus):
        p = inst.payload
        got.append((inst.description, (p["sub"].label, p["sub"].names, p["s_sub"].mask,
                                       p["s_par"].mask, p["q2"].mask)))
    assert got == list(p16_oracle(corpus))
    assert got


SEARCH_CORPUS = ("ring:Z4", "ring:Z6", "ring:Z12", "ring:Z2xZ4", "paper-2-4")


def search_oracle(corpus, holds, fails):
    """Separating (Q, S) pairs, each predicate asked directly."""
    found = []
    for ctx in corpus:
        if not ctx.usable:
            continue
        a = ctx.structure
        for q, s in harness._qs_pairs(ctx):
            try:
                pos, neg = (H.evaluate_predicate(name, a, q, s, ctx.lattice)
                            for name in (holds, fails))
            except (H.IdentityRequired, H.CapacityError, H.NotProper,
                    H.DisjointnessViolated):
                continue
            if pos.holds is True and neg.holds is False:
                found.append({"structure": ctx.name, "q": q.render(a.names),
                              "s": s.render(a.names)})
    return found


class TestSearch:
    def test_search_equals_its_oracle_on_every_pair(self):
        corpus = H.build_corpus(SEARCH_CORPUS)
        pairs = [(h, f) for h in H.CLASSIFY_KEYS for f in H.CLASSIFY_KEYS if h != f]
        searched = {pair: H.search_separating_instances(SEARCH_CORPUS, *pair)
                    for pair in pairs}
        oracle = {pair: search_oracle(corpus, *pair) for pair in pairs}
        assert searched == oracle
        assert searched["weakly-s-prime", "s-prime"]

    def test_a_question_without_s_is_decided_once_per_q(self, monkeypatch):
        # is_prime does not read S: 17 distinct Q over the search corpus
        asked = counting(monkeypatch, "is_prime")
        H.search_separating_instances(SEARCH_CORPUS, "weakly-s-prime", "prime")
        assert len(asked) == 17

    def test_separation_found(self):
        rows = H.search_separating_instances(
            ("ring:Z4",), "weakly-s-prime", "s-prime")
        assert {"structure": "ring:Z4", "q": "{0}", "s": "{1}"} in rows

    def test_chain_directions_empty(self):
        assert H.search_separating_instances(
            ("ring:Z4", "ring:Z6"), "s-prime", "weakly-s-prime") == []
        assert H.search_separating_instances(
            ("ring:Z4", "ring:Z6"), "prime", "weakly-prime") == []

    def test_weakly_prime_separation(self):
        rows = H.search_separating_instances(
            ("ring:Z6",), "weakly-prime", "prime")
        assert {"structure": "ring:Z6", "q": "{0}", "s": "{1}"} in rows


class TestRendering:
    def test_json_document_shape(self):
        reports = H.run_suite(("ring:Z4",))
        doc = json.loads(H.reports_to_json(reports))
        assert set(doc) == {"reports", "summary"}
        assert doc["summary"] == H.summarize(reports)
        record = doc["reports"][0]
        assert set(record) == {"propertyId", "instance", "status",
                               "reason", "certificate"}

    def test_json_is_byte_stable(self):
        first = H.reports_to_json(H.run_suite(("ring:Z6",)))
        second = H.reports_to_json(H.run_suite(("ring:Z6",)))
        assert first == second

    def test_text_lines_end_with_totals(self):
        reports = H.run_suite(("ring:Z4",))
        lines = H.render_report_lines(reports)
        assert len(lines) == len(reports) + 1
        assert lines[-1].startswith("total=")
        assert lines[0].startswith("AXIOMS")
