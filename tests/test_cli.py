"""End-to-end CLI behaviour, driven through main(argv).

Exit code contract: 0 clean, 1 violations or counterexamples, 2 usage or
load problems, 3 violated preconditions.
"""

import json
import subprocess
import sys
import time

import pytest

import hyperlab as H
from hyperlab.cli import main


@pytest.fixture()
def ex33_path(tmp_path, ex33):
    path = tmp_path / "ex33.json"
    H.dump_structure(ex33, path)
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestValidate:
    def test_clean_fixture(self, capsys):
        code, out, _ = run_cli(capsys, "validate", "--fixture", "ring:Z6")
        assert code == 0
        assert "no axiom violations" in out

    def test_clean_document(self, capsys, tmp_path, z4):
        path = tmp_path / "z4.json"
        H.dump_structure(z4, path)
        code, out, _ = run_cli(capsys, "validate", str(path))
        assert code == 0

    def test_violations_reported(self, capsys, ex33_path):
        code, out, _ = run_cli(capsys, "validate", ex33_path)
        assert code == 1
        lines = [l for l in out.splitlines() if l.startswith("DISTRIB")]
        assert len(lines) == 2
        assert "witness=((1, 2), (0, 1, 2))" in lines[0]

    def test_first_violation_stops_early(self, capsys, ex33_path):
        code, out, _ = run_cli(capsys, "validate", "--first-violation",
                               ex33_path)
        assert code == 1
        assert len(out.splitlines()) == 1

    def test_json_violations(self, capsys, ex33_path, ex33):
        code, out, _ = run_cli(capsys, "validate", "--json", ex33_path)
        assert code == 1
        doc = json.loads(out)
        assert doc["structure"] == ex33.label == "paper-3-3"
        assert doc["valid"] is False
        assert doc["violations"][0]["axiom"] == "DISTRIB"

    def test_source_required(self, capsys):
        code, _, err = run_cli(capsys, "validate")
        assert code == 2
        assert "structure is required" in err

    def test_both_sources_rejected(self, capsys, ex33_path):
        code, _, _ = run_cli(capsys, "validate", ex33_path,
                             "--fixture", "ring:Z4")
        assert code == 2

    def test_unknown_fixture(self, capsys):
        code, _, err = run_cli(capsys, "validate", "--fixture", "nope")
        assert code == 2
        assert "error:" in err

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "validate", str(tmp_path / "no.json"))
        assert code == 2

    def test_high_arity_partial_table_fails_fast(self, capsys, tmp_path):
        # C(49, 40) ~ 2e9 multisets: the totality check must not count them
        doc = {"m": 40, "n": 2, "carrier": [str(i) for i in range(10)],
               "zero": "0", "f": {",".join(["0"] * 40): ["0"]}, "g": {}}
        path = tmp_path / "m40.json"
        path.write_text(json.dumps(doc))
        start = time.perf_counter()
        code, _, err = run_cli(capsys, "validate", str(path))
        assert code == 2
        assert time.perf_counter() - start < 1.0
        assert "not total" in err

    def test_huge_arity_empty_table_message_stays_small(self, capsys, tmp_path):
        doc = {"m": 1000000, "n": 2, "carrier": ["0", "1"], "zero": "0",
               "f": {}, "g": {}}
        path = tmp_path / "m-huge.json"
        path.write_text(json.dumps(doc))
        code, _, err = run_cli(capsys, "validate", str(path))
        assert code == 2
        assert len(err) < 1024
        assert "not total" in err

    def test_deeply_nested_document(self, capsys, tmp_path):
        path = tmp_path / "nested.json"
        path.write_text("[" * 100000)
        code, _, err = run_cli(capsys, "validate", str(path))
        assert code == 2
        assert err.startswith("error:") and err.count("\n") == 1


class TestClassify:
    def test_designated_pair(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--fixture", "paper-2-4",
                               "--ideal", "0", "--mult-set", "2,3")
        assert code == 0
        assert "Q={0} S={2,3}" in out
        assert "  prime: false counterexample=(1,1,2,3)" in out
        assert "  weakly-s-prime: true (vacuously true)" in out
        assert "  s-prime: not evaluated (identity required" in out

    def test_json_record(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--fixture", "ring:Z6",
                               "--ideal", "0,3", "--mult-set", "1", "--json")
        assert code == 0
        doc = json.loads(out)
        assert set(doc["record"]) == set(H.CLASSIFY_KEYS)
        assert doc["ideal"] == ["0", "3"]
        for payload in doc["record"].values():
            assert set(payload) == {"holds", "witnessS", "counterexample",
                                    "note"}
        assert doc["record"]["prime"]["holds"] is True

    def test_overlapping_sets(self, capsys):
        code, _, err = run_cli(capsys, "classify", "--fixture", "ring:Z6",
                               "--ideal", "0,3", "--mult-set", "3")
        assert code == 3
        assert "precondition failed" in err

    def test_not_an_ideal(self, capsys):
        code, _, err = run_cli(capsys, "classify", "--fixture", "ring:Z6",
                               "--ideal", "0,1", "--mult-set", "1")
        assert code == 3
        assert "not a hyperideal" in err

    def test_not_multiplicative(self, capsys):
        code, _, err = run_cli(capsys, "classify", "--fixture", "ring:Z4",
                               "--ideal", "0", "--mult-set", "2")
        assert code == 3
        assert "not multiplicative" in err

    def test_improper_ideal(self, capsys):
        code, _, err = run_cli(capsys, "classify", "--fixture", "ring:Z4",
                               "--ideal", "0,1,2,3", "--mult-set", "1")
        assert code == 3

    def test_unknown_element(self, capsys):
        code, _, err = run_cli(capsys, "classify", "--fixture", "ring:Z4",
                               "--ideal", "9", "--mult-set", "1")
        assert code == 2

    def test_ideal_level_counterexample_names_ideals(self, capsys):
        argv = ("classify", "--fixture", "ring:Z2xZ4",
                "--ideal", "0|0,0|2", "--mult-set", "1|1")
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert ("  strongly-weakly-s-prime: false counterexample="
                "({0|0,0|1,0|2,0|3},{0|0,0|2,1|0,1|2}) "
                "(counterexample holds hyperideal indices)") in out
        code, out, _ = run_cli(capsys, *argv, "--json")
        record = json.loads(out)["record"]
        assert record["strongly-weakly-s-prime"]["counterexample"] == [
            "{0|0,0|1,0|2,0|3}", "{0|0,0|2,1|0,1|2}"]
        assert record["weakly-s-prime"]["counterexample"] == ["0|1", "1|2"]


class TestIdeals:
    def test_text_listing(self, capsys):
        code, out, _ = run_cli(capsys, "ideals", "--fixture", "ring:Z12")
        assert code == 0
        assert "6 hyperideals" in out
        assert out.count(" (prime)") == 2

    def test_json_listing(self, capsys):
        code, out, _ = run_cli(capsys, "ideals", "--fixture", "ring:Z12",
                               "--json")
        doc = json.loads(out)
        assert len(doc["ideals"]) == 6
        assert doc["ideals"][0] == {"elements": ["0"], "prime": False}
        assert sum(row["prime"] for row in doc["ideals"]) == 2

    def test_listing_never_builds_the_product_table(self, capsys, monkeypatch):
        def refuse(lattice):
            raise AssertionError("ideals asked for the ideal-product table")

        monkeypatch.setattr(H.IdealLattice, "products", property(refuse))
        code, out, _ = run_cli(capsys, "ideals", "--fixture", "ring:Z12", "--json")
        assert code == 0 and json.loads(out)

    def test_carrier_above_twenty_elements(self, capsys):
        code, out, _ = run_cli(capsys, "ideals", "--fixture", "ring:Z24",
                               "--json")
        assert code == 0
        assert len(json.loads(out)["ideals"]) == 8

    @pytest.mark.parametrize("name", ["ring:Z" + "9" * 5000, "ring:Z\u0663", "ring:Z06"],
                             ids=["many-digits", "arabic-indic-digit", "leading-zero"])
    def test_odd_fixture_names(self, capsys, name):
        code, out, err = run_cli(capsys, "ideals", "--fixture", name)
        assert (code, out) == (2, "")
        assert err.startswith("error: unknown fixture") and err.count("\n") == 1


class TestTheorems:
    def test_empty_corpus(self, capsys):
        code, out, _ = run_cli(capsys, "theorems", "--corpus", "none",
                               "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["reports"] == []
        assert doc["summary"]["total"] == 0

    def test_discrepancy_fixture(self, capsys):
        code, out, _ = run_cli(capsys, "theorems", "--corpus", "paper-3-3")
        assert code == 0
        assert "DISCREPANCY" in out
        assert "COUNTEREXAMPLE" not in out

    def test_json_is_deterministic(self, capsys):
        argv = ("theorems", "--corpus", "paper-2-4,ring:Z4", "--json")
        code1, out1, _ = run_cli(capsys, *argv)
        code2, out2, _ = run_cli(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2
        doc = json.loads(out1)
        assert doc["summary"]["counterexamples"] == 0

    def test_triple_over_the_carrier_cap(self, capsys):
        # the P18 triple ring:Z5xZ3 x ring:Z5 would have 75 elements
        code, out, err = run_cli(capsys, "theorems", "--corpus", "ring:Z5xZ3")
        assert (code, err) == (0, "")
        assert "64-element cap" in out


class TestSearch:
    def test_finds_separation(self, capsys):
        code, out, _ = run_cli(capsys, "search", "--holds", "weakly-s-prime",
                               "--fails", "s-prime", "--corpus", "ring:Z4")
        assert code == 0
        assert "ring:Z4: Q={0} S={1}" in out

    def test_chain_direction_empty(self, capsys):
        code, out, _ = run_cli(capsys, "search", "--holds", "s-prime",
                               "--fails", "weakly-s-prime",
                               "--corpus", "ring:Z4,ring:Z6")
        assert code == 0
        assert "no separating instances" in out

    def test_json_rows(self, capsys):
        code, out, _ = run_cli(capsys, "search", "--holds", "weakly-prime",
                               "--fails", "prime", "--corpus", "ring:Z6",
                               "--json")
        doc = json.loads(out)
        assert {"structure": "ring:Z6", "q": "{0}", "s": "{1}"} \
            in doc["separations"]

    def test_unknown_predicate(self, capsys):
        code, _, err = run_cli(capsys, "search", "--holds", "bogus",
                               "--fails", "prime")
        assert code == 2


class TestBudget:
    def test_budget_limits_classify(self, capsys, monkeypatch):
        monkeypatch.setenv("HYPERLAB_BUDGET", "1")
        code, out, _ = run_cli(capsys, "classify", "--fixture", "ring:Z4",
                               "--ideal", "0", "--mult-set", "1")
        assert code == 0
        assert "not evaluated (" in out

    def test_budget_skips_suite_instances(self, capsys, monkeypatch):
        monkeypatch.setenv("HYPERLAB_BUDGET", "1")
        code, out, _ = run_cli(capsys, "theorems", "--corpus", "ring:Z4")
        assert code == 0
        assert "SKIPPED" in out
        assert "COUNTEREXAMPLE" not in out

    def test_invalid_budget(self, capsys, monkeypatch):
        monkeypatch.setenv("HYPERLAB_BUDGET", "lots")
        code, _, err = run_cli(capsys, "theorems", "--corpus", "none")
        assert code == 2

    # each of these int() accepts, the last only where the interpreter has
    # no int-digit limit; "\u0663" is an Arabic-Indic three
    @pytest.mark.parametrize("raw", ["-5", "1_000", " 12 ", "\u0663",
                                     pytest.param("-" + "9" * 39, id="40-characters"),
                                     pytest.param("-" + "9" * 40, id="41-characters"),
                                     pytest.param("9" * 5000, id="5000-digits")])
    def test_budget_takes_only_ascii_digits(self, capsys, monkeypatch, raw):
        monkeypatch.setenv("HYPERLAB_BUDGET", raw)
        code, _, err = run_cli(capsys, "theorems", "--corpus", "none")
        assert code == 2
        assert "HYPERLAB_BUDGET must be a non-negative integer" in err
        # the value is echoed whole up to 40 characters; past that, its first
        # 40 and its length
        if len(raw) <= 40:
            assert err.endswith(f"integer, got {raw!r}\n")
        else:
            assert err.endswith(f"integer, got {raw[:40]!r}... ({len(raw)} characters)\n")
            assert len(err) < 300


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "hyperlab", "ideals", "--fixture", "ring:Z4"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert "3 hyperideals" in proc.stdout
