import atexit
import gc
import itertools
import json
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import repvar.cli
import repvar.finite_group
import repvar.tqft
from repvar.affc import affc_closed_form, affc_datum, xk_values
from repvar.cli import main
from repvar.finite_group import (
    BudgetExceeded,
    brute_force_count,
    class_datum,
    conjugacy_classes,
    load_group,
)
from repvar.poly import ONE, LaurentPoly, NonExactDivision, Q, parse_poly
from repvar.record import MAX_JSON_DEPTH
from repvar.tqft import (
    GENUS_TUBE,
    IDENTITY_TUBE,
    SurfaceSpec,
    TqftDatum,
    assemble_word,
    datum_to_json_dict,
    epoly_rep_variety,
    load_datum,
    puncture_tube,
    save_datum,
    word_epoly,
)

from conftest import named_group
from full_rank import insert_identity_tubes

ROOT = Path(__file__).resolve().parent.parent
DATUM_FILE = ROOT / "data" / "datums" / "affc.json"
S3_CLASSES = DATUM_FILE.with_name("s3_classes.json")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCompute:
    def test_affc_genus_one(self, capsys):
        code, out, _ = run(capsys, "compute", "--backend", "affc", "--genus", "1")
        assert code == 0
        assert out.strip() == "q^3 - q^2"

    def test_finite_sphere(self, capsys, group_file_factory):
        path = group_file_factory("z2")
        code, out, _ = run(
            capsys, "compute", "--backend", "finite", "--group", str(path), "--genus", "0"
        )
        assert code == 0
        assert out.strip() == "1"

    def test_finite_s3_torus(self, capsys, group_file_factory):
        path = group_file_factory("s3")
        code, out, _ = run(
            capsys, "compute", "--backend", "finite", "--group", str(path), "--genus", "1"
        )
        assert code == 0
        assert out.strip() == "18"

    def test_puncture_by_representative(self, capsys, group_file_factory):
        path = group_file_factory("s3")
        code, out, _ = run(
            capsys,
            "compute", "--backend", "finite", "--group", str(path),
            "--genus", "1", "--puncture", "rep=2",
        )
        assert code == 0
        assert out.strip() == "18"

    def test_puncture_by_elements(self, capsys, group_file_factory):
        path = group_file_factory("s3")
        code, out, _ = run(
            capsys,
            "compute", "--backend", "finite", "--group", str(path),
            "--genus", "1", "--puncture", "elements=1,3,4",
        )
        assert code == 0
        assert out.strip() == "0"

    def test_puncture_elements_must_be_closed(self, capsys, group_file_factory):
        path = group_file_factory("s3")
        code, _, err = run(
            capsys,
            "compute", "--backend", "finite", "--group", str(path),
            "--genus", "0", "--puncture", "elements=1",
        )
        assert code == 2
        assert "conjugate" in err and "of 1 is missing" in err

    def test_json_format_round_trips(self, capsys):
        code, out, _ = run(
            capsys, "compute", "--backend", "affc", "--genus", "2", "--format", "json"
        )
        assert code == 0
        parsed = LaurentPoly.from_terms((a, b, int(c)) for a, b, c in json.loads(out))
        assert parsed == Q**3 * ((Q - 1) ** 4 + Q - 1)

    def test_uv_format(self, capsys):
        code, out, _ = run(
            capsys, "compute", "--backend", "affc", "--genus", "1", "--format", "uv-text"
        )
        assert code == 0
        assert out.strip() == "u^3*v^3 - u^2*v^2"
        assert parse_poly(out.strip()) == Q**3 - Q**2

    @pytest.mark.parametrize("fmt", ["q-text", "uv-text", "json"])
    def test_result_longer_than_the_int_string_limit(self, capsys, group_file_factory, fmt):
        # |Hom(pi_1 of a genus-g surface, S3)| = 6 (2 * 6^(2g-2) + 3^(2g-2)) has
        # 4 670 digits at g = 3000, more than CPython turns into text by default.
        path = group_file_factory("s3")
        code, out, err = run(
            capsys, "compute", "--backend", "finite", "--group", str(path),
            "--genus", "3000", "--format", fmt,
        )
        assert (code, err) == (0, "")
        expected = 6 * (2 * 6**5998 + 3**5998)
        if fmt == "json":
            assert out == json.dumps(LaurentPoly({(0, 0): expected}).to_json_terms()) + "\n"
            [[a, b, out]] = json.loads(out)
            assert (a, b) == (0, 0)
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            assert out.strip() == str(expected)
        finally:
            sys.set_int_max_str_digits(limit)

    def test_custom_datum(self, capsys, tmp_path):
        path = tmp_path / "datum.json"
        save_datum(affc_datum(), path)
        code, out, _ = run(
            capsys, "compute", "--backend", "custom", "--datum", str(path), "--genus", "1"
        )
        assert code == 0
        assert out.strip() == "q^3 - q^2"


class TestComputeErrors:
    def test_missing_group(self, capsys):
        code, _, err = run(capsys, "compute", "--backend", "finite", "--genus", "1")
        assert code == 2
        assert "--group" in err

    def test_missing_datum(self, capsys):
        code, _, err = run(capsys, "compute", "--backend", "custom", "--genus", "1")
        assert code == 2
        assert "--datum" in err

    def test_nonexistent_file(self, capsys):
        code, _, err = run(
            capsys, "compute", "--backend", "finite", "--group", "/nope.json", "--genus", "1"
        )
        assert code == 2

    def test_invalid_json(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, _ = run(
            capsys, "compute", "--backend", "finite", "--group", str(path), "--genus", "1"
        )
        assert code == 2

    def test_invalid_table(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"table": [[1, 0], [1, 0]]}))
        code, _, err = run(
            capsys, "compute", "--backend", "finite", "--group", str(path), "--genus", "1"
        )
        assert code == 2
        assert "identity" in err

    def test_negative_genus(self, capsys):
        # -1 is a value, not an option: the genus check rejects it.
        code, _, err = run(capsys, "compute", "--backend", "affc", "--genus", "-1")
        assert code == 2
        assert err == "error: --genus must be >= 0\n"

    def test_rep_spec_needs_finite_backend(self, capsys):
        code, _, err = run(
            capsys, "compute", "--backend", "affc", "--genus", "1", "--puncture", "rep=1"
        )
        assert code == 2
        assert "finite" in err

    def test_unknown_label_on_custom(self, capsys, tmp_path):
        path = tmp_path / "datum.json"
        save_datum(affc_datum(), path)
        code, _, err = run(
            capsys,
            "compute", "--backend", "custom", "--datum", str(path),
            "--genus", "1", "--puncture", "ghost",
        )
        assert code == 2
        assert err.strip() == (
            "error: unknown puncture label 'ghost'; the datum provides: (none)"
        )

    def test_inconsistent_datum_exits_three(self, capsys, tmp_path):
        # Structurally valid datum whose normalization cannot divide.
        data = {
            "rank": 1,
            "e_G": "q - 1",
            "L": [["1"]],
            "punctures": {},
            "disc_in": ["1"],
            "disc_out": ["1"],
        }
        path = tmp_path / "datum.json"
        path.write_text(json.dumps(data))
        code, _, err = run(
            capsys, "compute", "--backend", "custom", "--datum", str(path), "--genus", "1"
        )
        assert code == 3
        assert "inconsistent" in err

    @pytest.mark.parametrize(
        "override, message",
        [
            (
                {"e_G": "q^"},
                "error: bad polynomial in datum file: missing exponent after '^' at position 0",
            ),
            (
                {"e_G": "q² - q"},
                "error: bad polynomial in datum file: unexpected character '²' at position 1",
            ),
            ({"L": [["1", "0"]]}, "error: genus tube must be a 1x1 matrix"),
            (
                {"e_G": "1" * 5000},
                "error: bad polynomial in datum file: integer of 5000 digits at position 0 "
                f"is longer than the {sys.get_int_max_str_digits()} digits allowed",
            ),
            (
                {"L": [["q^-" + "2" * 5000]]},
                "error: bad polynomial in L: integer of 5000 digits at position 2 "
                f"is longer than the {sys.get_int_max_str_digits()} digits allowed",
            ),
            ({"L": ["1"]}, "error: L must be a list of rows"),
            ({"punctures": [["1"]]}, "error: punctures must be an object of label -> matrix"),
            (
                {"disc_in": ["q"]},
                "error: sphere normalization fails: disc_out . disc_in = q, not 1",
            ),
            (
                {"e_G": "2", "L": [["2"]], "P": [["1"]]},
                "error: identity-tube consistency fails: disc_out . P . disc_in = 1, not e_G = 2",
            ),
            (
                {"disc_in": [f"q^{k}" for k in range(40)], "disc_out": ["1"] * 40, "rank": 40,
                 "L": [["0"] * 40] * 40},
                "error: sphere normalization fails: disc_out . disc_in = "
                "q^39 + q^38 + q^37 + q^36 + q^35 + q^34 + q^33 + q^32 + q^31 + q^30 + q^29 + q^2... "
                "(263 characters), not 1",
            ),
        ],
        ids=["bad-polynomial", "superscript-digit", "non-square-tube", "long-integer",
             "long-exponent", "L-not-rows", "punctures-not-object", "sphere", "identity-tube",
             "long-witness"],
    )
    def test_malformed_datum_exits_two(self, capsys, tmp_path, override, message):
        data = {
            "rank": 1,
            "e_G": "1",
            "L": [["1"]],
            "punctures": {},
            "disc_in": ["1"],
            "disc_out": ["1"],
            **override,
        }
        path = tmp_path / "datum.json"
        path.write_text(json.dumps(data))
        code, _, err = run(
            capsys, "compute", "--backend", "custom", "--datum", str(path), "--genus", "1"
        )
        assert code == 2
        assert err.strip() == message


    @pytest.mark.parametrize(
        "spec, message",
        [
            ("rep=x", "puncture spec 'rep=x': 'x' is not an element index"),
            ("rep=", "puncture spec 'rep=': '' is not an element index"),
            ("elements=1,a", "puncture spec 'elements=1,a': 'a' is not an element index"),
            (
                "rep=6",
                "puncture spec 'rep=6': element index 6 is out of range "
                "for a group of order 6",
            ),
            (
                "elements=1,3,-1",
                "puncture spec 'elements=1,3,-1': element index -1 is out of range "
                "for a group of order 6",
            ),
            ("elements=", "empty element list in puncture spec 'elements='"),
            ("x=1", "unknown puncture spec 'x=1'; use rep=, elements= or a label"),
            ("t", "finite backend punctures must use rep= or elements="),
        ],
    )
    def test_bad_puncture_spec_is_named(self, capsys, group_file_factory, spec, message):
        path = group_file_factory("s3")
        code, out, err = run(
            capsys,
            "compute", "--backend", "finite", "--group", str(path),
            "--genus", "1", "--puncture", "rep=1", "--puncture", spec,
        )
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"


@pytest.mark.parametrize("command", [("compute", "--genus", "1"), ("verify",)])
@pytest.mark.parametrize("backend, flag", [("finite", "--group"), ("custom", "--datum")])
def test_missing_input_file_is_named(capsys, command, backend, flag):
    code, out, err = run(capsys, command[0], "--backend", backend, *command[1:])
    assert code == 2
    assert out == ""
    assert err == f"error: --backend {backend} requires {flag}\n"


class TestVerify:
    def test_affc_matches_per_genus_recomputation(self, capsys):
        # verify takes one fold per genus and two recursion steps per genus;
        # every row must read as if each genus were computed on its own.
        code, out, _ = run(capsys, "verify", "--backend", "affc", "--max-genus", "60")
        assert code == 0
        expected = []
        for genus in range(1, 61):
            engine = epoly_rep_variety(affc_datum(), SurfaceSpec(genus))
            for name, value in (
                ("closed-form", affc_closed_form(genus)),
                ("recursion", next(itertools.islice(xk_values(), 2 * genus - 1, None))),
            ):
                status = "PASS" if engine == value else "FAIL"
                expected.append(f"CHECK affc {name} genus={genus} ... {status}")
        expected.append("SUMMARY: 120 passed, 0 failed, 0 skipped")
        assert out.splitlines() == expected

    def test_affc_mismatch_names_both_values(self, capsys, monkeypatch):
        monkeypatch.setattr(repvar.cli, "affc_closed_form", lambda genus: ONE)

        def recursion():
            while True:
                yield ONE
                yield Q

        monkeypatch.setattr(repvar.cli, "xk_values", recursion)
        code, out, _ = run(capsys, "verify", "--backend", "affc", "--max-genus", "1")
        assert code == 4
        engine = affc_closed_form(1)
        assert out.splitlines() == [
            "CHECK affc closed-form genus=1 ... FAIL",
            f"  counterexample: engine={engine} closed-form=1",
            "CHECK affc recursion genus=1 ... FAIL",
            f"  counterexample: engine={engine} recursion=q",
            "SUMMARY: 0 passed, 2 failed, 0 skipped",
        ]

    def test_finite_mismatch_names_both_values(self, capsys, monkeypatch, group_file_factory):
        # An oracle whose every commutator is the identity counts n^2 at genus 1.
        monkeypatch.setattr(
            repvar.cli,
            "commutator_slot",
            lambda group: Counter({group.identity: group.order**2}),
        )
        path = group_file_factory("s3")
        code, out, _ = run(
            capsys,
            "verify", "--backend", "finite", "--group", str(path),
            "--max-genus", "1", "--max-punctures", "0",
        )
        assert code == 4
        assert out.splitlines() == [
            "CHECK finite genus=0 punctures=[] ... PASS",
            "CHECK finite genus=1 punctures=[] ... FAIL",
            "  counterexample: engine=18 brute-force=36",
            "SUMMARY: 1 passed, 1 failed, 0 skipped",
        ]

    def test_finite_word_that_does_not_divide_is_a_fail_row(self, capsys, monkeypatch):
        # One more in the genus tube's (0, 0) entry leaves the genus-1
        # words short of a multiple of e_G^t; the rows after them still run.
        def tampered(group, punctures):
            datum = class_datum(group, punctures)
            tubes = dict(datum.tubes)
            genus = [list(row) for row in tubes[GENUS_TUBE]]
            genus[0][0] += 1
            tubes[GENUS_TUBE] = genus
            return TqftDatum(datum.e_g, tubes, datum.disc_in, datum.disc_out)

        monkeypatch.setattr(repvar.cli, "class_datum", tampered)
        code, out, err = run(
            capsys,
            "verify", "--backend", "finite", "--group", str(ROOT / "data" / "groups" / "s3.json"),
            "--max-genus", "1", "--max-punctures", "1",
        )
        assert code == 4 and err == ""
        assert out.splitlines() == [
            "CHECK finite genus=0 punctures=[] ... PASS",
            "CHECK finite genus=0 punctures=[class 0] ... PASS",
            "CHECK finite genus=0 punctures=[class 1] ... PASS",
            "CHECK finite genus=0 punctures=[class 2] ... PASS",
            "CHECK finite genus=1 punctures=[] ... FAIL",
            "  counterexample: (109) is not divisible by (6)",
            "CHECK finite genus=1 punctures=[class 0] ... FAIL",
            "  counterexample: (654) is not divisible by (36)",
            "CHECK finite genus=1 punctures=[class 1] ... PASS",
            "CHECK finite genus=1 punctures=[class 2] ... PASS",
            "SUMMARY: 6 passed, 2 failed, 0 skipped",
        ]

    @pytest.mark.parametrize("max_genus", [0, 1])
    def test_affc_checks_no_genus_past_max_genus(self, capsys, max_genus):
        code, out, err = run(capsys, "verify", "--backend", "affc", "--max-genus", str(max_genus))
        assert code == 0 and err == ""
        rows = [
            f"CHECK affc {name} genus={genus} ... PASS"
            for genus in range(1, max_genus + 1)
            for name in ("closed-form", "recursion")
        ]
        assert out.splitlines() == rows + [f"SUMMARY: {len(rows)} passed, 0 failed, 0 skipped"]

    def test_affc_all_pass(self, capsys):
        code, out, _ = run(capsys, "verify", "--backend", "affc", "--max-genus", "6")
        assert code == 0
        lines = [l for l in out.splitlines() if l.startswith("CHECK")]
        assert len(lines) == 12
        assert all(l.endswith("PASS") for l in lines)

    def test_finite_z2(self, capsys, group_file_factory):
        path = group_file_factory("z2")
        code, out, _ = run(
            capsys,
            "verify", "--backend", "finite", "--group", str(path), "--max-genus", "2",
        )
        assert code == 0
        assert "failed" in out
        assert ", 0 failed" in out

    def test_negative_max_genus_rejected(self, capsys, group_file_factory):
        path = group_file_factory("z2")
        code, out, err = run(
            capsys,
            "verify", "--backend", "finite", "--group", str(path), "--max-genus", "-1",
        )
        assert code == 2
        assert err == "error: --max-genus must be >= 0\n"
        assert out == ""

    def test_negative_max_punctures_rejected(self, capsys, group_file_factory):
        path = group_file_factory("z2")
        code, out, err = run(
            capsys,
            "verify", "--backend", "finite", "--group", str(path), "--max-punctures", "-1",
        )
        assert code == 2
        assert "--max-punctures must be >= 0" in err
        assert "SUMMARY" not in out

    def test_negative_budget_rejected(self, capsys, group_file_factory):
        path = group_file_factory("z2")
        code, out, err = run(
            capsys,
            "verify", "--backend", "finite", "--group", str(path), "--budget", "-5",
        )
        assert code == 2
        assert "--budget must be >= 0" in err
        assert "SUMMARY" not in out

    def test_finite_budget_skips(self, capsys, group_file_factory):
        path = group_file_factory("s3")
        code, out, _ = run(
            capsys,
            "verify", "--backend", "finite", "--group", str(path),
            "--max-genus", "2", "--budget", "100",
        )
        assert code == 0
        assert "SKIP" in out

    def test_custom_datum_passes(self, capsys, tmp_path):
        path = tmp_path / "affc.json"
        save_datum(affc_datum(), path)
        code, out, _ = run(
            capsys,
            "verify", "--backend", "custom", "--datum", str(path), "--max-genus", "4",
        )
        assert code == 0
        assert ", 0 failed" in out

    def test_tampered_datum_fails(self, capsys, tmp_path):
        data = datum_to_json_dict(affc_datum())
        data["L"][0][0] = "q^5"  # corrupt one matrix entry
        path = tmp_path / "tampered.json"
        path.write_text(json.dumps(data))
        code, out, _ = run(
            capsys,
            "verify", "--backend", "custom", "--datum", str(path), "--max-genus", "3",
        )
        assert code == 4
        assert "FAIL" in out
        assert "counterexample" in out

    def test_a_cylinder_that_changes_the_value_fails_insertion(self, capsys, tmp_path):
        # P is no longer e_G times the identity, yet disc_out . P . disc_in
        # reads only P[0][0] = e_G = 6: the datum loads, and only cylinder
        # insertion tells it apart.
        data = json.loads(DATUM_FILE.with_name("s3_classes.json").read_text())
        data["P"][0][2] = "6"
        path = tmp_path / "cylinder.json"
        path.write_text(json.dumps(data))
        code, out, _ = run(
            capsys,
            "verify", "--backend", "custom", "--datum", str(path), "--max-genus", "2",
        )
        assert code == 4
        assert out == (
            "CHECK custom normalization genus=0 ... PASS\n"
            "CHECK custom cylinder-insertion genus=0 ... PASS\n"
            "CHECK custom normalization genus=1 ... PASS\n"
            "CHECK custom cylinder-insertion genus=1 ... FAIL\n"
            "  counterexample: padded=27 unpadded=18\n"
            "CHECK custom normalization genus=2 ... PASS\n"
            "CHECK custom cylinder-insertion genus=2 ... FAIL\n"
            "  counterexample: padded=891 unpadded=486\n"
            "SUMMARY: 4 passed, 2 failed, 0 skipped\n"
        )

    def test_tampered_group_datum_detected_by_finite_sweep(
        self, capsys, tmp_path, group_file_factory
    ):
        # A wrong Cayley table that is still a group gives wrong counts only
        # against the brute-force oracle of the *intended* group; here we
        # instead corrupt the table into a non-group and expect input failure.
        path = tmp_path / "broken.json"
        path.write_text(json.dumps({"table": [[0, 1], [0, 1]]}))
        code, _, _ = run(
            capsys, "verify", "--backend", "finite", "--group", str(path)
        )
        assert code == 2


def report_text(rows) -> tuple[str, int]:
    """Stdout and exit code of verify for (description, status, detail)
    rows, printed as its report prints them."""
    lines = []
    for desc, status, detail in rows:
        lines.append(f"CHECK {desc} ... {status}")
        if detail:
            lines.append(f"  {detail}")
    statuses = [status for _, status, _ in rows]
    passed, skipped = statuses.count("PASS"), statuses.count("SKIP")
    failed = len(statuses) - passed - skipped
    lines.append(f"SUMMARY: {passed} passed, {failed} failed, {skipped} skipped")
    return "\n".join(lines) + "\n", 4 if failed else 0


def finite_rows_one_spec_at_a_time(group, max_genus, max_punctures, budget, cache):
    """The finite verify rows with every spec computed on its own: one
    brute_force_count and one epoly_rep_variety per spec.  ``cache``
    keeps a spec's row across calls with the same group and budget."""
    classes = conjugacy_classes(group)
    labels = [f"c{i}" for i in range(len(classes))]
    datum = class_datum(group, dict(zip(labels, classes.members)))
    for genus in range(max_genus + 1):
        for s in range(max_punctures + 1):
            for combo in itertools.combinations_with_replacement(range(len(classes)), s):
                desc = (
                    f"finite genus={genus} punctures="
                    f"[{', '.join(f'class {i}' for i in combo)}]"
                )
                if (genus, combo) not in cache:
                    try:
                        expected = brute_force_count(
                            group, genus, [classes.members[i] for i in combo], budget=budget
                        )
                    except BudgetExceeded as exc:
                        cache[genus, combo] = ("SKIP", str(exc))
                    else:
                        spec = SurfaceSpec(genus, tuple(labels[i] for i in combo))
                        engine = epoly_rep_variety(datum, spec)
                        cache[genus, combo] = (
                            ("PASS", None)
                            if engine == LaurentPoly.const(expected)
                            else ("FAIL", f"counterexample: engine={engine} brute-force={expected}")
                        )
                yield (desc, *cache[genus, combo])


def custom_rows_one_genus_at_a_time(datum, max_genus):
    """The custom verify rows with every genus, padded or not, evaluated
    as its own word."""
    for genus in range(max_genus + 1):
        spec = SurfaceSpec(genus)
        desc = f"custom normalization genus={genus}"
        try:
            result = epoly_rep_variety(datum, spec)
        except NonExactDivision as exc:
            yield desc, "FAIL", f"counterexample: genus={genus}: {exc}"
            continue
        if genus == 0 and result != ONE:
            yield desc, "FAIL", f"counterexample: sphere value {result} != 1"
            continue
        yield desc, "PASS", None
        if IDENTITY_TUBE in datum.tubes:
            desc = f"custom cylinder-insertion genus={genus}"
            try:
                padded = word_epoly(datum)(insert_identity_tubes(assemble_word(spec), 1))
            except NonExactDivision as exc:
                yield desc, "FAIL", f"counterexample: genus={genus}: {exc}"
                continue
            if padded == result:
                yield desc, "PASS", None
            else:
                yield desc, "FAIL", f"counterexample: padded={padded} unpadded={result}"


def s3_identity_not_first():
    """S3 as a table with element x renamed (x + 2) mod 6, so the identity
    is element 2."""
    group = named_group("s3")
    rename = [(x + 2) % 6 for x in range(6)]
    table = [[0] * 6 for _ in range(6)]
    for a in range(6):
        for b in range(6):
            table[rename[a]][rename[b]] = rename[group.mult[a][b]]
    return {"table": table}


class TestVerifyRows:
    """verify shares every word prefix among its checks; its rows must
    read exactly as if each check were computed on its own."""

    @pytest.mark.parametrize("budget", [0, 100, 2000, 10**9])
    @pytest.mark.parametrize("name", ["s3", "q8", "a4", "d4", "s3-relabelled"])
    def test_finite(self, capsys, tmp_path, group_file_factory, name, budget):
        if name == "s3-relabelled":
            path = tmp_path / "group.json"
            path.write_text(json.dumps(s3_identity_not_first()))
        else:
            path = group_file_factory(name)
        group = load_group(path)
        assert name != "s3-relabelled" or group.identity == 2
        cache: dict = {}
        statuses = set()
        for max_genus in range(3):
            for max_punctures in range(4):
                rows = list(
                    finite_rows_one_spec_at_a_time(group, max_genus, max_punctures, budget, cache)
                )
                statuses.update(status for _, status, _ in rows)
                code, out, _ = run(
                    capsys,
                    "verify", "--backend", "finite", "--group", str(path),
                    "--max-genus", str(max_genus), "--max-punctures", str(max_punctures),
                    "--budget", str(budget),
                )
                assert (out, code) == report_text(rows)
        assert "FAIL" not in statuses
        if budget in (100, 2000):
            # SKIP rows fall between PASS rows.
            assert statuses == {"PASS", "SKIP"}

    @pytest.mark.parametrize(
        "which, tamper", [("affc", None), ("affc", "L"), ("s3", None), ("s3", "L"), ("s3", "P")]
    )
    def test_custom(self, capsys, tmp_path, which, tamper):
        if which == "affc":
            data = json.loads(DATUM_FILE.read_text())
        else:
            group = named_group("s3")
            datum = class_datum(group, {"t": conjugacy_classes(group).members[1]})
            data = datum_to_json_dict(datum)
        if tamper == "L":
            data["L"][0][0] = "q^5"
        elif tamper == "P":
            # Row 0 now reads the 3-cycle coordinate, which genus >= 1 fills.
            data["P"][0][2] = "1"
        path = tmp_path / "datum.json"
        path.write_text(json.dumps(data))
        rows = list(custom_rows_one_genus_at_a_time(load_datum(path), 6))
        code, out, _ = run(
            capsys, "verify", "--backend", "custom", "--datum", str(path), "--max-genus", "6"
        )
        assert (out, code) == report_text(rows)
        assert (code == 4) == (tamper is not None)


class TestVerifyWork:
    """Each row is one step from its parent row: one mat_vec and one
    oracle slot per row, one commutator table per group, one fold form
    per command."""

    @staticmethod
    def counted_calls(monkeypatch, original):
        """The calls to ``original`` through every repvar module that names it."""
        calls = []

        def counted(*args):
            calls.append(1)
            return original(*args)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "repvar":
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, counted)
        return calls

    @pytest.fixture()
    def mat_vec_calls(self, monkeypatch):
        return self.counted_calls(monkeypatch, repvar.tqft.mat_vec)

    @pytest.fixture()
    def commutator_slots(self, monkeypatch):
        return self.counted_calls(monkeypatch, repvar.finite_group.commutator_slot)

    @pytest.fixture()
    def oracle_slots(self, monkeypatch):
        return self.counted_calls(monkeypatch, repvar.finite_group.fold_slot)

    @pytest.fixture()
    def fold_forms(self, monkeypatch):
        return self.counted_calls(monkeypatch, repvar.tqft.fold_form)

    @pytest.fixture()
    def char_polys(self, monkeypatch):
        return self.counted_calls(monkeypatch, repvar.tqft.char_poly)

    # Each command, and the number of characteristic polynomials it computes.
    COMMANDS = [
        (("verify", "--backend", "affc", "--max-genus", "40"), 0),
        (("verify", "--backend", "custom", "--datum", str(DATUM_FILE), "--max-genus", "40"), 0),
        (("verify", "--backend", "finite", "--group", str(ROOT / "data/groups/s3.json")), 0),
        (("compute", "--backend", "affc", "--genus", "7"), 0),
        (("compute", "--backend", "affc", "--genus", "40"), 1),
        (("compute", "--backend", "custom", "--datum", str(S3_CLASSES), "--genus", "40",
          "--puncture", "c1"), 1),
    ]
    COMMAND_IDS = [
        "affc-verify", "custom-verify", "finite-verify", "affc-compute", "affc-compute-jump",
        "custom-compute-jump",
    ]

    @pytest.mark.parametrize("argv, polys", COMMANDS, ids=COMMAND_IDS)
    def test_each_command_builds_its_fold_form_once(self, capsys, fold_forms, argv, polys):
        # Nothing is cached on the datum, so a walk that built the form per
        # row would redo the e_G division and the packing on every row.
        code, _, _ = run(capsys, *argv)
        assert code == 0
        assert len(fold_forms) == 1

    @pytest.mark.parametrize("argv, polys", COMMANDS, ids=COMMAND_IDS)
    def test_only_a_long_genus_run_computes_a_characteristic_polynomial(
        self, capsys, char_polys, argv, polys
    ):
        # verify steps every genus, since every genus is a row; only
        # word_epoly jumps a long run.
        code, _, _ = run(capsys, *argv)
        assert code == 0
        assert len(char_polys) == polys

    def test_finite_s3(
        self, capsys, group_file_factory, mat_vec_calls, oracle_slots, commutator_slots
    ):
        path = group_file_factory("s3")
        code, _, _ = run(capsys, "verify", "--backend", "finite", "--group", str(path))
        assert code == 0
        # Per genus 0..2: 3 one-puncture rows and 6 two-puncture rows; 2
        # genus steps; 1 mat_vec in the datum's validation.  Each spec on
        # its own took 76.
        assert len(mat_vec_calls) == 3 * 9 + 2 + 1
        assert len(oracle_slots) == 3 * 9 + 2
        assert len(commutator_slots) == 1

    def test_finite_skipped_specs_compute_nothing(
        self, capsys, group_file_factory, mat_vec_calls, oracle_slots, commutator_slots
    ):
        path = group_file_factory("s3")
        code, out, _ = run(
            capsys, "verify", "--backend", "finite", "--group", str(path), "--budget", "0"
        )
        assert code == 0
        assert "SUMMARY: 0 passed, 0 failed, 30 skipped" in out
        assert len(mat_vec_calls) == 1  # the datum's validation
        assert oracle_slots == commutator_slots == []

    def test_finite_budget_cut_inside_a_level(
        self, capsys, group_file_factory, mat_vec_calls, oracle_slots, commutator_slots
    ):
        # A budget of 36 tuples takes all of genus 0, genus 1 with only
        # class 0 (size 1), and nothing of genus 2.  Genus 1's rows that
        # extend a SKIPped multiset are SKIPped before their missing
        # parent is looked up.
        path = group_file_factory("s3")
        code, out, _ = run(
            capsys, "verify", "--backend", "finite", "--group", str(path),
            "--max-punctures", "3", "--budget", "36",
        )
        assert code == 0
        assert "SUMMARY: 24 passed, 0 failed, 36 skipped" in out
        # 19 + 3 rows with punctures; the genus steps once, into genus 1.
        assert len(mat_vec_calls) == 19 + 3 + 1 + 1
        assert len(oracle_slots) == 19 + 3 + 1
        assert len(commutator_slots) == 1

    def test_finite_s3_three_punctures(
        self, capsys, group_file_factory, mat_vec_calls, oracle_slots
    ):
        # (c0, c1, c1) extends (c0, c1), kept from the level before, so a
        # three-puncture row costs one step on each side like any other.
        path = group_file_factory("s3")
        code, _, _ = run(
            capsys, "verify", "--backend", "finite", "--group", str(path), "--max-punctures", "3"
        )
        assert code == 0
        # Per genus: 3 + 6 + 10 rows with punctures.
        assert len(mat_vec_calls) == 3 * 19 + 2 + 1
        assert len(oracle_slots) == 3 * 19 + 2

    @pytest.mark.parametrize("name", ["s3", "d4"])
    def test_each_row_folds_its_own_word(self, capsys, monkeypatch, group_file_factory, name):
        # Both sides of a row fold the same tubes, so a row moved from the
        # wrong parent, or by the wrong tube, would still PASS: compare the
        # values themselves with each spec computed on its own.
        compared = []
        compare = repvar.cli._Report.compare

        def recorded(report, description, engine, oracle, expected):
            compared.append((description, engine, expected))
            return compare(report, description, engine, oracle, expected)

        monkeypatch.setattr(repvar.cli._Report, "compare", recorded)
        path = group_file_factory(name)
        code, _, _ = run(
            capsys, "verify", "--backend", "finite", "--group", str(path), "--max-punctures", "3"
        )
        assert code == 0
        group = load_group(path)
        members = conjugacy_classes(group).members
        datum = class_datum(group, {f"c{i}": m for i, m in enumerate(members)})
        expected = []
        for genus in range(3):
            for s in range(4):
                for combo in itertools.combinations_with_replacement(range(len(members)), s):
                    spec = SurfaceSpec(genus, tuple(f"c{i}" for i in combo))
                    count = brute_force_count(group, genus, [members[i] for i in combo])
                    expected.append((epoly_rep_variety(datum, spec), count))
        assert [(engine, count) for _, engine, count in compared] == expected

    def test_affc(self, capsys, mat_vec_calls):
        code, _, _ = run(capsys, "verify", "--backend", "affc", "--max-genus", "60")
        assert code == 0
        assert len(mat_vec_calls) == 60  # each genus on its own: 1 830

    def test_custom(self, capsys, mat_vec_calls):
        code, _, _ = run(
            capsys, "verify", "--backend", "custom", "--datum", str(DATUM_FILE), "--max-genus", "40"
        )
        assert code == 0
        assert len(mat_vec_calls) == 40  # each genus on its own: 820

    def test_custom_with_cylinder(self, capsys, mat_vec_calls):
        path = DATUM_FILE.with_name("s3_classes.json")
        code, out, _ = run(
            capsys, "verify", "--backend", "custom", "--datum", str(path), "--max-genus", "40"
        )
        assert code == 0
        assert "SUMMARY: 82 passed, 0 failed, 0 skipped" in out
        # Per genus 1..40: one genus tube and the padded word's cylinder;
        # the padded sphere's cylinder; 1 in the datum's validation.
        assert len(mat_vec_calls) == 2 * 40 + 2


class TestClassSpace:
    """The finite backend never builds a |G| x |G| matrix: the full-rank
    builders live in the tests' oracle, and no module of the package has
    them."""

    FULL_RANK = (
        "genus_matrix",
        "puncture_matrix",
        "tube_matrix_P",
        "to_tqft_datum",
        "class_reduce",
        "insert_identity_tubes",
    )

    @pytest.fixture(autouse=True)
    def no_full_rank(self):
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "repvar"]
        assert repvar.cli in modules
        found = [(m.__name__, n) for m in modules for n in self.FULL_RANK if hasattr(m, n)]
        assert found == []

    def test_compute(self, capsys, group_file_factory):
        path = group_file_factory("a4")
        code, out, _ = run(
            capsys,
            "compute", "--backend", "finite", "--group", str(path),
            "--genus", "2", "--puncture", "rep=1", "--puncture", "elements=0",
        )
        assert code == 0
        classes = conjugacy_classes(named_group("a4"))
        lam = classes.members[classes.class_of[1]]
        assert out.strip() == str(brute_force_count(named_group("a4"), 2, [lam, (0,)]))

    def test_verify(self, capsys, group_file_factory):
        path = group_file_factory("q8")
        code, out, _ = run(
            capsys, "verify", "--backend", "finite", "--group", str(path), "--max-genus", "2",
        )
        assert code == 0
        assert ", 0 failed, 0 skipped" in out


class TestClasses:
    def test_s3(self, capsys, group_file_factory):
        path = group_file_factory("s3")
        code, out, _ = run(capsys, "classes", "--group", str(path))
        assert code == 0
        assert "3 conjugacy classes" in out
        assert "class 0: size 1" in out
        assert "class 1: size 3" in out
        assert "class 2: size 2" in out

    def test_trivial(self, capsys, group_file_factory):
        path = group_file_factory("z1")
        code, out, _ = run(capsys, "classes", "--group", str(path))
        assert code == 0
        assert "1 conjugacy classes" in out

    def test_z4(self, capsys, group_file_factory):
        path = group_file_factory("z4")
        code, out, _ = run(capsys, "classes", "--group", str(path))
        assert code == 0
        assert "4 conjugacy classes" in out

    def test_bad_file(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"table": [[0, 0], [0, 0]]}))
        code, _, _ = run(capsys, "classes", "--group", str(path))
        assert code == 2


@pytest.mark.parametrize(
    "data, witness",
    [
        ({"table": [[0, 1], 5]}, "row 1 is 5"),
        ({"table": [[0, 1.9], [1.2, 0]]}, "entry (0, 1) is 1.9"),
        ({"table": [[False, True], [True, False]]}, "entry (0, 0) is False"),
        ({"degree": 3.7, "generators": [[1, 0, 2], [1, 2, 0]]}, "'degree'"),
        ({"degree": -1, "generators": [[]]}, "'degree'"),
        ({"degree": 3, "generators": 5}, "'generators'"),
        ({"degree": 3, "generators": [5]}, "generator 0, 5,"),
        ({"degree": 3, "generators": [[1.0, 0, 2]]}, "generator 0, [1.0, 0, 2],"),
    ],
)
def test_malformed_group_file_exits_two(capsys, tmp_path, data, witness):
    # Each of these once raised TypeError (exit 1) or was accepted:
    # truncated to integers, or a negative degree read as the trivial group.
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code, out, err = run(
        capsys, "compute", "--backend", "finite", "--group", str(path), "--genus", "1"
    )
    assert (code, out) == (2, "")
    assert witness in err


# Z3 stored with its identity at index 2; element 0 generates, 0 * 0 = 1.
Z3_IDENTITY_AT_2 = {"table": [[1, 2, 0], [2, 0, 1], [0, 1, 2]]}

# S3 stored with its identity at index 1; its 3-cycles are 0 and 5.
S3_IDENTITY_AT_1 = {
    "table": [
        [5, 0, 4, 2, 3, 1],
        [0, 1, 2, 3, 4, 5],
        [3, 2, 1, 0, 5, 4],
        [4, 3, 5, 1, 0, 2],
        [2, 4, 0, 5, 1, 3],
        [1, 5, 3, 4, 2, 0],
    ]
}

# D4 stored with its identity at index 5; 0 and 4 are conjugate.
D4_IDENTITY_AT_5 = {
    "table": [
        [5, 4, 3, 2, 1, 0, 7, 6],
        [4, 5, 6, 7, 0, 1, 2, 3],
        [7, 6, 5, 4, 3, 2, 1, 0],
        [6, 7, 0, 1, 2, 3, 4, 5],
        [1, 0, 7, 6, 5, 4, 3, 2],
        [0, 1, 2, 3, 4, 5, 6, 7],
        [3, 2, 1, 0, 7, 6, 5, 4],
        [2, 3, 4, 5, 6, 7, 0, 1],
    ]
}


class TestFileIndices:
    """Element indices on the command line and in the output are the
    group file's own, wherever the file keeps its identity."""

    @pytest.fixture()
    def z3_file(self, tmp_path):
        path = tmp_path / "z3.json"
        path.write_text(json.dumps(Z3_IDENTITY_AT_2))
        return str(path)

    @pytest.mark.parametrize(
        "spec, count",
        [("rep=0", "0"), ("rep=1", "0"), ("rep=2", "1"), ("elements=2", "1"),
         ("elements=0", "0")],
    )
    def test_sphere_with_one_puncture(self, capsys, z3_file, spec, count):
        # One puncture on a sphere: 1 exactly when it is the identity.
        code, out, _ = run(
            capsys,
            "compute", "--backend", "finite", "--group", z3_file,
            "--genus", "0", "--puncture", spec,
        )
        assert code == 0
        assert out.strip() == count

    def test_classes_print_file_indices(self, capsys, z3_file):
        code, out, _ = run(capsys, "classes", "--group", z3_file)
        assert code == 0
        assert out == (
            "group of order 3 with 3 conjugacy classes\n"
            "class 0: size 1, centralizer 3, representative 2, elements [2]\n"
            "class 1: size 1, centralizer 3, representative 0, elements [0]\n"
            "class 2: size 1, centralizer 3, representative 1, elements [1]\n"
        )

    def test_classes_listed_identity_first_then_by_smallest_member(
        self, capsys, tmp_path
    ):
        path = tmp_path / "d4.json"
        path.write_text(json.dumps(D4_IDENTITY_AT_5))
        code, out, _ = run(capsys, "classes", "--group", str(path))
        assert code == 0
        assert out == (
            "group of order 8 with 5 conjugacy classes\n"
            "class 0: size 1, centralizer 8, representative 5, elements [5]\n"
            "class 1: size 2, centralizer 4, representative 0, elements [0, 4]\n"
            "class 2: size 1, centralizer 8, representative 1, elements [1]\n"
            "class 3: size 2, centralizer 4, representative 2, elements [2, 6]\n"
            "class 4: size 2, centralizer 4, representative 3, elements [3, 7]\n"
        )

    def test_not_closed_witness_uses_file_indices(self, capsys, tmp_path):
        path = tmp_path / "s3.json"
        path.write_text(json.dumps(S3_IDENTITY_AT_1))
        code, _, err = run(
            capsys,
            "compute", "--backend", "finite", "--group", str(path),
            "--genus", "0", "--puncture", "elements=0",
        )
        assert code == 2
        assert "of 0 is missing" in err
        code, out, _ = run(
            capsys,
            "compute", "--backend", "finite", "--group", str(path),
            "--genus", "0", "--puncture", "elements=0,5",
        )
        assert code == 0
        assert out.strip() == "0"


def test_deeply_nested_group_file_exits_two(capsys, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 10_000 + "]" * 10_000)
    code, out, err = run(capsys, "classes", "--group", str(path))
    assert (code, out) == (2, "")
    assert err == "error: group file nests JSON arrays or objects too deeply\n"


def test_deeply_nested_datum_file_exits_two(capsys, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text('{"rank": 1, "L": ' + "[" * 10_000 + "]" * 10_000 + "}")
    code, out, err = run(
        capsys, "compute", "--backend", "custom", "--datum", str(path), "--genus", "1"
    )
    assert (code, out) == (2, "")
    assert err == "error: datum file nests JSON arrays or objects too deeply\n"


AFFC_FILE_DATA = json.loads(DATUM_FILE.read_text())
LONG_INTEGER = "1" * 5000  # over CPython's default limit of 4 300 digits


def at_stack_depth(depth, call):
    """``call()`` run with ``depth`` frames on the stack."""
    frame, here = sys._getframe(), 0
    while frame:
        frame, here = frame.f_back, here + 1
    return call() if here >= depth else at_stack_depth(depth, call)


@pytest.mark.parametrize("load, text, message", [
    (load_group, '{"table": ' + "[" * 63 + "]" * 63 + "}", "not a square table"),
    (load_group, '{"table": ' + "[" * 64 + "]" * 64 + "}", "nests JSON arrays or objects too deeply"),
    (load_group, '{"table": ' + "[" * 499 + "]" * 499 + "}", "nests JSON arrays or objects too deeply"),
    (load_group, '{"x": "' + "]" * 499 + '", "table": ' + "[" * 499 + "]" * 499 + "}",
     "nests JSON arrays or objects too deeply"),
    (load_datum, json.dumps({**AFFC_FILE_DATA, "L": [[[]]]}).replace("[[[]]]", "[" * 63 + "]" * 63),
     "bad polynomial in L"),
], ids=["group-64-deep", "group-65-deep", "group-500-deep", "group-500-deep-after-quoted-brackets",
        "datum-64-deep"])
def test_a_file_reads_the_same_at_any_stack_depth(tmp_path, load, text, message):
    # json.load's recursion limit counts the caller's frames, so a 500-deep
    # group file was refused for its shape here and for its nesting at
    # stack depth 900.  MAX_JSON_DEPTH (64) is the file's own bound.  The
    # deep call leaves room under the recursion limit for a parse and a
    # repr as deep as that bound, and for the loader's own frames.
    path = tmp_path / "deep.json"
    path.write_text(text)

    def outcome():
        with pytest.raises(ValueError, match=message) as refused:
            load(path)
        return type(refused.value), str(refused.value)

    depth = sys.getrecursionlimit() - 4 * MAX_JSON_DEPTH
    assert at_stack_depth(depth, outcome) == outcome()


def test_brackets_in_strings_do_not_count_as_nesting(tmp_path):
    # Brackets in a later key counted once a run of other characters had
    # swallowed the quote that opened it, so this datum was refused.
    identity = [["1", "0"], ["0", "1"]]
    label = "[" * (MAX_JSON_DEPTH + 1)
    path = tmp_path / "label.json"
    path.write_text(json.dumps({**AFFC_FILE_DATA, "punctures": {"a": identity, label: identity}}))
    assert puncture_tube(label) in load_datum(path).tubes


@pytest.mark.parametrize(
    "what, argv, text",
    [
        ("group", ("classes", "--group"), '{"table": [[' + LONG_INTEGER + "]]}"),
        (
            "group",
            ("compute", "--backend", "finite", "--genus", "1", "--group"),
            '{"degree": ' + LONG_INTEGER + ', "generators": []}',
        ),
        (
            "datum",
            ("compute", "--backend", "custom", "--genus", "1", "--datum"),
            json.dumps({**AFFC_FILE_DATA, "rank": 0}).replace("0", LONG_INTEGER, 1),
        ),
    ],
    ids=["table-entry", "degree", "rank"],
)
def test_a_json_number_over_the_int_string_limit_names_the_file(
    capsys, tmp_path, what, argv, text
):
    # json.load raised CPython's bare "Exceeds the limit" ValueError,
    # naming neither the file nor the field.  The limit is kept.
    path = tmp_path / "long.json"
    path.write_text(text)
    code, out, err = run(capsys, *argv, str(path))
    assert (code, out) == (2, "")
    limit = sys.get_int_max_str_digits()
    assert err == f"error: {what} file holds an integer longer than the {limit} digits allowed\n"


@pytest.mark.parametrize("argv", [
    ("classes", "--group"),
    ("compute", "--backend", "custom", "--genus", "1", "--datum"),
])
@pytest.mark.parametrize("data, message", [
    (b'{"table": [[0]', "is not valid JSON: Expecting ',' delimiter: line 1 column 15 (char 14)\n"),
    (b'{"table": [[0]], "x": "\xff"}', "is not UTF-8 text: 'utf-8' codec can't decode byte 0xff"),
], ids=["malformed", "not-utf-8"])
def test_unreadable_json_keeps_the_decoder_message(capsys, tmp_path, argv, data, message):
    # The decoder's message is kept, after the kind of file it is about:
    # alone it named neither the file nor what was wrong with it.
    path = tmp_path / "bad.json"
    path.write_bytes(data)
    code, out, err = run(capsys, *argv, str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {argv[-1][2:]} file {message}")


@pytest.mark.parametrize(
    "command, text",
    [
        ("classes", '{"table": ' + "[" * (MAX_JSON_DEPTH - 1) + "]" * (MAX_JSON_DEPTH - 1) + "}"),
        ("classes", json.dumps({"table": [list(range(5000))]})),
        ("compute", json.dumps({**AFFC_FILE_DATA, "disc_in": "x" * 5000})),
        ("compute", json.dumps({**AFFC_FILE_DATA, "punctures": {"x" * 5000: [["1"]]}})),
    ],
    ids=["deepest-allowed-entry", "5000-entry-row", "5000-character-disc_in", "5000-character-label"],
)
def test_a_long_bad_value_makes_a_short_error_line(capsys, tmp_path, command, text):
    # Each message once quoted the whole value: a 950-deep entry made
    # 1 949 characters, and the others 28 943, 5 052 and 5 044.  The entry
    # is now the deepest the depth bound lets through.
    path = tmp_path / "bad.json"
    path.write_text(text)
    if command == "classes":
        code, out, err = run(capsys, "classes", "--group", str(path))
    else:
        code, out, err = run(
            capsys, "compute", "--backend", "custom", "--datum", str(path), "--genus", "1"
        )
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and len(err) < 300
    assert "characters)" in err  # the length of the whole value


def test_table_over_max_order_exits_two(capsys, tmp_path):
    # Rejected on its row count alone, before any row is read.
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"table": [[]] * 10_001}))
    code, _, err = run(
        capsys, "compute", "--backend", "finite", "--group", str(path), "--genus", "1"
    )
    assert code == 2
    assert "order 10001" in err and "10000" in err and "100020001 entries" in err


def modules_after(statement):
    """The modules loaded in a fresh interpreter that runs ``statement``,
    listed on stderr so that what the statement prints stays apart."""
    code = f"import sys\n{statement}\nprint(*sys.modules, file=sys.stderr)"
    done = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True, check=True, timeout=60,
    )
    return set(done.stderr.split())


def test_cli_import_loads_no_module_a_request_does_not_need(tmp_path):
    # Each of these costs milliseconds on every start of the command.  The
    # bare run is subtracted because site may preload some of them.
    imported = modules_after("import repvar.cli")
    added = imported - modules_after("pass")
    assert "repvar.cli" in added
    assert not added & {
        "argparse", "gettext", "locale",
        "dataclasses", "inspect", "fractions", "decimal", "typing", "pathlib",
        "json", "__future__",
    }
    # fractions is imported where it is used.
    half = LaurentPoly.monomial(-1, 0).evaluate(2, 1)
    assert type(half) is Fraction and half == Fraction(1, 2)
    # An affc request, compute or verify, loads nothing past the import, not
    # even json for a request that prints json.  A request that reads a
    # group or datum file loads json's C scanner alone, and the json
    # package only to word an error in the file.
    request = "from repvar.cli import main; assert main({}) == {}"
    affc = ["compute", "--backend", "affc", "--genus", "3", "--format", "json"]
    verify = ["verify", "--backend", "affc", "--max-genus", "3"]
    for argv in (affc, verify):
        assert modules_after(request.format(argv, 0)) <= imported
    groups, datums = ROOT / "data" / "groups", DATUM_FILE.parent
    reads_a_file = [
        ["compute", "--backend", "finite", "--group", str(groups / "s3.json"), "--genus", "2"],
        ["verify", "--backend", "finite", "--group", str(groups / "s3_generators.json")],
        ["classes", "--group", str(groups / "q8.json")],
        ["compute", "--backend", "custom", "--datum", str(datums / "s3_classes.json"), "--genus", "2"],
    ]
    for argv in reads_a_file:
        assert modules_after(request.format(argv, 0)) <= imported | {"_json"}
    malformed = tmp_path / "malformed.json"
    malformed.write_text("[1")
    finite = ["compute", "--backend", "finite", "--group", str(malformed), "--genus", "2"]
    assert "json" in modules_after(request.format(finite, 2))


@pytest.mark.parametrize("poly", [
    LaurentPoly(),
    LaurentPoly({(-2, 3): -7, (1, -1): 5, (0, 0): 12_345_678_901_234_567_890, (0, -4): 1}),
    Q**3 * ((Q - 1) ** 4 + Q - 1),
], ids=["zero", "uv-negative-exponents", "affc-genus-2"])
def test_the_json_format_is_json_dumps_text(poly):
    assert repvar.cli._format_poly(poly, "json") == json.dumps(poly.to_json_terms())


# What the console script and the benchmark run: ``main()`` with no argv.
ENTRY = "import sys; from repvar.cli import main; sys.exit(main())"
# The same request through the interpreter's normal exit, which ``main(argv)``
# leaves to its caller: the exit the process entry had before it ended the
# process itself.
NORMAL_EXIT = "import sys; from repvar.cli import main; sys.exit(main(sys.argv[1:]))"
# Registered before main(): an atexit hook, which must still run, and a
# module global whose finaliser runs only if the interpreter tears down
# __main__.
WITNESSES = (
    "import atexit, sys\n"
    "atexit.register(print, 'atexit hook', file=sys.stderr)\n"
    "class Witness:\n"
    "    def __del__(self):\n"
    "        sys.stderr.write('module teardown\\n')\n"
    "witness = Witness()\n"
)


def tampered_datum(tmp_path):
    data = json.loads(DATUM_FILE.read_text())
    data["L"][0][0] = "q^3"  # e_G = q^2 - q no longer divides L
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(data))
    return str(path)


def test_a_group_file_in_both_forms_exits_two_at_the_process_level(tmp_path):
    path = tmp_path / "both.json"
    path.write_text(json.dumps({"table": [[0]], "degree": 2, "generators": [[1, 0]]}))
    done = run_process(ENTRY, ["compute", "--backend", "finite", "--group", str(path), "--genus", "1"])
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == (
        "error: group file needs either 'table' or 'degree' + 'generators', not both\n"
    )


def run_process(entry, argv, stdout=subprocess.PIPE, **env):
    """Run ``entry`` with ``argv`` in a fresh interpreter, with repvar from
    this checkout and ``env`` over the environment (None removes a name)."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), **env}
    env = {name: value for name, value in env.items() if value is not None}
    return subprocess.run(
        [sys.executable, "-c", entry, *argv], env=env,
        stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=60,
    )


@pytest.mark.parametrize("argv, expected", [
    (("compute", "--backend", "affc", "--genus", "3"), 0),
    (("compute", "--backend", "finite", "--group", str(ROOT / "data" / "groups" / "s3.json"),
      "--genus", "2", "--puncture", "rep=2"), 0),
    (("compute", "--backend", "nope", "--genus", "1"), 2),
    (("compute", "--backend", "custom", "--genus", "1", "--datum"), 3),
], ids=["affc", "finite", "usage-error", "inconsistent-datum"])
@pytest.mark.parametrize("unbuffered", ["1", None], ids=["unbuffered", "buffered"])
def test_the_process_entry_ends_at_its_output(capsys, tmp_path, argv, expected, unbuffered):
    if argv[-1] == "--datum":
        argv += (tampered_datum(tmp_path),)
    code, out, err = run(capsys, *argv)
    assert code == expected and (out or err)
    done = run_process(WITNESSES + ENTRY, argv, PYTHONUNBUFFERED=unbuffered)
    assert (done.returncode, done.stdout) == (code, out)
    assert done.stderr == err + "atexit hook\n"
    # The witness does speak when the interpreter exits normally.
    normal = run_process(WITNESSES + NORMAL_EXIT, argv, PYTHONUNBUFFERED=unbuffered)
    assert (normal.returncode, normal.stdout) == (code, out)
    assert normal.stderr == err + "atexit hook\nmodule teardown\n"


MALFORMED_FILES = {
    "bom": '\ufeff{"table": [[0]]}',
    "trailing-data": '{"table": [[0]]} x',
    "open-array": "[1",
    "tab-in-string": '{"table": "a\tb"}',
    "empty": "",
    "whitespace": " \t\n ",
    "not-json": "{not json",
    "long-integer": '{"table": [[' + LONG_INTEGER + "]]}",
}


@pytest.mark.parametrize("text", MALFORMED_FILES.values(), ids=MALFORMED_FILES)
def test_a_malformed_file_is_worded_by_json_loads_in_a_fresh_interpreter(tmp_path, text):
    # Only a fresh interpreter starts without json.decoder loaded, and
    # there json's C scanner cannot build its JSONDecodeError: it raises
    # SystemError, which must not escape as a traceback and exit 1.
    path = tmp_path / "group.json"
    path.write_text(text, encoding="utf-8")
    try:
        json.loads(text)
    except json.JSONDecodeError as exc:
        expected = f"error: group file is not valid JSON: {exc}\n"
    except ValueError:
        limit = sys.get_int_max_str_digits()
        expected = f"error: group file holds an integer longer than the {limit} digits allowed\n"
    done = run_process(ENTRY, ["compute", "--backend", "finite", "--group", str(path), "--genus", "1"])
    assert (done.returncode, done.stdout, done.stderr) == (2, "", expected)


@pytest.mark.parametrize("argv", [
    ("compute", "--backend", "affc", "--genus", "3"),
    ("compute", "--backend", "affc", "--genus", "200", "--format", "json"),  # over a buffer
    ("verify", "--backend", "affc", "--max-genus", "3"),
])
@pytest.mark.parametrize("unbuffered", ["1", None], ids=["unbuffered", "buffered"])
def test_a_closed_stdout_pipe_is_reported_as_the_normal_exit_reports_it(argv, unbuffered):
    def exit_to_closed_pipe(entry):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = run_process(entry, argv, stdout=write_end, PYTHONUNBUFFERED=unbuffered)
        finally:
            os.close(write_end)
        return done.returncode, done.stderr

    result = exit_to_closed_pipe(ENTRY)
    assert result == exit_to_closed_pipe(NORMAL_EXIT)
    if unbuffered or "json" in argv:
        # print itself meets the closed pipe: an input/output error, exit 2.
        assert result == (2, "error: [Errno 32] Broken pipe\n")
    else:
        # The output waits in the buffer, and the flush at exit meets it.
        code, err = result
        assert code == 120 and err.endswith("BrokenPipeError: [Errno 32] Broken pipe\n")


@pytest.mark.parametrize("fd", [1, 2], ids=["no-stdout", "no-stderr"])
@pytest.mark.parametrize("argv", [
    ("compute", "--backend", "affc", "--genus", "1"),
    ("compute", "--backend", "nope", "--genus", "1"),
])
def test_a_stream_closed_at_start_is_left_to_the_normal_exit(argv, fd):
    # With file descriptor 1 or 2 closed, sys.stdout or sys.stderr is None.
    def exit_without_stream(entry):
        shell = f'exec "$0" "$@" {fd}>&-'
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        done = subprocess.run(["sh", "-c", shell, sys.executable, "-c", entry, *argv], env=env,
                              capture_output=True, text=True, timeout=60)
        return done.returncode, done.stdout, done.stderr

    result = exit_without_stream(ENTRY)
    assert result == exit_without_stream(NORMAL_EXIT)
    assert result[0] == (2 if "nope" in argv else 0)


@pytest.mark.parametrize("argv, expected", [
    (("compute", "--backend", "affc", "--genus", "1"), 0),
    (("compute", "--help"), 0),
    (("compute", "--backend", "nope", "--genus", "1"), 2),
    (("compute", "--backend", "custom", "--genus", "1", "--datum"), 3),
], ids=["success", "help", "usage-error", "inconsistent-datum"])
def test_a_call_with_argv_leaves_the_collector_alone(capsys, tmp_path, argv, expected):
    if argv[-1] == "--datum":
        argv += (tampered_datum(tmp_path),)
    hook_calls = []
    hook = atexit.register(hook_calls.append, "ran")
    before = gc.get_freeze_count()
    try:
        assert run(capsys, *argv)[0] == expected
    finally:
        atexit.unregister(hook)
    # It returns with no atexit hook run and the heap as it was.
    assert hook_calls == []
    assert gc.get_freeze_count() == before
