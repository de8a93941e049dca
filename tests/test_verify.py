import json
from fractions import Fraction
from pathlib import Path

import pytest

from bernstir.bell import bell_scaling_identity_lhs_rhs
from bernstir.bernoulli import Method, supported_methods
from bernstir.verify import ReportEntry, VerificationReport, cross_verify, identity_suite

from oracles import report_to_dict

GOLDEN = Path(__file__).parent / "golden"


def expected_entry_count(max_n):
    return sum(len(supported_methods(n)) for n in range(max_n + 1))


def test_cross_verify_with_known_list_is_clean():
    report = cross_verify(4, known_discrepancies=("alternating",))
    assert report.ok
    assert report.mismatches == ()
    assert report.checked == len(report.entries) == expected_entry_count(4) == 24
    assert set(report.known_discrepancies) == {(2, "alternating"), (4, "alternating")}


def test_cross_verify_reports_alternating_mismatch():
    report = cross_verify(2)
    assert not report.ok
    assert report.mismatches == ((2, "alternating"),)
    assert report.known_discrepancies == ()
    entry = next(e for e in report.entries if e.method == "alternating")
    assert entry.n == 2
    assert entry.value == Fraction(1, 3)
    assert not entry.agrees_with_oracle


def test_cross_verify_max_n_one():
    report = cross_verify(1)
    assert report.ok
    at_one = {e.method: e.value for e in report.entries if e.n == 1}
    assert at_one == {
        "oracle": Fraction(-1, 2),
        "theorem": Fraction(-1, 2),
        "bell": Fraction(-1, 2),
        "logan": Fraction(-1, 2),
    }
    assert all(e.agrees_with_oracle for e in report.entries)


def test_cross_verify_entries_sorted_and_unique():
    report = cross_verify(6, known_discrepancies=("alternating",))
    keys = [(e.n, e.method) for e in report.entries]
    assert keys == sorted(keys)
    assert len(keys) == len(set(keys))


def test_valued_entries_partition_into_agree_and_mismatch():
    report = cross_verify(6)
    valued = [e for e in report.entries if e.value is not None]
    agreed = sum(1 for e in valued if e.agrees_with_oracle)
    flagged = len(report.mismatches) + len(report.known_discrepancies)
    assert agreed + flagged == len(valued)


def test_cross_verify_validates_input():
    with pytest.raises(ValueError):
        cross_verify(0)
    with pytest.raises(ValueError):
        cross_verify(4, known_discrepancies=("bogus",))
    # no chosen method is defined at any index: nothing would be checked
    with pytest.raises(ValueError, match="no chosen method is defined at any n <= 1"):
        cross_verify(1, methods=(Method.GUO_QI, Method.DOUBLE_STIRLING, Method.ALTERNATING))
    with pytest.raises(ValueError, match="no chosen method is defined at any n <= 5"):
        cross_verify(5, methods=())


def test_identity_suite_all_pass():
    report = identity_suite(8, trials=50, seed=7)
    assert report.ok
    assert report.mismatches == ()
    for name, checked, passed in report.identity_counts:
        assert checked == passed, name
    # five identities, one canonical instance per cell n >= k >= 1, n <= 8
    # (36 cells), plus the 50 random trials each of scaling and egf
    assert report.checked == 280
    assert report.identity_counts == (
        ("associated", 36, 36),
        ("egf", 86, 86),
        ("reciprocal", 36, 36),
        ("scaling", 86, 86),
        ("zero-one", 36, 36),
    )


def test_identity_suite_flags_a_wrong_associated_cell(monkeypatch):
    import bernstir.verify as verify
    from bernstir.stirling import associated_diagonals

    def off_by_one_at_d3(max_d):
        for d, col in enumerate(associated_diagonals(max_d)):
            yield col[:2] + (col[2] + 1,) + col[3:] if d == 3 else col

    monkeypatch.setattr(verify, "associated_diagonals", off_by_one_at_d3)
    report = identity_suite(6, trials=1, seed=0)
    assert report.mismatches == ((5, "associated"),)  # the cell S_2(5, 2)
    # one failed instance of the 21: counted as checked, not as passed
    assert report.checked == 107
    assert ("associated", 21, 20) in report.identity_counts


def test_identity_suite_reports_are_deterministic():
    a = identity_suite(6, trials=20, seed=3)
    b = identity_suite(6, trials=20, seed=3)
    assert a.to_json() == b.to_json()
    # the seed only steers argument drawing, never the amount of checking
    c = identity_suite(6, trials=20, seed=4)
    assert c.checked == a.checked


def test_identity_report_matches_the_golden_files():
    report = identity_suite(6, trials=20, seed=3)
    assert report.to_json().encode() == (GOLDEN / "identity_6.json").read_bytes()
    assert report.to_table().encode() == (GOLDEN / "identity_6.txt").read_bytes()


def test_identity_suite_draws_negative_zero_and_non_integer_arguments(monkeypatch):
    # the golden reports hold only pass counts, so pin what the seeded draws reach
    import bernstir.verify as verify

    drawn = []

    def recording(function):
        def record(n, k, args):
            drawn.extend(args)
            return function(n, k, args)
        return record

    for name in ("bell_scaling_identity_lhs_rhs", "bell_egf_coeff"):
        monkeypatch.setattr(verify, name, recording(getattr(verify, name)))
    assert identity_suite(6, trials=20, seed=3).ok
    assert min(drawn) < 0 and 0 in drawn
    assert any(Fraction(x).denominator > 1 for x in drawn)


def test_identity_suite_minimal_run_covers_canonical_cases():
    report = identity_suite(2, trials=1, seed=0)
    assert report.ok
    # the canonical all-ones scaling instance at (n=2, k=1) is the 1/3 case
    assert bell_scaling_identity_lhs_rhs(2, 1, (1, 1)) == (
        Fraction(1, 3),
        Fraction(1, 3),
    )
    assert any(e.method == "scaling" and e.n == 2 for e in report.entries)
    assert any(e.method == "zero-one" and e.n == 2 for e in report.entries)
    # at max_n=4 the canonical zero-one instances reach B_{4,2}(0,1,1) = 3
    wider = identity_suite(4, trials=1, seed=0)
    assert wider.ok
    assert any(e.method == "zero-one" and e.n == 4 for e in wider.entries)


def test_identity_suite_validates_input():
    with pytest.raises(ValueError):
        identity_suite(1, trials=1, seed=0)
    with pytest.raises(ValueError):
        identity_suite(4, trials=0, seed=0)


def test_report_serialization_shape():
    report = cross_verify(2, known_discrepancies=("alternating",))
    doc = report_to_dict(report)
    assert doc["max_n"] == 2
    assert doc["summary"]["checked"] == report.checked
    assert doc["summary"]["known_discrepancies"] == [[2, "alternating"]]
    assert doc["summary"]["mismatches"] == []
    assert all(
        set(e) == {"n", "method", "value", "agrees_with_oracle"}
        for e in doc["entries"]
    )
    table = report.to_table()
    assert "2 alternating 1/3 NO" in table
    assert "known discrepancies: (2, alternating)" in table


def test_entry_equality_ignores_elapsed_ns():
    entry = ReportEntry(2, "logan", Fraction(1, 6), True, 5)
    timed = ReportEntry(2, "logan", Fraction(1, 6), True, elapsed_ns=9000)
    assert entry == timed and not entry != timed
    assert hash(entry) == hash(timed)
    assert entry != ReportEntry(2, "logan", Fraction(1, 6), False, 5)
    # two runs time their formulas differently, and still report the same
    assert cross_verify(6) == cross_verify(6)


def dumped(report):
    """The reference rendering that `to_json` reproduces from templates."""
    return json.dumps(report_to_dict(report), sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("known", [(), ("alternating",)])
def test_to_json_equals_json_dumps(known):
    for max_n in range(1, 41):
        report = cross_verify(max_n, known)
        assert report.to_json() == dumped(report), max_n


def test_to_json_equals_json_dumps_with_mismatches():
    report = cross_verify(8, methods=(Method.ALTERNATING, Method.ORACLE, Method.GUO_QI))
    assert report.mismatches == tuple((n, "alternating") for n in (2, 4, 6, 8))
    assert report.to_json() == dumped(report)


def test_cross_verify_separates_known_discrepancies_from_mismatches(monkeypatch):
    import bernstir.verify as verify

    real = verify.bernoulli

    def logan_wrong_at_3(n, method, cells=None):
        value = real(n, method, cells=cells)
        return value + 1 if (n, method) == (3, Method.LOGAN) else value

    monkeypatch.setattr(verify, "bernoulli", logan_wrong_at_3)
    report = cross_verify(4, ("alternating",))
    assert not report.ok
    assert report.mismatches == ((3, "logan"),)
    assert report.known_discrepancies == ((2, "alternating"), (4, "alternating"))
    assert report.to_json() == dumped(report)


def test_to_json_equals_json_dumps_with_empty_lists():
    report = cross_verify(5, methods=(Method.THEOREM,))
    assert report.mismatches == report.known_discrepancies == ()
    assert report.to_json() == dumped(report)
    empty = VerificationReport(
        max_n=1, entries=(), checked=0, mismatches=(), known_discrepancies=()
    )
    assert empty.to_json() == dumped(empty)


def test_to_json_equals_json_dumps_for_identity_reports():
    report = identity_suite(8, 20, 1)
    assert report.identity_counts
    assert report.to_json() == dumped(report)
    # a failed identity, null values and unsorted counts render as json.dumps does
    failed = VerificationReport(
        max_n=3,
        entries=(ReportEntry(3, "scaling", None, False), ReportEntry(3, "egf", None, True)),
        checked=5,
        mismatches=((3, "scaling"),),
        known_discrepancies=(),
        identity_counts=(("scaling", 3, 2), ("egf", 2, 2)),
    )
    assert failed.to_json() == dumped(failed)


def test_to_json_renders_values_past_the_digit_limit():
    value = Fraction(-(10**5000) - 1, 3)
    report = VerificationReport(
        max_n=7,
        entries=(ReportEntry(7, "theorem", value, True),),
        checked=1,
        mismatches=(),
        known_discrepancies=(),
    )
    text = report.to_json()
    assert text == dumped(report)
    assert json.loads(text)["entries"][0]["value"] == "-1" + "0" * 4999 + "1/3"
