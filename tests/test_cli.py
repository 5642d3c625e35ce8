import contextlib
import copy
import io
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from sgq import BlockProfile, SuperMatrix, SuperRing, SuperShape
from sgq.cli import main
from sgq.flag import NCoordinates
from sgq.sampling import random_big_cell, random_big_cell_point, random_invertible, random_ncoords, trial_rng
from sgq.serialize import (
    canonical_dumps,
    encode_grassmann_point,
    encode_matrix,
    encode_ncoords,
    encode_presentation,
    encode_rational_point,
)
from sgq.smoothness import Presentation, RationalPoint


@pytest.fixture
def ring():
    return SuperRing([], ["t1", "t2"])


@pytest.fixture
def small_matrix_doc(ring, tmp_path):
    matrix = SuperMatrix(ring, SuperShape((1, 1), (1, 1)),
                         [[ring.one(), ring.gen("t1")], [ring.gen("t2"), ring.one()]])
    path = tmp_path / "g.json"
    path.write_text(canonical_dumps(encode_matrix(matrix)))
    return path


def run_cli(*argv):
    return main(list(argv))


def read(path):
    return json.loads(path.read_text())


def test_factor_command(small_matrix_doc, tmp_path, ring):
    out = tmp_path / "factored.json"
    code = run_cli("factor", "--in", str(small_matrix_doc), "--out", str(out), "--profile", "1,1,1,0")
    assert code == 0
    doc = read(out)
    assert doc["ok"] and doc["command"] == "factor"
    xi_entry = doc["n"]["xi"]["entries"][0][0]
    assert xi_entry["terms"] == [{"coeff": {"re": "1", "im": "0"}, "exp": [], "odd": [1]}]
    p_lower_left = doc["p"]["entries"][1][0]
    assert p_lower_left["terms"] == []


def test_ber_command(small_matrix_doc, tmp_path):
    out = tmp_path / "ber.json"
    assert run_cli("ber", "--in", str(small_matrix_doc), "--out", str(out)) == 0
    doc = read(out)
    # Ber = 1 - t1*t2
    assert doc["result"]["terms"] == [
        {"coeff": {"re": "1", "im": "0"}, "exp": [], "odd": []},
        {"coeff": {"re": "-1", "im": "0"}, "exp": [], "odd": [0, 1]},
    ]


def test_minv_command(small_matrix_doc, tmp_path, ring):
    out = tmp_path / "inv.json"
    assert run_cli("minv", "--in", str(small_matrix_doc), "--out", str(out)) == 0
    from sgq.serialize import parse_matrix

    inverse = parse_matrix(read(out)["result"])
    original = parse_matrix(read(small_matrix_doc))
    assert original * inverse == SuperMatrix.identity(ring, 1, 1)


def test_coset_eq_command(small_matrix_doc, tmp_path):
    out = tmp_path / "eq.json"
    code = run_cli("coset-eq", "--in", str(small_matrix_doc), "--in2", str(small_matrix_doc),
                   "--out", str(out), "--profile", "1,1,1,0")
    assert code == 0 and read(out)["equal"] is True


def test_orbit_and_chart_roundtrip(ring, tmp_path):
    bp = BlockProfile(1, 1, 1, 0)
    coords = NCoordinates(
        bp,
        SuperMatrix.zeros(ring, SuperShape((0, 0), (1, 0))),
        SuperMatrix.zeros(ring, SuperShape((0, 0), (0, 0))),
        SuperMatrix(ring, SuperShape((0, 1), (1, 0)), [[ring.gen("t2")]]),
        SuperMatrix.zeros(ring, SuperShape((0, 1), (0, 0))),
    )
    nc_path = tmp_path / "nc.json"
    nc_path.write_text(canonical_dumps(encode_ncoords(coords)))
    up_path = tmp_path / "up.json"
    assert run_cli("chart-up", "--in", str(nc_path), "--out", str(up_path), "--profile", "1,1,1,0") == 0
    point_doc = read(up_path)["result"]
    point_path = tmp_path / "pt.json"
    point_path.write_text(canonical_dumps(point_doc))
    down_path = tmp_path / "down.json"
    assert run_cli("chart-down", "--in", str(point_path), "--out", str(down_path), "--profile", "1,1,1,0") == 0
    assert read(down_path)["result"] == read(nc_path)


@pytest.mark.parametrize("m, n", [(2, 2), (2, 0), (0, 2)])
def test_orbit_then_chart_down_with_an_empty_span(ring, tmp_path, m, n):
    # at r = s = 0 the span orbit writes has no cell to carry the ring, and
    # the coordinates chart-down writes have none either
    bp = BlockProfile(m, n, 0, 0)
    profile = f"{m},{n},0,0"
    g_path = tmp_path / "g.json"
    g_path.write_text(canonical_dumps(random_big_cell(ring, bp, trial_rng(0, "empty span", m))))
    orbit_path, point_path, down_path = tmp_path / "orbit.json", tmp_path / "pt.json", tmp_path / "down.json"
    assert run_cli("orbit", "--in", str(g_path), "--out", str(orbit_path), "--profile", profile) == 0
    point_path.write_text(canonical_dumps(read(orbit_path)["result"]))
    assert run_cli("chart-down", "--in", str(point_path), "--out", str(down_path), "--profile", profile) == 0
    assert read(down_path)["result"] == encode_ncoords(NCoordinates.zero(SuperRing(), bp))


def _empty_matrix_doc(tmp_path, rows):
    # a matrix with no cell names no ring; it is read over the empty ring
    path = tmp_path / "empty.json"
    path.write_text(canonical_dumps(SuperMatrix.zeros(SuperRing(), SuperShape((rows, 0), (0, 0)))))
    return path


def test_minv_and_ber_of_the_empty_matrix(tmp_path):
    path, out = _empty_matrix_doc(tmp_path, 0), tmp_path / "out.json"
    assert run_cli("minv", "--in", str(path), "--out", str(out)) == 0
    assert read(out)["result"] == read(path)
    assert run_cli("ber", "--in", str(path), "--out", str(out)) == 0
    assert read(out)["result"] == json.loads(canonical_dumps(SuperRing().one()))


_ROUND_TRIP_RINGS = (SuperRing([], []), SuperRing([], ["t1", "t2"]))


@settings(deadline=None, max_examples=30)
@given(ring=st.sampled_from(_ROUND_TRIP_RINGS), m=st.integers(0, 3), n=st.integers(0, 3), seed=st.integers(0, 10 ** 6))
@example(ring=_ROUND_TRIP_RINGS[1], m=0, n=0, seed=0)
@example(ring=_ROUND_TRIP_RINGS[1], m=0, n=2, seed=0)
@example(ring=_ROUND_TRIP_RINGS[1], m=2, n=0, seed=0)
@example(ring=_ROUND_TRIP_RINGS[0], m=2, n=2, seed=0)
def test_minv_round_trips_and_inverts_ber(ring, m, n, seed):
    # minv of minv's output writes the input document back byte for byte,
    # and ber of minv's output is the inverse of ber of the input
    from sgq.serialize import parse_element

    text = canonical_dumps(random_invertible(ring, trial_rng(seed, "cli.round_trip", 4 * m + n), m, n))
    with tempfile.TemporaryDirectory() as scratch:
        folder = Path(scratch)
        docs = [folder / "g.json", folder / "inverse.json", folder / "again.json"]
        docs[0].write_text(text)
        for source, target in zip(docs, docs[1:]):
            out = folder / "out.json"
            assert run_cli("minv", "--in", str(source), "--out", str(out)) == 0
            target.write_text(canonical_dumps(read(out)["result"]))
        assert docs[2].read_text() == text
        bers = []
        for source in docs[:2]:
            out = folder / "ber.json"
            assert run_cli("ber", "--in", str(source), "--out", str(out)) == 0
            bers.append(parse_element(read(out)["result"]))
    assert (bers[0] * bers[1]).is_one()


@st.composite
def _closure_cases(draw):
    m, n = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    bp = BlockProfile(m, n, draw(st.integers(0, m)), draw(st.integers(0, n)))
    return bp, SuperRing([], [f"t{k}" for k in range(1, draw(st.sampled_from((0, 2))) + 1)]), draw(st.integers(0, 10 ** 6))


@settings(deadline=None, max_examples=40)
@given(_closure_cases())
@example((BlockProfile(3, 3, 1, 2), SuperRing([], ["t1", "t2"]), 0))
@example((BlockProfile(2, 2, 0, 0), SuperRing([], ["t1", "t2"]), 0))
@example((BlockProfile(3, 3, 3, 3), SuperRing([], []), 0))
@example((BlockProfile(0, 0, 0, 0), SuperRing([], []), 0))
def test_written_documents_read_back(case):
    # every chain of commands on the documents the CLI writes exits 0:
    # orbit -> chart-down and factor's n -> chart-up -> chart-down, both of
    # which give factor's n; factor's p -> ber
    bp, ring, seed = case
    profile = f"{bp.m},{bp.n},{bp.r},{bp.s}"
    g = random_big_cell(ring, bp, trial_rng(seed, "cli.closure", bp.m * 4 + bp.n))
    with tempfile.TemporaryDirectory() as scratch:
        folder = Path(scratch)

        def step(command, doc):
            source, out = folder / f"{command}.in.json", folder / f"{command}.out.json"
            source.write_text(canonical_dumps(doc))
            assert run_cli(command, "--in", str(source), "--out", str(out), "--profile", profile) == 0
            return read(out)

        down = step("chart-down", step("orbit", encode_matrix(g))["result"])["result"]
        factor = step("factor", encode_matrix(g))
        assert down == factor["n"]
        point = step("chart-up", factor["n"])["result"]
        assert step("chart-down", point)["result"] == factor["n"]
        ber_in, ber_out = folder / "p.json", folder / "ber.json"
        ber_in.write_text(canonical_dumps(factor["p"]))
        assert run_cli("ber", "--in", str(ber_in), "--out", str(ber_out)) == 0


@pytest.mark.parametrize("command", ["minv", "ber"])
def test_a_non_square_matrix_with_no_cell_is_a_domain_error(tmp_path, command):
    path, out = _empty_matrix_doc(tmp_path, 2), tmp_path / "out.json"
    assert run_cli(command, "--in", str(path), "--out", str(out)) == 1
    assert read(out)["error"]["name"] == "ShapeMismatch"


def test_smooth_command(tmp_path):
    ring = SuperRing(["x"], ["s1", "s2"])
    pres = Presentation(SuperRing(), ["x"], ["s1", "s2"],
                        [ring.gen("x") ** 2 - ring.one() + ring.gen("s1") * ring.gen("s2")], [])
    pres_path = tmp_path / "pres.json"
    pres_path.write_text(canonical_dumps(encode_presentation(pres)))
    pt_path = tmp_path / "pt.json"
    pt_path.write_text(canonical_dumps(encode_rational_point(RationalPoint({"x": 1}))))
    out = tmp_path / "verdict.json"
    assert run_cli("smooth", "--in", str(pres_path), "--in2", str(pt_path), "--out", str(out)) == 0
    doc = read(out)
    assert doc["smooth"] is True
    assert doc["relative_dimension"] == [0, 2]
    assert doc["etale"] is False


def test_domain_error_exit_code(ring, tmp_path):
    # singular body: factor must fail with a named domain error
    matrix = SuperMatrix(ring, SuperShape((1, 1), (1, 1)),
                         [[ring.zero(), ring.gen("t1")], [ring.gen("t2"), ring.one()]])
    path = tmp_path / "singular.json"
    path.write_text(canonical_dumps(encode_matrix(matrix)))
    out = tmp_path / "err.json"
    code = run_cli("factor", "--in", str(path), "--out", str(out), "--profile", "1,1,1,0")
    assert code == 1
    doc = read(out)
    assert doc["ok"] is False
    assert doc["error"]["name"] == "NotInBigCell"


def test_malformed_json_exit_code(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert run_cli("ber", "--in", str(path)) == 2
    assert "not valid JSON" in capsys.readouterr().err


@pytest.mark.parametrize("data, reason", [
    (b"\xff\xfe{", "is not UTF-8 text"),
    (b"[" * 100000, "too deeply"),
    (b"1" * 5000, "too long to read"),
])
def test_unreadable_json_exit_code(tmp_path, capsys, data, reason):
    path = tmp_path / "unreadable.json"
    path.write_bytes(data)
    assert run_cli("ber", "--in", str(path)) == 2
    err = capsys.readouterr().err
    assert reason in err and "Traceback" not in err and len(err) < 400


def test_cached_parser_gives_fresh_bytes(small_matrix_doc, tmp_path):
    argv = ["factor", "--in", str(small_matrix_doc), "--profile", "1,1,1,0", "--out"]
    first, second, third = (tmp_path / f"{k}.json" for k in range(3))
    assert run_cli(*argv, str(first)) == 0
    with pytest.raises(SystemExit) as exit_info:
        run_cli("nope")
    assert exit_info.value.code == 2
    assert run_cli(*argv, str(second)) == 0
    assert run_cli(*argv, str(third)) == 0
    fresh = subprocess.run([sys.executable, "-m", "sgq", *argv[:-1]], capture_output=True, check=True)
    assert first.read_bytes() == second.read_bytes() == third.read_bytes() == fresh.stdout


def test_missing_file_exit_code(tmp_path, capsys):
    assert run_cli("ber", "--in", str(tmp_path / "absent.json")) == 2
    assert "cannot read" in capsys.readouterr().err


def test_schema_violation_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"shape": {"rows": [1, 0]}, "entries": []}))
    assert run_cli("ber", "--in", str(path)) == 2


@pytest.mark.parametrize("coeff", ["1e3", {"re": "1", "im": "2E1"}])
def test_exponent_coefficient_is_malformed(tmp_path, capsys, coeff):
    # Fraction would expand an exponent to all its digits; the parser refuses it
    entry = {"ring": {"even": [], "odd": []}, "terms": [{"coeff": coeff, "exp": [], "odd": []}]}
    path = tmp_path / "exp.json"
    path.write_text(json.dumps({"shape": {"rows": [1, 0], "cols": [1, 0]}, "entries": [[entry]]}))
    assert run_cli("ber", "--in", str(path)) == 2
    assert "exponent notation" in capsys.readouterr().err


def test_long_coefficient_echo_is_bounded(tmp_path, capsys):
    # 5,000 digits exceed the interpreter's int parsing limit: a schema error
    # whose diagnostic quotes the start of the value and its length only
    entry = {"ring": {"even": [], "odd": []}, "terms": [{"coeff": "7" * 5000, "exp": [], "odd": []}]}
    path = tmp_path / "long.json"
    path.write_text(json.dumps({"shape": {"rows": [1, 0], "cols": [1, 0]}, "entries": [[entry]]}))
    assert run_cli("ber", "--in", str(path)) == 2
    err = capsys.readouterr().err
    assert "(5000 characters)" in err and len(err) < 400


# (10^2200 + 1)^2 = 10^4400 + 2 * 10^2200 + 1: 4,401 digits, over the 4,300 that
# str() of an int writes by default
_BIG = 10 ** 2200 + 1
_BIG_SQUARED = "1" + "0" * 2199 + "2" + "0" * 2199 + "1"


def _diagonal_doc(tmp_path, entry, other=None):
    ring = entry.ring
    other = entry if other is None else other
    matrix = SuperMatrix(ring, SuperShape((2, 0), (2, 0)), [[entry, ring.zero()], [ring.zero(), other]])
    path = tmp_path / "diagonal.json"
    path.write_text(canonical_dumps(encode_matrix(matrix)))
    return path


def test_result_over_the_int_str_digit_limit(ring, tmp_path):
    # a result that no reader could read back is not written: exit 1 with
    # the locus of the coefficient
    out = tmp_path / "ber.json"
    assert run_cli("ber", "--in", str(_diagonal_doc(tmp_path, ring.scalar(_BIG))), "--out", str(out)) == 1
    assert read(out)["error"] == {"name": "LimitExceeded",
                                  "detail": "result.terms[0].coeff.re: 4401 digits, over the 4300 that reading accepts"}


@pytest.mark.parametrize("a, b, digits", [(10 ** 2149 + 1, 10 ** 2149 + 1, 4299),
                                           (10 ** 2150, 3 * 10 ** 2149, 4300),
                                           (10 ** 2150 + 1, 10 ** 2150 + 1, 4301)])
def test_result_digits_at_the_reading_limit(ring, tmp_path, a, b, digits):
    # Ber of diag(a, b) is a * b: written, and read back, up to 4,300 digits
    out = tmp_path / "ber.json"
    code = run_cli("ber", "--in", str(_diagonal_doc(tmp_path, ring.scalar(a), ring.scalar(b))), "--out", str(out))
    if digits > 4300:
        assert code == 1
        assert read(out)["error"]["detail"] == f"result.terms[0].coeff.re: {digits} digits, over the 4300 that reading accepts"
        return
    assert code == 0
    coeff = read(out)["result"]["terms"][0]["coeff"]
    assert len(coeff["re"]) == digits
    entry = {"ring": {"even": [], "odd": ["t1", "t2"]}, "terms": [{"coeff": coeff, "exp": [], "odd": []}]}
    again = tmp_path / "again.json"
    again.write_text(json.dumps({"shape": {"rows": [1, 0], "cols": [1, 0]}, "entries": [[entry]]}))
    assert run_cli("ber", "--in", str(again), "--out", str(out)) == 0
    assert read(out)["result"]["terms"][0]["coeff"] == coeff


@pytest.mark.parametrize("exponent, digits", [(10 ** 4299, 4300), (5 * 10 ** 4299, 4301)])
def test_result_exponent_digits_at_the_reading_limit(tmp_path, exponent, digits):
    # Ber of diag(x^E, x^E) is x^(2E): written, and read back, up to 4,300 digits
    ring = SuperRing(["x"], [])
    power = ring.element({((exponent,), 0): 1})
    out = tmp_path / "ber.json"
    code = run_cli("ber", "--in", str(_diagonal_doc(tmp_path, power)), "--out", str(out))
    if digits > 4300:
        assert code == 1
        assert read(out)["error"] == {"name": "LimitExceeded",
                                      "detail": "result.terms[0].exp[0]: 4301 digits, over the 4300 that reading accepts"}
        return
    assert code == 0
    result = read(out)["result"]
    assert result["terms"][0]["exp"] == [2 * exponent]
    again = tmp_path / "again.json"
    again.write_text(json.dumps({"shape": {"rows": [1, 0], "cols": [1, 0]}, "entries": [[result]]}))
    assert run_cli("ber", "--in", str(again), "--out", str(out)) == 0
    assert read(out)["result"] == result


def test_inverse_entry_over_the_digit_limit_names_its_place(ring, tmp_path):
    # the inverse of a unitriangular (3|0) matrix holds the product of its two
    # 2,151-digit entries, 4,301 digits, at (0, 2)
    one, zero, big = ring.one(), ring.zero(), ring.scalar(10 ** 2150 + 1)
    matrix = SuperMatrix(ring, SuperShape((3, 0), (3, 0)), [[one, big, zero], [zero, one, big], [zero, zero, one]])
    path = tmp_path / "unitriangular.json"
    path.write_text(canonical_dumps(encode_matrix(matrix)))
    out = tmp_path / "minv.json"
    assert run_cli("minv", "--in", str(path), "--out", str(out)) == 1
    detail = read(out)["error"]["detail"]
    assert detail == "result.entries[0][2].terms[0].coeff.re: 4301 digits, over the 4300 that reading accepts"


def test_error_detail_over_the_int_str_digit_limit(tmp_path):
    ring = SuperRing(["x"], [])
    out = tmp_path / "minv.json"
    entry = ring.scalar(_BIG) * ring.gen("x")
    assert run_cli("minv", "--in", str(_diagonal_doc(tmp_path, entry)), "--out", str(out)) == 1
    detail = read(out)["error"]["detail"]
    assert detail == f"even-even block is singular: determinant is not a unit: body {_BIG_SQUARED}*x^2"


def test_missing_profile_is_malformed(small_matrix_doc, capsys):
    assert run_cli("factor", "--in", str(small_matrix_doc)) == 2
    assert "--profile" in capsys.readouterr().err


def test_unknown_suite_is_domain_error(tmp_path):
    out = tmp_path / "report.json"
    code = run_cli("proptest", "--suite", "nonsense", "--trials", "1", "--seed", "0", "--out", str(out))
    assert code == 1
    assert read(out)["error"]["name"] == "UnknownSuite"


def test_proptest_zero_trials(tmp_path):
    out = tmp_path / "report.json"
    code = run_cli("proptest", "--suite", "factorization", "--trials", "0", "--seed", "1", "--out", str(out))
    assert code == 0
    doc = read(out)
    assert doc["passed"] is True
    assert all(p["trials"] == 0 for p in doc["properties"])


def test_proptest_deterministic_bytes(tmp_path):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    argv_tail = ["--suite", "kernel", "--trials", "25", "--seed", "42", "--size", "2,2,1,1,4"]
    assert run_cli("proptest", "--out", str(first), *argv_tail) == 0
    assert run_cli("proptest", "--out", str(second), *argv_tail) == 0
    assert first.read_bytes() == second.read_bytes()


def test_proptest_rejects_nonpositive_coeff_bound(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = run_cli("proptest", "--suite", "kernel", "--trials", "1", "--size", "2,2,1,1,4,0", "--out", str(out))
    assert code == 2
    assert "coeff" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, flag", [
    (["--size", "2,2,3,1,4"], "--size"),
    (["--size=-1,2,0,1,4"], "--size"),
    (["--size", "2,2,1,1,-1"], "--size"),
    (["--trials", "-3"], "--trials"),
])
def test_proptest_rejects_bad_size_and_trials(tmp_path, capsys, argv, flag):
    out = tmp_path / "report.json"
    code = run_cli("proptest", "--suite", "factorization", "--out", str(out), *argv)
    assert code == 2
    assert flag in capsys.readouterr().err
    assert not out.exists()


def test_matrix_suite_seeded_run(tmp_path):
    out = tmp_path / "report.json"
    code = run_cli("proptest", "--suite", "matrix", "--trials", "10", "--seed", "42",
                   "--size", "2,2,1,1,4", "--out", str(out))
    assert code == 0
    doc = read(out)
    assert doc["passed"] is True
    ber = [p for p in doc["properties"] if p["name"] == "matrix.ber_multiplicative"]
    assert ber and ber[0]["failures"] == 0


def test_module_entry_point(small_matrix_doc):
    result = subprocess.run(
        [sys.executable, "-m", "sgq", "ber", "--in", str(small_matrix_doc)],
        capture_output=True, text=True,
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["ok"] is True


def test_smooth_with_a_generator_in_base_and_fiber_is_malformed(tmp_path, capsys):
    pres = {"base": {"even": ["x"], "odd": []}, "fiber": {"even": ["x"], "odd": []},
            "relations_even": [], "relations_odd": []}
    pres_path, pt_path = tmp_path / "pres.json", tmp_path / "pt.json"
    pres_path.write_text(json.dumps(pres))
    pt_path.write_text(json.dumps({"values": {"x": "1"}}))
    assert run_cli("smooth", "--in", str(pres_path), "--in2", str(pt_path)) == 2
    assert capsys.readouterr().err == "sgq smooth: presentation: generator names must be distinct: ('x', 'x')\n"


def test_chart_up_reports_the_locus_of_the_ring_it_peeks_at(ring, tmp_path, capsys):
    bp = BlockProfile(2, 2, 1, 1)
    doc = encode_ncoords(random_ncoords(ring, bp, trial_rng(0, "peek", 0)))
    doc["u"]["entries"][0][0]["ring"]["even"] = [1]
    path = tmp_path / "nc.json"
    path.write_text(json.dumps(doc))
    assert run_cli("chart-up", "--in", str(path), "--profile", "2,2,1,1") == 2
    assert capsys.readouterr().err == "sgq chart-up: ncoords.u.entries[0][0].ring: variable names must be strings\n"


@pytest.mark.parametrize("name", ["a\nb", "\tt", "t\u2028"])
def test_unprintable_generator_names_are_malformed(tmp_path, capsys, name):
    # a name quoted in a diagnostic must not break it over several lines
    cell = {"ring": {"even": [], "odd": [name]}, "terms": [{"coeff": "1", "exp": [], "odd": [0]}]}
    matrix_path = tmp_path / "m.json"
    matrix_path.write_text(json.dumps({"shape": {"rows": [1, 0], "cols": [1, 0]}, "entries": [[cell]]}))
    assert run_cli("ber", "--in", str(matrix_path)) == 2
    assert capsys.readouterr().err == "sgq ber: matrix.entries[0][0].ring: variable names must be printable\n"
    pres = {"base": {"even": [], "odd": []}, "fiber": {"even": ["x"], "odd": []},
            "relations_even": [], "relations_odd": []}
    pres_path, pt_path = tmp_path / "pres.json", tmp_path / "pt.json"
    pres_path.write_text(json.dumps(pres))
    pt_path.write_text(json.dumps({"values": {"x": "1", name: "y"}}))
    assert run_cli("smooth", "--in", str(pres_path), "--in2", str(pt_path)) == 2
    assert capsys.readouterr().err == "sgq smooth: point.values: variable names must be printable\n"


# -- every parse entry point on broken documents -----------------------------------

_JSON_VALUES = [None, True, False, 0, -1, 2, 10 ** 30, 1.5, "", "x", "1/2", [], [0], ["x"], {}, {"re": "1"}]


@st.composite
def _profiles(draw):
    m, n = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    return BlockProfile(m, n, draw(st.integers(0, m)), draw(st.integers(0, n)))


@st.composite
def _valid_inputs(draw, command):
    """A command's valid input documents, at most (2|2) with q <= 3, and its
    --profile argument (or None)."""
    bp = draw(_profiles())
    ring = SuperRing([], [f"t{k}" for k in range(1, draw(st.integers(0, 3)) + 1)])
    rng = trial_rng(draw(st.integers(0, 3)), "fuzz", 0)
    profile = f"{bp.m},{bp.n},{bp.r},{bp.s}"
    if command == "ber":
        return [encode_matrix(random_big_cell(ring, bp, rng))], None
    if command == "chart-down":
        return [encode_grassmann_point(random_big_cell_point(ring, bp, rng))], profile
    if command == "chart-up":
        return [encode_ncoords(random_ncoords(ring, bp, rng))], profile
    total = SuperRing(["x"], ["s1", "s2"])
    x, s1, s2 = total.gen("x"), total.gen("s1"), total.gen("s2")
    pres = Presentation(SuperRing(), ["x"], ["s1", "s2"], [x ** 2 - total.one() + s1 * s2], [s1 * x])
    return [encode_presentation(pres), encode_rational_point(RationalPoint({"x": 1}))], None


def _nodes(doc):
    """Every (container, key) pair below doc."""
    found = []
    stack = [doc]
    while stack:
        node = stack.pop()
        keys = node.keys() if isinstance(node, dict) else range(len(node)) if isinstance(node, list) else ()
        for key in keys:
            found.append((node, key))
            stack.append(node[key])
    return found


def _mutate(draw, doc):
    """Apply one drawn mutation to doc in place, if any node suits it."""
    nodes = _nodes(doc)
    kind = draw(st.sampled_from(["drop", "retype", "odd", "exp", "duplicate", "parity", "names"]))
    if kind in ("drop", "retype"):
        candidates = nodes
    elif kind in ("odd", "exp"):
        candidates = [(node, key) for node, key in nodes if key == kind]
    elif kind in ("duplicate", "parity"):
        candidates = [(node, key) for node, key in nodes if key == "terms" and isinstance(node[key], list)
                      and node[key]]
    else:
        # the name lists of rings, not the odd indices of terms
        candidates = [(node, key) for node, key in nodes if key in ("even", "odd") and "coeff" not in node
                      and isinstance(node[key], list)]
    if not candidates:
        return
    node, key = draw(st.sampled_from(candidates))
    if kind == "drop":
        del node[key]
    elif kind == "retype":
        node[key] = copy.deepcopy(draw(st.sampled_from(_JSON_VALUES)))
    elif kind == "odd":
        node[key] = draw(st.sampled_from([[-1], [5], [1, 0], [0, 0], [10 ** 30], [True]]))
    elif kind == "exp":
        node[key] = draw(st.sampled_from([[0], [-1], [0, 0], [True]]))
    elif kind == "duplicate":
        node[key].append(copy.deepcopy(draw(st.sampled_from(node[key]))))
    elif kind == "parity":
        for term in node[key]:
            odd = term.get("odd") if isinstance(term, dict) else None
            if isinstance(odd, list) and all(type(i) is int for i in odd):
                term["odd"] = sorted(set(odd) ^ {0})
    else:
        # replace a name, or add one at the end; some names break a line
        name = draw(st.sampled_from(["x", "s1", "t1", "t\n1", "\tx", "s\u2028"]))
        spot = draw(st.integers(0, len(node[key])))
        node[key] = node[key][:spot] + [name] + node[key][spot + 1:]


@pytest.mark.parametrize("command", ["ber", "chart-down", "chart-up", "smooth"])
@settings(deadline=None)
@given(data=st.data())
def test_broken_documents_end_in_an_exit_status(command, data):
    docs, profile = data.draw(_valid_inputs(command))
    for _ in range(data.draw(st.integers(1, 3))):
        _mutate(data.draw, data.draw(st.sampled_from(docs)))
    with tempfile.TemporaryDirectory() as work:
        argv = [command]
        for flag, doc in zip(["--in", "--in2"], docs):
            path = Path(work) / f"{flag[2:]}.json"
            path.write_text(json.dumps(doc))
            argv += [flag, str(path)]
        if profile:
            argv += ["--profile", profile]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(argv + ["--out", str(Path(work) / "out.json")])
    assert code in (0, 1, 2)
    if code == 2:
        # splitlines also breaks at the separators that a name may hold, such as U+2028
        assert err.getvalue().endswith("\n") and len(err.getvalue().splitlines()) == 1
