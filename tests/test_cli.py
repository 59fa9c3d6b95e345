import contextlib
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from commutants import (
    CycloScalar,
    FieldError,
    FieldTag,
    InvalidSpec,
    Matrix,
    ParseError,
    Poly,
    QQ,
    RaggedRows,
    eval_at_matrix,
    invariant_factors,
)
from commutants.cli import _read, main, matrix_json, parse_matrix
from commutants.matrices import _lift, _same
from helpers import (
    PAIR5_A,
    PAIR5_B,
    PAIR5_A_FROM_B,
    PAIR5_B_FROM_A,
    ODD4_A,
    ODD4_B,
    conjugated,
    cyclo3_jordan,
    mat,
    perturb_first_coordinate,
    poly,
    reference_potter_samples,
)


def write_matrix(path, M):
    path.write_text(json.dumps(matrix_json(M)))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    cap = capsys.readouterr()
    out = json.loads(cap.out) if cap.out.strip() else None
    return code, out, cap.err


# ---------------------------------------------------------------- parsing

def test_parse_matrix_rational():
    A = parse_matrix('{"field": "Q", "rows": [[0, 1], [0, 0]]}')
    assert A == Matrix.jordan(2, 0, QQ)
    B = parse_matrix('{"field": "Q", "rows": [["2/3", -1], ["0/5", "7"]]}')
    assert B.at(0, 0) == Fraction(2, 3)
    assert B.at(1, 0) == 0


def test_parse_matrix_accepts_bytes():
    A = parse_matrix(b'{"field": "Q", "rows": [[1]]}')
    assert A.at(0, 0) == 1
    with pytest.raises(ParseError):
        parse_matrix(b"\xff\xfe")


def test_parse_matrix_cyclotomic():
    text = json.dumps({
        "field": {"cyclotomic": 6},
        "rows": [[[0, 0, 1, 0], 0], [0, [0, 0, 0, 1]]],
    })
    A = parse_matrix(text)
    z = CycloScalar.zeta(6)
    assert A == Matrix.diag([z ** 2, z ** 3], A.field)


def test_parse_matrix_errors():
    with pytest.raises(RaggedRows):
        parse_matrix('{"field": "Q", "rows": [[1, 2], [3]]}')
    with pytest.raises(FieldError):
        parse_matrix('{"field": "Q", "rows": [[1.5]]}')
    with pytest.raises(FieldError):
        parse_matrix('{"field": "Q", "rows": [[true]]}')
    with pytest.raises(FieldError):
        parse_matrix('{"field": "Q", "rows": [["nope"]]}')
    with pytest.raises(FieldError):
        parse_matrix('{"field": "Q", "rows": [[[1, 0]]]}')
    with pytest.raises(FieldError):
        parse_matrix('{"field": "R", "rows": [[1]]}')
    with pytest.raises(ParseError):
        parse_matrix('{"rows": [[1]]}')
    with pytest.raises(ParseError):
        parse_matrix('{"field": "Q", "rows": []}')
    with pytest.raises(ParseError):
        parse_matrix('[1, 2]')


@pytest.mark.parametrize("field, rows, message", [
    ("Q", [[True]], "row 0, column 0: booleans are not scalars"),
    ("Q", [[1.0]], "row 0, column 0: floats are not accepted, use \"p/q\" strings"),
    ({"cyclotomic": 3}, [[[1, True]]], "row 0, column 0: booleans are not scalars"),
    # a value parsed earlier never stands for a JSON value of another type
    ("Q", [[1, True]], "row 0, column 1: booleans are not scalars"),
    ("Q", [[1, 1.0]], "row 0, column 1: floats are not accepted, use \"p/q\" strings"),
    ({"cyclotomic": 3}, [[[1, 1], [1, True]]], "row 0, column 1: booleans are not scalars"),
    ({"cyclotomic": 3}, [[[2, 1], [2, 1.0]]], "row 0, column 1: floats are not accepted, use \"p/q\" strings"),
    # a bad value repeated across the matrix is reported where it first occurs
    ("Q", [[1, "1/0"], ["1/0", "1/0"]], "row 0, column 1: bad rational '1/0'"),
    ({"cyclotomic": 3}, [[0, [0, {}]], [[0, {}], 0]], "row 0, column 1: cannot read scalar from dict"),
])
def test_parse_matrix_scalar_errors_name_the_first_position(field, rows, message):
    with pytest.raises(FieldError) as info:
        parse_matrix(json.dumps({"field": field, "rows": rows}))
    assert str(info.value) == message


# spellings on both sides of the int() reader's ASCII p, -p and p/q; the
# outcome of each is Fraction's on the running Python, whose grammar
# differs across versions ("2 / 3" is read from 3.12 on), and the
# 5,000-digit numerator is past the int-string limit
READER_CORPUS = ["0", "-0", "007", "+3", " 3 ", "1.5", "1e3", "1_000", "\u0663", "\u00b2", "-", "", "1/0", "0/0",
                 "3/-4", "2 / 3", "1/2/3", "7" * 5000, "7" * 5000 + "/3", "--3", "1/", "/3", "-6/4", "006/-0",
                 "2/4", "-0/5", "10/000"]
reader_strings = st.one_of(
    st.builds(lambda p, q: f"{p}/{q}", st.integers(-10 ** 6, 10 ** 6), st.integers(-9, 10 ** 6)),
    st.lists(st.sampled_from(["0", "1", "7", "00", "-", "+", "/", " ", "_", ".", "e", "\u0663", "\u00b2"]), max_size=7).map("".join),
)
INT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


def _int_spelling(raw) -> bool:
    """Whether the reader takes raw by int(): "p", "-p" or "p/q" in ASCII
    digits with q nonzero, each part within the int-string limit."""
    parts = re.fullmatch(r"-?([0-9]+)(?:/([0-9]+))?", raw, re.ASCII)
    return bool(parts) and (parts[2] is None or int(parts[2]) != 0) and (
        not INT_LIMIT or all(len(p) <= INT_LIMIT for p in parts.groups() if p))


@contextlib.contextmanager
def _fraction_fallbacks():
    """The raw scalars the reader hands to cli._parse_fraction meanwhile."""
    import commutants.cli as cli
    seen, plain = [], cli._parse_fraction

    def spy(raw, where):
        seen.append(raw)
        return plain(raw, where)

    cli._parse_fraction = spy
    try:
        yield seen
    finally:
        cli._parse_fraction = plain


def _check_reader_parity(raw):
    try:
        want = Fraction(raw)
    except (ValueError, ZeroDivisionError):
        want = None
    cases = [(QQ, [[1, raw], [raw, 0]], 1), (FieldTag.cyclotomic(3), [[1, [0, raw]], [[0, raw], 0]], CycloScalar.zeta(3))]
    # arrays longer than phi are folded mod Phi_q: zeta^(q-1) + zeta^(q+1)
    for q in (5, 6, 12):
        arr = [0] * (q - 1) + [raw, 0, raw]
        cases.append((FieldTag.cyclotomic(q), [[1, arr], [arr, 0]], CycloScalar.zeta(q, -1) + CycloScalar.zeta(q)))
    for field, rows, unit in cases:
        text = json.dumps({"field": "Q" if field == QQ else {"cyclotomic": field.q}, "rows": rows})
        if want is None:
            with pytest.raises(FieldError) as info:
                parse_matrix(text)
            assert str(info.value) == f"row 0, column 1: bad rational {raw!r}"
            continue
        with _fraction_fallbacks() as fallbacks:
            L = _read(text)
        # the lifted rows are _lift's, row for row and denominator for denominator
        expected = _lift(Matrix.make(rows, field))
        assert _same(L, expected) and L == expected
        if _int_spelling(raw):
            assert fallbacks == []
        A = parse_matrix(text)
        assert A.at(0, 1) == A.at(1, 0) == want * unit
        if field == QQ:
            assert type(A.at(0, 1)) is Fraction


@pytest.mark.parametrize("raw", READER_CORPUS)
def test_parse_matrix_reads_strings_as_fraction_does(raw):
    _check_reader_parity(raw)


@settings(max_examples=300, deadline=None)
@given(reader_strings)
def test_parse_matrix_reads_generated_strings_as_fraction_does(raw):
    _check_reader_parity(raw)


def test_parse_matrix_repeated_entries_match_make():
    from commutants import FieldTag
    f5 = FieldTag.cyclotomic(5)
    # a coefficient list longer than phi = 4 is still reduced mod Phi_5
    long = [0, 0, 0, 0, 1]
    rows = [[long, "1/2", 0, long], [0, [1, "-1/3"], "1/2", 0], ["1/2", long, 0, [1, "-1/3"]]]
    A = parse_matrix(json.dumps({"field": {"cyclotomic": 5}, "rows": rows}))
    assert A == Matrix.make(rows, f5)
    assert A.at(0, 0) == A.at(0, 3) == CycloScalar(5, (-1, -1, -1, -1))
    rows = [["2/4", 7, "2/4"], [0, "-3", 0], [7, 7, "1/2"]]
    assert parse_matrix(json.dumps({"field": "Q", "rows": rows})) == Matrix.make(rows, QQ)


def test_parse_matrix_reports_json_position():
    try:
        parse_matrix('{"field": "Q",\n "rows": [[1,]]}')
    except ParseError as exc:
        assert exc.line == 2
        assert exc.column is not None
    else:
        pytest.fail("expected ParseError")


def test_round_trip_rational_and_cyclotomic():
    from commutants import FieldTag
    for M in (mat([[1, Fraction(2, 3)], [0, -4]]),
              Matrix.jordan(3, Fraction(1, 2), QQ)):
        assert parse_matrix(json.dumps(matrix_json(M))) == M
    z = CycloScalar.zeta(5)
    C = Matrix.make([[z, z ** 2], [z - z, z ** 4 + 1]], FieldTag.cyclotomic(5))
    assert parse_matrix(json.dumps(matrix_json(C))) == C


# ---------------------------------------------------------------- analyze

def test_analyze_nilpotent(tmp_path, capsys):
    f = write_matrix(tmp_path / "a.json", Matrix.jordan(3, 0, QQ))
    code, out, _ = run(capsys, ["analyze", f])
    assert code == 0
    assert out["structure"]["is_nilpotent"] is True
    assert out["structure"]["min_equals_char"] is True
    assert out["flags"]["balanced"] is True
    assert out["flags"]["clifforder_has_invertible"] is True
    assert out["dims"]["centralizer"] == 3
    assert out["dims"]["clifforder"] == 3
    assert out["dims"]["double_centralizer"] == 3


def test_analyze_unbalanced(tmp_path, capsys):
    f = write_matrix(tmp_path / "a.json", Matrix.diag([1, 2], QQ))
    code, out, _ = run(capsys, ["analyze", f])
    assert code == 0
    assert out["flags"]["balanced"] is False
    assert out["dims"]["clifforder"] == 0


def test_analyze_with_omega_section(tmp_path, capsys):
    f = write_matrix(tmp_path / "a.json", Matrix.jordan(2, 0, QQ))
    code, out, _ = run(capsys, ["analyze", f, "--q", "3"])
    assert code == 0
    assert out["omega"]["q"] == 3
    assert out["omega"]["dim"] == 2
    assert len(out["omega"]["basis"]) == 2


# sizes whose c*n^2 x n^2 stacked double-centralizer system took minutes
_COMPANION10 = {"profile": {"conjugate_by": {"inner": {"profile": {
    "companion": [3, -1, 2, 0, -2, 1, 1, -3, 2, 0, 1]}}, "height": 3}}, "seed": 7}
_SCALAR12 = {"profile": {"diag_rational": [2] * 12}}
_NILPOTENT444 = {"profile": {"conjugate_by": {"inner": {"profile": {"nilpotent_blocks": [4, 4, 4]}}}},
                 "seed": 7}


@pytest.mark.parametrize("spec, dims", [
    (_COMPANION10, {"centralizer": 10, "clifforder": 0, "double_centralizer": 10}),
    (_SCALAR12, {"centralizer": 144, "clifforder": 0, "double_centralizer": 1}),
    (_NILPOTENT444, {"centralizer": 36, "clifforder": 36, "double_centralizer": 4}),
], ids=["companion10", "scalar12", "nilpotent444"])
def test_analyze_at_sizes_the_stacked_solver_could_not_reach(tmp_path, capsys, spec, dims):
    code, out, _ = run(capsys, ["gen", "--spec", json.dumps(spec)])
    assert code == 0
    path = tmp_path / "a.json"
    path.write_text(json.dumps(out))
    code, out, _ = run(capsys, ["analyze", str(path)])
    assert code == 0
    assert out["dims"] == dims


# --------------------------------------------------------- subspace dumps

def test_centralizer_basis_elements_commute(tmp_path, capsys):
    A = mat([[1, 1, 0], [0, 1, 0], [0, 0, 2]])
    f = write_matrix(tmp_path / "a.json", A)
    code, out, _ = run(capsys, ["centralizer", f, "--basis"])
    assert code == 0
    assert out["dimension"] == len(out["basis"])
    for item in out["basis"]:
        X = parse_matrix(json.dumps(item))
        assert A * X == X * A


def test_clifforder_dimension(tmp_path, capsys):
    f = write_matrix(tmp_path / "a.json", Matrix.jordan(4, 0, QQ))
    code, out, _ = run(capsys, ["clifforder", f])
    assert code == 0
    assert out == {"dimension": 4}


def test_omega_command(tmp_path, capsys):
    f = write_matrix(tmp_path / "a.json", Matrix.jordan(2, 0, QQ))
    code, out, _ = run(capsys, ["omega", f, "--q", "3", "--basis"])
    assert code == 0
    assert out["dimension"] == 2
    z = CycloScalar.zeta(3)
    A = Matrix.jordan(2, 0, QQ).promote(3)
    for item in out["basis"]:
        X = parse_matrix(json.dumps(item))
        assert A * X == (X * A).scale(z)


# ------------------------------------------------------------------ equiv

def test_equiv_golden_pair(tmp_path, capsys):
    fa = write_matrix(tmp_path / "a.json", PAIR5_A)
    fb = write_matrix(tmp_path / "b.json", PAIR5_B)
    code, out, _ = run(capsys, ["equiv", fb, fa])
    assert code == 0
    assert out["class"] == "general"
    assert out["f"] == [str(c) for c in PAIR5_A_FROM_B.coeffs]
    assert out["g"] == [str(c) for c in PAIR5_B_FROM_A.coeffs]


def test_equiv_negative(tmp_path, capsys):
    fa = write_matrix(tmp_path / "a.json", Matrix.diag([1, 1], QQ))
    fb = write_matrix(tmp_path / "b.json", Matrix.diag([2, 3], QQ))
    code, out, _ = run(capsys, ["equiv", fa, fb])
    assert code == 1
    assert out == {"equivalent": False}


def test_equiv_odd_class(tmp_path, capsys):
    fa = write_matrix(tmp_path / "a.json", ODD4_A)
    fb = write_matrix(tmp_path / "b.json", ODD4_B)
    code, out, _ = run(capsys, ["equiv", fa, fb, "--class", "odd"])
    assert code == 0
    assert out["class"] == "odd"


def test_equiv_q_class(tmp_path, capsys):
    A = Matrix.jordan(5, 0, QQ)
    B = eval_at_matrix(poly([0, 4, 0, 0, -3]), A)
    fa = write_matrix(tmp_path / "a.json", A)
    fb = write_matrix(tmp_path / "b.json", B)
    code, out, _ = run(capsys, ["equiv", fa, fb, "--class", "q:3"])
    assert code == 0
    assert out["class"] == {"q": 3}


def test_equiv_class_spelling_is_normalised(tmp_path, capsys):
    fa = write_matrix(tmp_path / "a.json", ODD4_A)
    fb = write_matrix(tmp_path / "b.json", ODD4_B)
    code, out, _ = run(capsys, ["equiv", fa, fb, "--class", " ODD "])
    assert code == 0
    assert out["class"] == "odd"


def test_equiv_bad_class_is_input_error(tmp_path, capsys):
    fa = write_matrix(tmp_path / "a.json", ODD4_A)
    fb = write_matrix(tmp_path / "b.json", ODD4_B)
    for bad in ("bogus", "q:0", "q:x"):
        code, out, err = run(capsys, ["equiv", fa, fb, "--class", bad])
        assert code == 2, bad
        assert out is None
        assert json.loads(err)["error"] == "FieldError"


def test_parser_is_built_once_and_keeps_no_state(tmp_path, capsys):
    import commutants.cli as cli
    cli._build_parser.cache_clear()
    fa = write_matrix(tmp_path / "a.json", ODD4_A)
    fb = write_matrix(tmp_path / "b.json", ODD4_B)
    code, out, _ = run(capsys, ["equiv", fa, fb, "--class", "odd"])
    assert code == 0 and out["class"] == "odd"
    code, out, _ = run(capsys, ["equiv", fa, fb])
    assert code == 0 and out["class"] == "general"
    assert cli._build_parser.cache_info().misses == 1


# ------------------------------------------------------ failed checks, exit 3

def test_failed_check_exits_3_with_empty_stdout(tmp_path, capsys, monkeypatch):
    import commutants.commutant as commutant
    import commutants.equivalence as equivalence
    fa = write_matrix(tmp_path / "a.json", PAIR5_A)
    fb = write_matrix(tmp_path / "b.json", PAIR5_B)
    # the second coordinate read is the f system; its check must catch the change
    perturb_first_coordinate(monkeypatch, equivalence, "_in_span", 2)
    code, out, err = run(capsys, ["equiv", fa, fb])
    assert (code, out) == (3, None)
    assert json.loads(err)["error"] == "VerificationError"
    perturb_first_coordinate(monkeypatch, commutant, "_block_solutions", 1)
    code, out, err = run(capsys, ["centralizer", fa, "--basis"])
    assert (code, out) == (3, None)
    assert json.loads(err)["error"] == "VerificationError"


# ----------------------------------------------------------------- potter

def test_potter_weyl(tmp_path, capsys):
    from commutants import weyl_pair
    pair = weyl_pair(3, 3)
    fa = write_matrix(tmp_path / "a.json", pair.A)
    fb = write_matrix(tmp_path / "b.json", pair.B)
    code, out, _ = run(capsys, ["potter", fa, fb, "--q", "3", "--samples", "5"])
    assert code == 0
    assert out["quasi_commuting"] is True
    assert out["holds"] is True
    assert out["samples_run"] == 5


def test_potter_negative_samples_is_input_error(tmp_path, capsys):
    from commutants import weyl_pair
    pair = weyl_pair(3, 3)
    fa = write_matrix(tmp_path / "a.json", pair.A)
    fb = write_matrix(tmp_path / "b.json", pair.B)
    code, out, err = run(capsys, ["potter", fa, fb, "--q", "3", "--samples", "-3"])
    assert code == 2
    assert out is None
    assert json.loads(err)["error"] == "InvalidSpec"
    code, out, _ = run(capsys, ["potter", fa, fb, "--q", "3", "--samples", "0"])
    assert code == 0
    assert out == {"quasi_commuting": True, "holds": True, "q": 3, "samples_run": 0}


def test_potter_stops_at_the_first_failed_sample(tmp_path, capsys, monkeypatch):
    # the third sample fails: two samples ran, exit 1
    from commutants import cli, weyl_pair
    pair = weyl_pair(3, 3)
    fa = write_matrix(tmp_path / "a.json", pair.A)
    fb = write_matrix(tmp_path / "b.json", pair.B)
    calls = []
    collapses = cli._collapses

    def third_fails(*args):
        calls.append(args)
        return len(calls) != 3 and collapses(*args)

    monkeypatch.setattr(cli, "_collapses", third_fails)
    code, out, err = run(capsys, ["potter", fa, fb, "--q", "3", "--samples", "5"])
    assert code == 1 and err == ""
    assert out == {"quasi_commuting": True, "holds": False, "q": 3, "samples_run": 2}
    assert len(calls) == 3


def test_potter_not_quasi_commuting(tmp_path, capsys):
    fa = write_matrix(tmp_path / "a.json", Matrix.identity(2, QQ))
    fb = write_matrix(tmp_path / "b.json", Matrix.identity(2, QQ))
    code, out, _ = run(capsys, ["potter", fa, fb, "--q", "3"])
    assert code == 1
    assert out == {"quasi_commuting": False, "q": 3, "k": 1}


# -------------------------------------------------------------------- gen

def test_gen_inline_and_stable(capsys):
    spec = '{"profile": {"nilpotent_blocks": [2, 3]}}'
    code, out, _ = run(capsys, ["gen", "--spec", spec])
    assert code == 0
    first = json.dumps(out)
    code, out2, _ = run(capsys, ["gen", "--spec", spec])
    assert code == 0
    assert json.dumps(out2) == first
    A = parse_matrix(first)
    assert A == Matrix.block_diag([Matrix.jordan(2, 0, QQ), Matrix.jordan(3, 0, QQ)])


def test_gen_from_file_with_seed_override(tmp_path, capsys):
    spec = {"profile": {"conjugate_by": {"inner": {"profile": {"diag_rational": [1, 2, 3]}}}},
            "seed": 7}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code, out, _ = run(capsys, ["gen", "--spec", str(path)])
    assert code == 0
    code, out2, _ = run(capsys, ["gen", "--spec", str(path), "--seed", "8"])
    assert code == 0
    assert out != out2


def test_gen_companion_profile(capsys):
    spec = '{"profile": {"companion": [1, 0, 1]}}'
    code, out, _ = run(capsys, ["gen", "--spec", spec])
    assert code == 0
    assert parse_matrix(json.dumps(out)) == mat([[0, -1], [1, 0]])


def test_gen_bad_profile(capsys):
    code, out, err = run(capsys, ["gen", "--spec", '{"profile": {"mystery": 1}}'])
    assert code == 2
    assert out is None
    payload = json.loads(err)
    assert payload["error"] == "InvalidSpec"


def test_gen_rejects_boolean_block_sizes(capsys):
    # true would otherwise pass as a block of size 1
    code, out, err = run(capsys, ["gen", "--spec", '{"profile": {"nilpotent_blocks": [true, 2]}}'])
    assert code == 2
    assert out is None
    assert json.loads(err)["error"] == "InvalidSpec"


_NIL = {"profile": {"nilpotent_blocks": [2]}}


@pytest.mark.parametrize("spec, message", [
    ([1], "spec: expected an object"),
    ({"seed": 1}, 'spec: missing "profile"'),
    ({**_NIL, "seed": "1"}, "spec: seed must be an integer"),
    ({**_NIL, "seed": True}, "spec: seed must be an integer"),
    ({**_NIL, "size": 2.0}, "spec: size must be an integer"),
    ({"profile": {}}, "spec: profile must be an object with exactly one key"),
    ({"profile": {"nilpotent_blocks": [1], "companion": [0, 1]}}, "spec: profile must be an object with exactly one key"),
    ({"profile": {"nilpotent_blocks": 3}}, "spec: nilpotent_blocks takes a list of sizes"),
    ({"profile": {"companion": "1 + x"}}, "spec: companion takes ascending coefficients"),
    ({"profile": {"diag_rational": 2}}, "spec: diag_rational takes a list of scalars"),
    ({"profile": {"block_diag": _NIL}}, "spec: block_diag takes a list of specs"),
    ({"profile": {"block_diag": [_NIL, 5]}}, "spec.block_diag[1]: expected an object"),
    ({"profile": {"conjugate_by": _NIL}}, 'spec: conjugate_by needs an "inner" spec'),
    ({"profile": {"conjugate_by": {"inner": _NIL, "height": "3"}}}, "spec: height must be an integer"),
    ({"profile": {"conjugate_by": {"inner": {}}}}, 'spec.conjugate_by.inner: missing "profile"'),
    ({"profile": {"mystery": 1}}, "spec: unknown profile kind 'mystery'"),
])
def test_gen_spec_errors_print_their_message(capsys, spec, message):
    code, out, err = run(capsys, ["gen", "--spec", json.dumps(spec)])
    assert code == 2 and out is None
    assert err == json.dumps({"error": "InvalidSpec", "message": message}) + "\n"


@pytest.mark.parametrize("text, want", [
    ('{"field": "Q", "rows": [[]]}', {"error": "ParseError", "message": "rows must be non-empty"}),
    ('{"field": {"cyclotomic": 1.5}, "rows": [[1]]}',
     {"error": "FieldError", "message": "cyclotomic order must be a positive integer, got 1.5"}),
    # what matrix_json would write for FieldTag.cyclotomic(True), which refuses it
    ('{"field": {"cyclotomic": true}, "rows": [[1]]}',
     {"error": "FieldError", "message": "cyclotomic order must be a positive integer, got True"}),
])
def test_malformed_matrix_prints_its_message(tmp_path, capsys, text, want):
    path = tmp_path / "m.json"
    path.write_text(text)
    for command in ("analyze", "centralizer", "clifforder"):
        code, out, err = run(capsys, [command, str(path)])
        assert code == 2 and out is None
        assert err == json.dumps(want) + "\n"


# ----------------------------------------------------------- error paths

def test_missing_file_is_input_error(capsys):
    code, out, err = run(capsys, ["analyze", "/nonexistent/never.json"])
    assert code == 2
    assert json.loads(err)["error"] == "ParseError"


def test_bad_json_reports_position(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"field": "Q",\n "rows": [[1,]]}')
    code, out, err = run(capsys, ["analyze", str(path)])
    assert code == 2
    payload = json.loads(err)
    assert payload["error"] == "ParseError"
    assert payload["line"] == 2
    assert "column" in payload


def test_ragged_rows_error_class(tmp_path, capsys):
    path = tmp_path / "ragged.json"
    path.write_text('{"field": "Q", "rows": [[1, 2], [3]]}')
    code, out, err = run(capsys, ["centralizer", str(path)])
    assert code == 2
    assert json.loads(err)["error"] == "RaggedRows"


def test_bad_omega_spec(tmp_path, capsys):
    f = write_matrix(tmp_path / "a.json", Matrix.jordan(2, 0, QQ))
    code, out, err = run(capsys, ["omega", f, "--q", "4", "--k", "2"])
    assert code == 2
    assert json.loads(err)["error"] == "InvalidSpec"


def test_analyze_rejects_a_bad_omega_spec_before_the_split(tmp_path, capsys, monkeypatch):
    # --q and --k are checked right after the file is read: no Frobenius
    # split, nothing printed; a malformed file is still reported first
    import commutants.canonical as canonical
    import commutants.commutant as commutant

    def forbidden(*args):
        raise AssertionError("Frobenius split run before the omega spec was checked")

    for module in (canonical, commutant):
        monkeypatch.setattr(module, "_frobenius", forbidden)
    f = write_matrix(tmp_path / "a.json", Matrix.jordan(3, 0, QQ))
    for q, k in (("4", "2"), ("0", "1"), ("6", "-3")):
        code = main(["analyze", f, "--q", q, "--k", k])
        cap = capsys.readouterr()
        assert (code, cap.out, json.loads(cap.err)["error"]) == (2, "", "InvalidSpec"), (q, k)
    bad = tmp_path / "bad.json"
    bad.write_text('{"field": "Q", "rows": [[1,]]}')
    code = main(["analyze", str(bad), "--q", "4", "--k", "2"])
    cap = capsys.readouterr()
    assert (code, cap.out, json.loads(cap.err)["error"]) == (2, "", "ParseError")


# ------------------------------------------------------- work done once

def _count_splits(monkeypatch) -> list[int]:
    """Count runs of the Frobenius split from here on, under both names
    it is bound to; every invariant factor and commutant basis is read
    off one."""
    import commutants.canonical as canonical
    import commutants.commutant as commutant
    calls = [0]
    plain = canonical._frobenius

    def counting(A):
        calls[0] += 1
        return plain(A)

    for module in (canonical, commutant):
        monkeypatch.setattr(module, "_frobenius", counting)
    return calls


def test_analyze_computes_invariant_factors_once(tmp_path, capsys, monkeypatch):
    # the factors come from the one split that also serves the commutants
    splits = _count_splits(monkeypatch)
    f = write_matrix(tmp_path / "a.json", mat([[0, 1, 0], [0, 0, 0], [0, 0, 2]]))
    code, out, _ = run(capsys, ["analyze", f])
    assert code == 0
    assert out["flags"]["clifforder_has_invertible"] is out["flags"]["balanced"] is False
    assert splits[0] == 1


def test_analyze_builds_no_matrix_of_its_input(tmp_path, capsys, monkeypatch):
    # the report, both counts and the omega basis are read off the one
    # split of `_read`'s rows: `matrices._entries`, wherever the package
    # holds it, never turns an n x n matrix into field elements (the
    # split's Krylov coordinates are normalized, a column at a time)
    import commutants
    import commutants.matrices as matrices
    shapes = []
    plain = matrices._entries

    def spy(L):
        shapes.append((L.rows, L.cols))
        return plain(L)

    for module in vars(commutants).values():
        if getattr(module, "_entries", None) is plain:
            monkeypatch.setattr(module, "_entries", spy)
    A = mat([[0, 1, 0], [0, 0, 0], [0, 0, 2]])
    for M in (A, A.promote(3)):
        f = write_matrix(tmp_path / "a.json", M)
        for argv in (["analyze", f], ["analyze", f, "--q", "3"]):
            assert run(capsys, argv)[0] == 0, argv
    assert shapes and (3, 3) not in shapes
    # the spy sees the call parse_matrix makes
    assert parse_matrix(json.dumps(matrix_json(A))) == A and shapes[-1] == (3, 3)


def _str_json(X: Matrix) -> dict:
    """matrix_json(X) spelled cell by cell with str on the field elements:
    an oracle for the CLI's integer speller that does not go through it."""
    if X.field.q is None:
        return {"field": "Q", "rows": [[str(x) for x in X.row(i)] for i in range(X.rows)]}
    return {"field": {"cyclotomic": X.field.q}, "rows": [[[str(c) for c in x.coeffs] for x in X.row(i)] for i in range(X.rows)]}


def _analyze_json(A: Matrix, q: int | None) -> dict:
    """What `analyze` prints for A (with an omega section for q), built
    from the public calls, each of which splits anew."""
    import commutants.cli as cli
    from commutants import (
        OmegaSpec,
        StructureReport,
        centralizer_basis,
        clifforder_basis,
        double_centralizer_basis,
        omega_centralizer_basis,
    )
    rep = StructureReport.of(A)
    expected = {
        "input": _str_json(A),
        "structure": cli._structure_json(rep),
        "dims": {
            "centralizer": centralizer_basis(A).dim,
            "clifforder": clifforder_basis(A).dim,
            "double_centralizer": double_centralizer_basis(A).dim,
        },
        "flags": {
            "balanced": rep.is_balanced,
            "nilpotent": rep.is_nilpotent,
            "min_eq_char": rep.min_equals_char,
            "clifforder_has_invertible": rep.is_balanced,
        },
    }
    if q:
        om = omega_centralizer_basis(A, OmegaSpec(q))
        expected["omega"] = {"q": q, "k": 1, "dim": om.dim, "basis": [_str_json(X) for X in om.basis]}
    return expected


def test_analyze_splits_once_and_prints_what_the_public_calls_give(tmp_path, capsys, monkeypatch):
    # conjugated J_3(0) + J_1(0), and a cyclic input, each with and
    # without an omega section: one split per analyze, and stdout equal
    # to the JSON built from the public calls
    P = mat([[1, 2, 0, 0], [0, 1, 1, 0], [1, 0, 1, 1], [0, 1, 0, 1]])
    N = Matrix.block_diag([Matrix.jordan(3, 0, QQ), mat([[0]])])
    inputs = [P.inverse() * N * P, mat([[1, 2], [Fraction(1, 3), -1]])]
    for i, A in enumerate(inputs):
        f = write_matrix(tmp_path / f"{i}.json", A)
        for q in (None, 3):
            expected = _analyze_json(A, q)
            argv = ["analyze", f] + (["--q", str(q)] if q else [])
            with monkeypatch.context() as m:
                splits = _count_splits(m)
                assert main(argv) == 0
            assert capsys.readouterr().out == json.dumps(expected, indent=2) + "\n"
            assert splits[0] == 1


def test_analyze_and_dimension_only_commands_build_no_span_they_do_not_print(tmp_path, capsys, monkeypatch):
    # every printed dimension is read off the split: analyze without --q
    # builds no commutant basis and reduces no span, with --q exactly
    # one, the omega basis it prints, and centralizer, clifforder and
    # omega without --basis build none
    import commutants.cli as cli
    import commutants.commutant as commutant
    import commutants.subspaces as subspaces
    from commutants import OmegaSpec
    mus, spans = [], [0]
    plain, reduced = cli._mu_commutant_basis, subspaces._reduced

    def counting(split, mu):
        mus.append(mu)
        return plain(split, mu)

    def counting_reduced(L):
        spans[0] += 1
        return reduced(L)

    monkeypatch.setattr(cli, "_mu_commutant_basis", counting)
    for module in (commutant, subspaces):
        monkeypatch.setattr(module, "_reduced", counting_reduced)
    f = write_matrix(tmp_path / "a.json", mat([[0, 1, 0], [0, 0, 0], [0, 0, 2]]))
    code, out, _ = run(capsys, ["analyze", f])
    assert code == 0
    assert out["dims"] == {"centralizer": 3, "clifforder": 2, "double_centralizer": 3}
    assert (mus, spans[0]) == ([], 0)
    code, out, _ = run(capsys, ["analyze", f, "--q", "3"])
    assert code == 0
    assert out["dims"] == {"centralizer": 3, "clifforder": 2, "double_centralizer": 3}
    assert out["omega"]["dim"] == len(out["omega"]["basis"]) == 2
    assert (mus, spans[0]) == ([OmegaSpec(3).omega()], 1)
    mus.clear()
    spans[0] = 0
    for argv, dim in ((["centralizer", f], 3), (["clifforder", f], 2), (["omega", f, "--q", "3"], 2)):
        code, out, _ = run(capsys, argv)
        assert code == 0 and out["dimension"] == dim, argv
    assert (mus, spans[0]) == ([], 0)


def test_potter_checks_the_relation_once(tmp_path, capsys, monkeypatch):
    import commutants.cli as cli
    import commutants.potter as potter
    from commutants import weyl_pair
    pair = weyl_pair(3, 3)
    calls = lifts = reads = 0
    plain, lift, read = potter._quasi_commutes, potter._lift, cli._read

    def counting(A, B, w):
        nonlocal calls
        calls += 1
        return plain(A, B, w)

    def counting_lift(M):
        nonlocal lifts
        lifts += 1
        return lift(M)

    def counting_read(text):
        nonlocal reads
        reads += 1
        return read(text)

    # count calls made through any module that holds its own reference
    for module in (potter, cli):
        if hasattr(module, "_quasi_commutes"):
            monkeypatch.setattr(module, "_quasi_commutes", counting)
    monkeypatch.setattr(potter, "_lift", counting_lift)
    monkeypatch.setattr(cli, "_read", counting_read)
    fa = write_matrix(tmp_path / "a.json", pair.A)
    fb = write_matrix(tmp_path / "b.json", pair.B)
    code, out, _ = run(capsys, ["potter", fa, fb, "--q", "3", "--samples", "2"])
    assert code == 0 and out["holds"] is True and out["samples_run"] == 2
    assert calls == 1
    # A and B are read into lifts once each, for the relation and both
    # samples, and no Matrix is lifted
    assert (reads, lifts) == (2, 0)


@pytest.mark.parametrize("a, b, error", [
    (mat([[1, 2, 3], [4, 5, 6]]), Matrix.identity(2, QQ), "NotSquare"),
    (Matrix.identity(2, QQ), Matrix.identity(3, QQ), "ShapeMismatch"),
    (Matrix.identity(2, QQ).promote(5), Matrix.identity(2, QQ), "FieldMismatch"),
])
def test_potter_input_errors(tmp_path, capsys, a, b, error):
    fa = write_matrix(tmp_path / "a.json", a)
    fb = write_matrix(tmp_path / "b.json", b)
    code, out, err = run(capsys, ["potter", fa, fb, "--q", "3"])
    assert code == 2
    assert out is None
    assert json.loads(err)["error"] == error


# ------------------------------------- lifted handlers against the library

def _conjugated_nilpotent(blocks, seed):
    from commutants import ConjugateBy, GenSpec, NilpotentBlocks, generate
    return generate(GenSpec(profile=ConjugateBy(inner=GenSpec(profile=NilpotentBlocks(blocks))), seed=seed))


@pytest.mark.parametrize("cls", ["general", "odd", "q:3"])
def test_equiv_prints_what_the_library_gives(tmp_path, capsys, cls):
    # B = p(A) for a p inside and one outside the class, and a B that is
    # no polynomial in A: stdout and exit code are the library's, read
    # through parse_matrix
    from commutants import CongruenceClass, equivalence_certificate
    from commutants.cli import certificate_json
    A = _conjugated_nilpotent([5, 3], 11)
    polys = {"general": [[1, 2, Fraction(-3, 2)], [0, 0, 1]],
             "odd": [[0, 2, 0, Fraction(1, 2)], [0, 1, 1]],
             "q:3": [[0, 3, 0, 0, Fraction(-1, 4)], [0, 1, 0, 1]]}[cls]
    Bs = [eval_at_matrix(poly(p), A) for p in polys] + [_conjugated_nilpotent([5, 3], 12)]
    fa = write_matrix(tmp_path / "a.json", A)
    codes = []
    for i, B in enumerate(Bs):
        fb = write_matrix(tmp_path / f"b{i}.json", B)
        cert = equivalence_certificate(parse_matrix(Path(fa).read_bytes()), parse_matrix(Path(fb).read_bytes()),
                                       CongruenceClass.parse(cls))
        want = {"equivalent": False} if cert is None else certificate_json(cert)
        code = main(["equiv", fa, fb, "--class", cls])
        assert capsys.readouterr().out == json.dumps(want, indent=2) + "\n"
        codes.append(code)
    assert codes == [0, 1, 1]


@pytest.mark.parametrize("q, n, k", [(3, 6, 1), (3, 6, 2), (5, 10, 1), (5, 10, 2), (12, 12, 1), (12, 12, 5)])
def test_potter_prints_what_the_library_gives(tmp_path, capsys, q, n, k):
    from commutants import OmegaSpec, PairInvariantViolated, QuasiPair, potter_check, weyl_pair
    from commutants.cli import _potter_samples
    pair = weyl_pair(q, n)
    fa = write_matrix(tmp_path / "a.json", pair.A)
    fb = write_matrix(tmp_path / "b.json", pair.B)
    w = OmegaSpec(q, k)
    try:
        lib = QuasiPair.of(parse_matrix(Path(fa).read_bytes()), parse_matrix(Path(fb).read_bytes()), w)
    except PairInvariantViolated:
        want, code = {"quasi_commuting": False, "q": q, "k": k}, 1
    else:
        held = [potter_check(lib, s, t) for s, t, *_ in _potter_samples(q, 3, 5)]
        want, code = {"quasi_commuting": True, "holds": True, "q": q, "samples_run": 3}, 0
        assert all(held)
    assert (k == 1) == (code == 0)
    assert main(["potter", fa, fb, "--q", str(q), "--k", str(k), "--samples", "3", "--seed", "5"]) == code
    assert capsys.readouterr().out == json.dumps(want, indent=2) + "\n"


@pytest.mark.parametrize("q", [1, 2, 3, 5, 7, 12])
def test_potter_samples_equal_the_scalar_products_they_replace(q):
    # the benchmark's digests depend on these scalars
    from commutants.cli import _potter_samples
    for seed in (0, 7, 123):
        samples = list(_potter_samples(q, 20, seed))
        assert [(s, t) for s, t, _, _ in samples] == list(reference_potter_samples(q, 20, seed))
        assert [(s_q, t_q) for s, t, s_q, t_q in samples] == [(s ** q, t ** q) for s, t, _, _ in samples]


@pytest.mark.parametrize("argv, a, b, err", [
    (["equiv"], mat([[1, 2, 3], [4, 5, 6]]), Matrix.identity(2, QQ),
     '{"error": "NotSquare", "message": "power expression needs square matrices"}'),
    (["equiv"], Matrix.identity(2, QQ), Matrix.identity(3, QQ),
     '{"error": "ShapeMismatch", "message": "sizes differ: 2 vs 3"}'),
    (["equiv"], Matrix.identity(2, QQ), Matrix.identity(2, QQ).promote(3),
     '{"error": "FieldMismatch", "message": "fields differ: Q vs Q(zeta_3)"}'),
    (["potter", "--q", "3"], Matrix.identity(2, QQ).promote(5), Matrix.identity(2, QQ),
     '{"error": "FieldMismatch", "message": "cannot promote Q(zeta_5) to Q(zeta_3)"}'),
    # the field of B is checked before the shape of A
    (["potter", "--q", "3"], mat([[1, 2, 3], [4, 5, 6]]), Matrix.identity(2, QQ).promote(5),
     '{"error": "FieldMismatch", "message": "cannot promote Q(zeta_5) to Q(zeta_3)"}'),
    (["potter", "--q", "3"], mat([[1, 2, 3], [4, 5, 6]]), Matrix.identity(2, QQ),
     '{"error": "NotSquare", "message": "quasi-commutation needs square matrices"}'),
    (["potter", "--q", "3"], Matrix.identity(2, QQ), Matrix.identity(3, QQ),
     '{"error": "ShapeMismatch", "message": "sizes differ: 2 vs 3"}'),
])
def test_lifted_handlers_report_input_errors_as_before(tmp_path, capsys, argv, a, b, err):
    fa = write_matrix(tmp_path / "a.json", a)
    fb = write_matrix(tmp_path / "b.json", b)
    assert main([argv[0], fa, fb, *argv[1:]]) == 2
    cap = capsys.readouterr()
    assert (cap.out, cap.err) == ("", err + "\n")


def _commutant_inputs() -> list[Matrix]:
    """Derogatory inputs over Q, Q(zeta_3) and Q(zeta_5), each with a
    nonzero centralizer, clifforder and omega-centralizer (q = 3 or 5)."""
    F5, z = FieldTag.cyclotomic(5), CycloScalar.zeta(5)
    D5 = Matrix.block_diag([Matrix.jordan(2, z, F5), Matrix.jordan(1, z * z, F5), Matrix.jordan(1, -z, F5)])
    N = Matrix.block_diag([Matrix.jordan(3, 0, QQ), Matrix.jordan(2, 0, QQ), mat([[0]])])
    return [conjugated(N, 7), cyclo3_jordan(5, (2, 1, 1)), conjugated(D5, 7)]


def _library_run(call, render) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) the CLI should give for a library call
    on parse_matrix's reading of the same file."""
    import commutants.cli as cli
    from commutants import AlgebraError
    try:
        out = render(call())
    except AlgebraError as exc:
        return 2, "", json.dumps(cli._error_json(exc)) + "\n"
    return 0, json.dumps(out, indent=2) + "\n", ""


def test_commutant_commands_print_what_the_library_gives(tmp_path, capsys):
    # the commands run on the rows `_read` returns; the library runs on
    # parse_matrix's Matrix of the same file, over Q, Q(zeta_3) and
    # Q(zeta_5), with and without --basis; an omega section over another
    # Q(zeta_r) is the library's FieldMismatch.  A printed basis, spelled
    # from the reduced integer rows, is json.dumps of the public basis's
    # matrices with every cell spelled by str, byte for byte
    from commutants import OmegaSpec, centralizer_basis, clifforder_basis, omega_centralizer_basis
    for i, M in enumerate(_commutant_inputs()):
        f = write_matrix(tmp_path / f"{i}.json", M)
        A = parse_matrix(Path(f).read_bytes())
        cases = []
        for basis in ([], ["--basis"]):
            def subspace(S, basis=basis):
                return {"dimension": S.dim, **({"basis": [_str_json(X) for X in S.basis]} if basis else {})}

            cases.append((["centralizer", f, *basis], lambda: centralizer_basis(A), subspace))
            cases.append((["clifforder", f, *basis], lambda: clifforder_basis(A), subspace))
            for q, k in ((3, 1), (5, 1), (5, 2)):
                def omega(S, q=q, k=k, basis=basis):
                    return {"q": q, "k": k, "dimension": S.dim, **({"basis": [_str_json(X) for X in S.basis]} if basis else {})}

                cases.append((["omega", f, "--q", str(q), "--k", str(k), *basis],
                              lambda q=q, k=k: omega_centralizer_basis(A, OmegaSpec(q, k)), omega))
        for q in (3, 5):
            cases.append((["analyze", f, "--q", str(q)], lambda q=q: _analyze_json(A, q), lambda out: out))
        dims, printed = set(), {}
        for argv, call, render in cases:
            want = _library_run(call, render)
            code = main(argv)
            cap = capsys.readouterr()
            assert (code, cap.out, cap.err) == want, argv
            if argv[0] != "analyze":
                dim = json.loads(cap.out)["dimension"] if code == 0 else None
                dims.add((argv[0], bool(dim)))
                # the run without --basis prints the --basis run's dimension
                printed.setdefault(tuple(a for a in argv if a != "--basis"), []).append((code, dim, cap.err))
        assert {cmd for cmd, nonzero in dims if nonzero} == {"centralizer", "clifforder", "omega"}, i
        assert all(len(runs) == 2 and runs[0] == runs[1] for runs in printed.values()), i


@pytest.mark.parametrize("argv, message", [
    (["centralizer"], "commutant needs a square matrix"),
    (["clifforder", "--basis"], "commutant needs a square matrix"),
    (["omega", "--q", "3", "--basis"], "commutant needs a square matrix"),
    (["analyze", "--q", "3"], "structure report needs a square matrix"),
])
def test_commutant_commands_reject_non_square_input_as_before(tmp_path, capsys, argv, message):
    # the message is the library's on parse_matrix's Matrix
    from commutants import NotSquare, OmegaSpec, StructureReport, centralizer_basis, clifforder_basis, omega_centralizer_basis
    library = {"centralizer": centralizer_basis, "clifforder": clifforder_basis,
               "omega": lambda A: omega_centralizer_basis(A, OmegaSpec(3)), "analyze": StructureReport.of}
    f = write_matrix(tmp_path / "a.json", mat([[1, 2, 3], [4, 5, 6]]))
    with pytest.raises(NotSquare, match=message):
        library[argv[0]](parse_matrix(Path(f).read_bytes()))
    assert main([argv[0], f, *argv[1:]]) == 2
    cap = capsys.readouterr()
    assert (cap.out, json.loads(cap.err)) == ("", {"error": "NotSquare", "message": message})


def test_commutant_commands_lift_no_matrix_but_the_proof_rows(tmp_path, capsys, monkeypatch):
    # centralizer, clifforder and omega never build the Matrix of their
    # input: parse_matrix is never called, and `_lift`, wherever the
    # package holds it, lifts only the companion form F of the split's
    # A*P = P*F check, never a copy of A; the relation check reads the
    # reduced integer rows that are printed, with no re-lift of them
    import commutants.cli as cli
    import commutants.matrices as matrices
    from commutants import invariant_factors
    from commutants.canonical import companion
    plain, lifted = matrices._lift, []

    def spy(M):
        lifted.append(M)
        return plain(M)

    def forbidden(text):
        raise AssertionError("parse_matrix called")

    for name, module in list(sys.modules.items()):
        if (name == "commutants" or name.startswith("commutants.")) and getattr(module, "_lift", None) is plain:
            monkeypatch.setattr(module, "_lift", spy)
    for i, A in enumerate(_commutant_inputs()):
        f = write_matrix(tmp_path / f"{i}.json", A)
        F = Matrix.block_diag([companion(p) for p in invariant_factors(A) if p.degree])
        for argv in (["centralizer", f], ["clifforder", f], ["omega", f, "--q", str(A.field.q or 5)]):
            lifted.clear()
            with monkeypatch.context() as m:
                m.setattr(cli, "parse_matrix", forbidden)
                assert main([*argv, "--basis"]) == 0
            assert json.loads(capsys.readouterr().out)["basis"], argv
            assert lifted == [F], argv


def test_basis_commands_build_no_field_element_after_the_reduction(tmp_path, capsys, monkeypatch):
    # from `_reduced` on, --basis and analyze --q check and spell the
    # integer rows they got: no Fraction, Matrix or SubspaceBasis is built
    import commutants.commutant as commutant
    from commutants import SubspaceBasis
    built, after = [], [False]
    reduced = commutant._reduced

    def spy(L):
        out = reduced(L)
        after[0] = True
        return out

    def watched(plain):
        def call(*args, **kwargs):
            if after[0]:
                built.append(args[0])
            return plain(*args, **kwargs)
        return call

    monkeypatch.setattr(commutant, "_reduced", spy)
    monkeypatch.setattr(Fraction, "__new__", staticmethod(watched(Fraction.__new__)))
    if hasattr(Fraction, "_from_coprime_ints"):  # Fraction arithmetic's constructor from Python 3.12 on
        monkeypatch.setattr(Fraction, "_from_coprime_ints", classmethod(watched(Fraction._from_coprime_ints.__func__)))
    for cls in (Matrix, SubspaceBasis):
        monkeypatch.setattr(cls, "__init__", watched(cls.__init__))
    for i, A in enumerate(_commutant_inputs()):
        f = write_matrix(tmp_path / f"{i}.json", A)
        q = str(A.field.q or 5)
        for argv in (["centralizer", f, "--basis"], ["clifforder", f, "--basis"], ["omega", f, "--q", q, "--basis"], ["analyze", f, "--q", q]):
            after[0] = False
            assert main(argv) == 0, argv
            assert after[0] and json.loads(capsys.readouterr().out), argv
            assert built == [], argv


_json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text()),
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.dictionaries(st.text(), inner, max_size=4)),
    max_leaves=24,
)


def test_writer_prints_what_json_dumps_prints(capsys):
    # every branch of the writer against json.dumps(indent=2), byte for byte
    from commutants.cli import _emit, _json
    nested = {
        "escaped": "quote \" backslash \\ newline \n tab \t nul \x00",
        "non-ascii": "\u00e9\u2203\U0001f600",
        "ints": (0, -7, 10**40),
        "scalars": [True, False, None, 1.5],
        "empty": [[], {}, (), ""],
        "": {"deeper": [{"k": [[True]]}]},
    }
    for obj in (nested, [nested, [nested]], [], {}, "text", 3, False):
        assert _json(obj, "\n") == json.dumps(obj, indent=2)
        _emit(obj)
        assert capsys.readouterr().out == json.dumps(obj, indent=2) + "\n"
    for obj in ({1, 2}, [Fraction(1, 2)], {"k": object()}):
        with pytest.raises(TypeError):
            _json(obj, "\n")


@settings(max_examples=200, deadline=None)
@given(_json_values)
def test_writer_prints_what_json_dumps_prints_on_drawn_values(obj):
    from commutants.cli import _json
    assert _json(obj, "\n") == json.dumps(obj, indent=2)


def test_cells_are_spelled_as_fraction_spells_them():
    from commutants.cli import _spelled
    cases = [(0, 5, "0"), (0, -3, "0"), (7, 1, "7"), (-7, 1, "-7"), (6, 3, "2"), (6, -3, "-2"),
             (4, 6, "2/3"), (4, -6, "-2/3"), (-4, -6, "2/3"), (-4, 6, "-2/3"), (3, -1, "-3")]
    for x, d, want in cases:
        assert _spelled(x, d) == str(Fraction(x, d)) == want, (x, d)


@settings(max_examples=300, deadline=None)
@given(st.integers(), st.integers().filter(bool), st.integers(1, 10**6))
def test_cells_are_spelled_as_fraction_spells_them_on_drawn_pairs(x, d, k):
    # an unreduced pair k*x / k*d spells as x / d
    from commutants.cli import _spelled
    assert _spelled(x, d) == _spelled(k * x, k * d) == str(Fraction(x, d))


def test_polynomial_coefficients_are_spelled_in_lowest_terms():
    # the zero polynomial is [] over Q and over Q(zeta_5), and a
    # Q(zeta_5) coefficient is its phi = 4 strings
    from commutants.cli import _poly_json
    Q5 = FieldTag.cyclotomic(5)
    assert _poly_json(Poly.zero(QQ)) == _poly_json(Poly.zero(Q5)) == []
    assert _poly_json(Poly.make([Fraction(-6, 4), 0, 3], QQ)) == ["-3/2", "0", "3"]
    f = Poly.make([[Fraction(1, 2), 0, 0, Fraction(-2, 6)], 0, CycloScalar.zeta(5, 4), 1], Q5)
    assert _poly_json(f) == [["1/2", "0", "0", "-1/3"], ["0"] * 4, ["-1"] * 4, ["1", "0", "0", "0"]]


def test_deeply_nested_json_is_a_parse_error(tmp_path, capsys):
    # json.loads raises RecursionError here, not a JSONDecodeError
    nested = "[" * 100_000 + "]" * 100_000
    path = tmp_path / "deep.json"
    path.write_text('{"field": "Q", "rows": ' + nested + "}")
    spec = '{"profile": ' + nested + "}"
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(spec)
    with pytest.raises(ParseError):
        parse_matrix(path.read_text())
    for argv, prefix in ((["centralizer", str(path)], "bad JSON: "),
                         (["gen", "--spec", spec], "bad spec JSON: "),
                         (["gen", "--spec", str(spec_path)], f"bad spec JSON in {spec_path}: ")):
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, None), argv
        payload = json.loads(err)
        assert payload["error"] == "ParseError"
        assert payload["message"].startswith(prefix) and "recursion" in payload["message"], argv


@pytest.mark.skipif(not 0 < INT_LIMIT < 5000, reason="no int-string limit below 5,000 digits on this Python")
def test_integer_literal_past_the_int_string_limit_is_a_parse_error(tmp_path, capsys):
    # json.loads raises a plain ValueError here, not a JSONDecodeError
    big = "7" * 5000
    path = tmp_path / "big.json"
    path.write_text('{"field": "Q", "rows": [[' + big + "]]}")
    spec = '{"profile": {"nilpotent_blocks": [' + big + "]}}"
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(spec)
    with pytest.raises(ParseError):
        parse_matrix(path.read_text())
    for argv, prefix in ((["centralizer", str(path)], "bad JSON: "),
                         (["equiv", str(path), str(path)], "bad JSON: "),
                         (["gen", "--spec", spec], "bad spec JSON: "),
                         (["gen", "--spec", str(spec_path)], f"bad spec JSON in {spec_path}: ")):
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, None), argv
        payload = json.loads(err)
        assert payload["error"] == "ParseError"
        assert payload["message"].startswith(prefix) and str(INT_LIMIT) in payload["message"]


def test_gen_spec_file_not_utf8_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_bytes(b'{"profile": "\xc3("}')
    code, out, err = run(capsys, ["gen", "--spec", str(path)])
    assert (code, out) == (2, None)
    assert json.loads(err)["message"].startswith(f"bad spec JSON in {path}: 'utf-8' codec can't decode")


# --------------------------------------------------------- python -O parity

def test_optimize_flag_changes_no_output(tmp_path):
    import commutants
    from commutants import weyl_pair
    src = str(Path(commutants.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    pair = weyl_pair(3, 3)
    fa = write_matrix(tmp_path / "a.json", Matrix.block_diag([Matrix.jordan(2, 0, QQ), mat([[1]])]))
    fd = write_matrix(tmp_path / "d.json", pair.A)
    fs = write_matrix(tmp_path / "s.json", pair.B)
    # conjugated J_2(1) + (1) + (-1): two nonconstant invariant factors
    P = mat([[1, 2, 0, 0], [0, 1, 1, 0], [1, 0, 1, 1], [0, 1, 0, 1]])
    D = Matrix.block_diag([Matrix.jordan(2, 1, QQ), Matrix.diag([1, -1], QQ)])
    derogatory = P.inverse() * D * P
    assert sum(f.degree >= 1 for f in invariant_factors(derogatory)) == 2
    fg = write_matrix(tmp_path / "g.json", derogatory)
    # conjugated J_3(0) + J_1(0): derogatory with a nonzero omega-centralizer
    N = Matrix.block_diag([Matrix.jordan(3, 0, QQ), mat([[0]])])
    fn = write_matrix(tmp_path / "n.json", P.inverse() * N * P)
    subspace_runs = [[cmd, f, "--basis"] for f in (fg, fn) for cmd in ("centralizer", "clifforder")]
    subspace_runs += [["omega", f, "--q", "5", "--k", "2", "--basis"] for f in (fg, fn)]
    # per class, one equivalent pair (exit 0) and one that is not (exit 1)
    J3, J5 = Matrix.jordan(3, 0, QQ), Matrix.jordan(5, 0, QQ)
    pairs = {"general": [(PAIR5_A, PAIR5_B), (J3, J3 * J3)],
             "odd": [(ODD4_A, ODD4_B), (J3, J3 * J3)],
             "q:3": [(J5, eval_at_matrix(poly([0, 4, 0, 0, -3]), J5)), (J5, J5 * J5)]}
    equiv_runs = []
    for cls, cases in pairs.items():
        for i, (A, B) in enumerate(cases):
            files = [write_matrix(tmp_path / f"{cls[0]}{i}{side}.json", M) for side, M in (("a", A), ("b", B))]
            equiv_runs.append((["equiv", *files, "--class", cls], i))
    fi = write_matrix(tmp_path / "i.json", Matrix.identity(3, QQ).scale(5))
    other_runs = [(argv, None) for argv in (["analyze", fa, "--q", "3"],
                                            ["analyze", fg],
                                            ["analyze", fn],
                                            ["analyze", fi],
                                            ["potter", fd, fs, "--q", "3", "--samples", "3"],
                                            ["potter", fd, fd, "--q", "3"],
                                            *subspace_runs)]
    for argv, code in other_runs + equiv_runs:
        runs = [
            subprocess.run([sys.executable, *flag, "-m", "commutants.cli", *argv],
                           capture_output=True, env=env, timeout=120)
            for flag in ([], ["-O"])
        ]
        assert runs[0].stdout and runs[0].stdout == runs[1].stdout
        assert runs[0].returncode == runs[1].returncode
        assert code is None or runs[0].returncode == code, argv
