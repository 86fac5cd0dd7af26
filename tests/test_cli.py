import json

import pytest

from onsagerkit import cartan, characters, chevalley, cli, onsager, verify
from onsagerkit.cartan import NotAffine, NotFinite, NotGCM, NotSymmetrizable, UnknownPreset, parse_matrix_text
from onsagerkit.characters import WindowTooSmall
from onsagerkit.chevalley import NotAPositiveRoot
from onsagerkit.exact_math import BadInput
from onsagerkit.freelie import MAX_NESTING, ParseError
from onsagerkit.loop import NotExpandable
from onsagerkit.onsager import NotRealized
from onsagerkit.roots import NotARoot, RootSystem


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_coeffs_text(capsys):
    code, out, _ = run_cli(capsys, "coeffs", "--a", "-2", "--rmax", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "r=0: (1)"
    assert lines[3] == "r=3: (0, 4, 0, 1)"


def test_coeffs_json_roundtrip(capsys):
    code, out, _ = run_cli(capsys, "coeffs", "--a", "-3", "--rmax", "5", "--json")
    assert code == 0
    rep = json.loads(out)
    assert json.loads(json.dumps(rep)) == rep
    assert rep["schema"] == 1
    assert rep["rows"][5]["c"] == [0, 15 * 9 - 150 + 24, 0, 10, 0, 1]


@pytest.mark.parametrize(
    "argv",
    [
        ("relations", "--preset", "G2", "--json"),
        ("roots", "--preset", "C2~", "--json"),
        ("roots", "--preset", "B3", "--json"),
        ("structconst", "--preset", "A2", "--json"),
        ("structconst", "--preset", "A1~", "--json"),
        ("structconst", "--preset", "C2~", "--height", "4", "--json"),
        ("verify", "--preset", "A2", "--json"),
        ("chars", "--preset", "C2", "--json"),
        ("chars", "--preset", "A2", "--json"),
        ("eval", "--preset", "A1~", "[B0,B1]", "--json"),
    ],
)
def test_json_roundtrips(capsys, argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    rep = json.loads(out)
    assert json.loads(json.dumps(rep)) == rep
    assert rep["schema"] == 1


def test_dolan_grady_relation_display(capsys):
    code, out, _ = run_cli(capsys, "relations", "--preset", "A1~")
    assert code == 0
    assert "[B0,[B0,[B0,B1]]] = -4*[B0,B1]" in out


# the full relations text, recorded before the signed-sum printer was shared
RELATIONS_TEXT = {
    "A1~": [
        "[B0,[B0,[B0,B1]]] = -4*[B0,B1]   (a_ij = -2)",
        "[B1,[B1,[B1,B0]]] = -4*[B1,B0]   (a_ij = -2)",
    ],
    "G2": [
        "[B1,[B1,[B1,[B1,B2]]]] = -9*B2-10*[B1,[B1,B2]]   (a_ij = -3)",
        "[B2,[B2,B1]] = -B1   (a_ij = -1)",
    ],
    "C2~": [
        "[B0,[B0,B1]] = -B1   (a_ij = -1)",
        "[B0,B2] = 0   (a_ij = 0)",
        "[B1,[B1,[B1,B0]]] = -4*[B1,B0]   (a_ij = -2)",
        "[B1,[B1,[B1,B2]]] = -4*[B1,B2]   (a_ij = -2)",
        "[B2,B0] = 0   (a_ij = 0)",
        "[B2,[B2,B1]] = -B1   (a_ij = -1)",
    ],
    "G2~": [
        "[B0,B1] = 0   (a_ij = 0)",
        "[B0,[B0,B2]] = -B2   (a_ij = -1)",
        "[B1,B0] = 0   (a_ij = 0)",
        "[B1,[B1,[B1,[B1,B2]]]] = -9*B2-10*[B1,[B1,B2]]   (a_ij = -3)",
        "[B2,[B2,B0]] = -B0   (a_ij = -1)",
        "[B2,[B2,B1]] = -B1   (a_ij = -1)",
    ],
}


@pytest.mark.parametrize("name", sorted(RELATIONS_TEXT))
def test_relations_text_pinned(capsys, name):
    code, out, _ = run_cli(capsys, "relations", "--preset", name)
    assert code == 0
    assert out.splitlines() == RELATIONS_TEXT[name]


def test_eval_example(capsys):
    # [B1,[B1,B2]] maps to -y(alpha_2)
    code, out, _ = run_cli(capsys, "eval", "--preset", "A2", "[B1,[B1,B2]]")
    assert code == 0
    assert "-y(a2)" in out


def test_eval_json_content(capsys):
    code, out, _ = run_cli(capsys, "eval", "--preset", "A2", "[B1,[B1,B2]]", "--json")
    rep = json.loads(out)
    assert rep["terms"] == [{"basis": "y(a2)", "coords": [0, 1], "coeff": "-1"}]


def test_verify_pass_exit_zero(capsys):
    for name, checks in (("A1~", 1), ("C2", 6)):
        code, out, _ = run_cli(capsys, "verify", "--preset", name)
        assert code == 0
        assert "FAIL" not in out
        assert out.count("PASS") >= checks


def test_verify_fail_exit_one(capsys, monkeypatch):
    monkeypatch.setattr(
        cli, "verification_suite", lambda c, jmax=None, height=None: [("forced", False, "x")]
    )
    code, out, _ = run_cli(capsys, "verify", "--preset", "A2")
    assert code == 1
    assert "FAIL" in out


def test_usage_errors(capsys):
    code, _, err = run_cli(capsys, "verify", "--preset", "NOPE")
    assert code == 2 and "preset" in err
    code, _, err = run_cli(capsys, "eval", "--preset", "A2", "[B1 B2]")
    assert code == 2 and "offset" in err
    code, _, err = run_cli(capsys, "roots", "--preset", "A2~x")
    assert code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["coeffs"])  # missing required --a
    assert exc.value.code == 2


def test_matrix_file_source(tmp_path, capsys):
    path = tmp_path / "m.txt"
    path.write_text("2 -1\n-1 2\n")
    code, out, _ = run_cli(capsys, "verify", "--matrix-file", str(path))
    assert code == 0
    code, _, err = run_cli(capsys, "verify", "--matrix-file", str(tmp_path / "missing.txt"))
    assert code == 2


def test_a_matrix_file_that_is_not_utf8_is_bad_input(tmp_path, capsys):
    path = tmp_path / "m.txt"
    path.write_bytes(b"\xff\xfe 2")
    code, out, err = run_cli(capsys, "verify", "--matrix-file", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: %s is not UTF-8 text: " % path) and err.count("\n") == 1


def test_an_empty_preset_name_is_bad_input(capsys):
    assert run_cli(capsys, "verify", "--preset", "") == (2, "", "error: cannot parse preset name ''\n")


@pytest.mark.parametrize("name", ["C2~", "A1~", "C3", "C2~ middle first"])
def test_chars_closed_form_from_matrix_file(tmp_path, capsys, name):
    # the file's labels are 1..n, the closed-form realization's those of the
    # preset (0..r); the closed-form rows must not depend on the labelling.
    # C2~ with its middle node listed first (affine node 1) does not have
    # the preset's rows: it prints the functionals with no closed-form rows
    from onsagerkit.cartan import parse_matrix_text, preset, validate

    rows = [(2, -2, -2), (-1, 2, 0), (-1, 0, 2)] if name == "C2~ middle first" else preset(name).a
    text = "".join(" ".join(map(str, row)) + "\n" for row in rows)
    path = tmp_path / "m.txt"
    path.write_text(text)
    code, got, err = run_cli(capsys, "chars", "--matrix-file", str(path))
    assert code == 0, err
    got = [line for line in got.splitlines() if "closed form" in line]
    if name == "C2~ middle first":
        assert validate(parse_matrix_text(text)).affine_node == 1
        assert got == []
        return
    code, want, _ = run_cli(capsys, "chars", "--preset", name)
    assert code == 0
    want = [line for line in want.splitlines() if "closed form" in line]
    assert want and all(line.endswith("[ok]") for line in want)
    assert got == want


def test_verify_other_kind_rejected(tmp_path, capsys):
    path = tmp_path / "hyper.txt"
    path.write_text("2 -3\n-3 2\n")
    code, _, err = run_cli(capsys, "verify", "--matrix-file", str(path))
    assert code == 2
    assert "classifies" in err


def test_eval_other_kind_rejected(tmp_path, capsys):
    # the realization commands share one kind gate, which names the command
    # and the kind
    path = tmp_path / "hyper.txt"
    path.write_text("2 -3\n-3 2\n")
    code, out, err = run_cli(capsys, "eval", "--matrix-file", str(path), "B1")
    assert code == 2
    assert out == ""
    assert err == "error: eval needs a finite or untwisted affine matrix; this one classifies as Other\n"


def test_eval_non_decimal_digit_is_bad_input(capsys):
    assert run_cli(capsys, "eval", "--preset", "A2", "B²") == (
        2, "", "error: expected digits after 'B' (at offset 1)\n")


def test_eval_nesting_bound(capsys):
    def nested(depth):
        return "[" * depth + "B2" + ",B1]" * depth

    # [x, B1] twice is [B1, [B1, x]], and [B1, [B1, B2]] = -B2 in A2
    text = nested(MAX_NESTING)
    assert run_cli(capsys, "eval", "--preset", "A2", text) == (0, text + " -> y(a2)\n", "")
    for depth in (MAX_NESTING + 1, 990):
        assert run_cli(capsys, "eval", "--preset", "A2", nested(depth)) == (
            2, "", "error: brackets nested deeper than %d (at offset %d)\n" % (MAX_NESTING, MAX_NESTING))


def test_eval_unknown_label_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "eval", "--preset", "A2", "[B1,B7]")
    assert code == 2
    assert out == "" and "7" in err


def test_internal_fault_is_not_a_usage_error(monkeypatch, capsys):
    def broken(t, x, y):
        raise NotExpandable("forced")

    monkeypatch.setattr(onsager, "k_bracket_expand", broken)
    # main does not turn the fault into a return code, so it never returns 2;
    # as a process, the uncaught exception exits 1
    with pytest.raises(NotExpandable):
        cli.main(["eval", "--preset", "A1~", "[B0,B1]"])


def test_only_input_errors_are_bad_input():
    for exc in (cli.UsageFault, UnknownPreset, NotGCM, NotSymmetrizable, ParseError, WindowTooSmall, NotRealized):
        assert issubclass(exc, BadInput), exc
    for exc in (NotARoot, NotAPositiveRoot, NotFinite, NotAffine):
        assert issubclass(exc, ValueError) and not issubclass(exc, BadInput), exc


def test_an_internal_value_error_is_not_bad_input(monkeypatch):
    def broken(root):
        raise NotARoot("forced")

    monkeypatch.setattr(onsager, "height", broken)
    with pytest.raises(NotARoot):
        cli.main(["roots", "--preset", "A2"])


@pytest.mark.parametrize("text,message", [
    ("2 x\n-1 2\n", "invalid literal for int() with base 10: 'x'"),
    ("# nothing\n\n", "no matrix rows found"),
])
def test_unreadable_matrix_text_is_bad_input(text, message):
    with pytest.raises(BadInput) as exc:
        parse_matrix_text(text)
    assert str(exc.value) == message


@pytest.mark.parametrize("argv,err", [
    (("--preset", "C2", "--height", "1"), "error: window 1 is below the top height 3 of the basis\n"),
    (("--preset", "G2", "--height", "3"), "error: window 3 is below the top height 5 of the basis\n"),
    (("--preset", "A1~", "--height", "1"), "error: no bracket of two basis vectors lands in window 1\n"),
])
def test_chars_window_that_certifies_nothing_is_bad_input(capsys, argv, err):
    assert run_cli(capsys, "chars", *argv) == (2, "", err)


def test_chars_a1_window_above_the_top(capsys):
    code, out, _ = run_cli(capsys, "chars", "--preset", "A1", "--height", "2")
    assert code == 0
    assert out.splitlines()[:2] == ["even-column generator set: [1]",
                                   "character space dimension: 1 (window height 2)"]


def test_height_bounds_finite_roots_and_structconst_pairs(capsys):
    code, out, _ = run_cli(capsys, "roots", "--preset", "A2", "--height", "1")
    assert code == 0
    assert out.splitlines() == ["ht  1  a2", "ht  1  a1"]
    # the N table stays whole; only the fixed-basis pairs stop at the height
    code, out, _ = run_cli(capsys, "structconst", "--preset", "A2", "--height", "1", "--json")
    assert code == 0
    rep = json.loads(out)
    assert len(rep["ntable"]) == 12
    assert rep["ybrackets"] == [{"lhs": [[0, 1], [1, 0]], "rhs": [{"coords": [1, 1], "coeff": "1"}]}]


@pytest.mark.parametrize("height", ["1", "9"])
def test_structconst_height_does_not_apply_to_the_onsager_table(capsys, height):
    # the A1~ table is the fixed |k|, |l| <= 2 block of the Onsager relations
    assert run_cli(capsys, "structconst", "--preset", "A1~", "--height", height) == (
        2, "", "error: --height does not apply to the A1~ Onsager table (|k|, |l| <= 2)\n")


def test_chars_value_off_its_closed_form_exits_one(capsys, monkeypatch):
    # a corrupted closed form, read by C_r at level 0 and by C_r~
    monkeypatch.setattr(characters, "chi_affine", lambda r, s, t, gamma, i=1: t + 1)
    for name in ("C2", "C2~"):
        code, out, _ = run_cli(capsys, "chars", "--preset", name)
        assert code == 1, name
        assert "DIFFERS" in out, name


BUILDER_ARGV = {
    "coeffs_report": ["coeffs", "--a", "-2"],
    "relations_report": ["relations", "--preset", "A2"],
    "roots_report": ["roots", "--preset", "A2"],
    "structconst_report": ["structconst", "--preset", "A2"],
    "verify_report": ["verify", "--preset", "A2"],
    "chars_report": ["chars", "--preset", "A2"],
    "eval_report": ["eval", "--preset", "A2", "[B1,B2]"],
}


def test_main_calls_each_report_builder_by_its_module_name(capsys, monkeypatch):
    # a wrapper bound to the builder's name on the cli module (as a tracer
    # binds one) must see the call
    calls = []

    def recording(name, builder):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return builder(*args, **kwargs)
        return wrapper

    for name in BUILDER_ARGV:
        monkeypatch.setattr(cli, name, recording(name, getattr(cli, name)))
    for argv in BUILDER_ARGV.values():
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0 and out
    assert calls == list(BUILDER_ARGV)


def test_chars_closed_form_columns(capsys):
    code, out, _ = run_cli(capsys, "chars", "--preset", "C2~")
    assert code == 0
    assert "DIFFERS" not in out
    assert "dimension: 2" in out


# verify rows with jmax != height, in both directions (bench/golden.json only
# pins jmax == height)
VERIFY_ROWS = {
    ("A2~", 3, 5): [
        "PASS  inhomogeneous Serre relations evaluate to zero (6 relations)",
        "PASS  graded dimensions match root multiplicities (jmax=3) (dims [3, 3, 2] expected [3, 3, 2])",
        "PASS  evaluated bracket words span every level up to height 5 (rank 14 expected 14)",
        "PASS  character space dimension equals the even-column count (dim 0 expected 0 (window 8))",
        "PASS  fixed-basis bracket expansions match closed forms (1444 index pairs, levels |l| <= 2)",
    ],
    ("A2~", 5, 3): [
        "PASS  inhomogeneous Serre relations evaluate to zero (6 relations)",
        "PASS  graded dimensions match root multiplicities (jmax=5) (dims [3, 3, 2, 3, 3] expected [3, 3, 2, 3, 3])",
        "PASS  evaluated bracket words span every level up to height 3 (rank 8 expected 8)",
        "PASS  character space dimension equals the even-column count (dim 0 expected 0 (window 8))",
        "PASS  fixed-basis bracket expansions match closed forms (1444 index pairs, levels |l| <= 2)",
    ],
    ("C2", 2, 4): [
        "PASS  inhomogeneous Serre relations evaluate to zero (2 relations)",
        "PASS  graded dimensions match root multiplicities (jmax=2) (dims [2, 1] expected [2, 1])",
        "PASS  evaluated bracket words span every level up to height 4 (rank 4 expected 4)",
        "PASS  character space dimension equals the even-column count (dim 1 expected 1 (window 3))",
        "PASS  gl_2 presentation through the fixed-subalgebra isomorphism (all 4 relation checks)",
        "PASS  symplectic realization matches its table and reconciles with the generic one (rank 2)",
    ],
    ("C2", 4, 2): [
        "PASS  inhomogeneous Serre relations evaluate to zero (2 relations)",
        "PASS  graded dimensions match root multiplicities (jmax=4) (dims [2, 1, 1, 0] expected [2, 1, 1, 0])",
        "PASS  evaluated bracket words span every level up to height 2 (rank 3 expected 3)",
        "PASS  character space dimension equals the even-column count (dim 1 expected 1 (window 3))",
        "PASS  gl_2 presentation through the fixed-subalgebra isomorphism (all 4 relation checks)",
        "PASS  symplectic realization matches its table and reconciles with the generic one (rank 2)",
    ],
}


@pytest.mark.parametrize("name,jmax,height", sorted(VERIFY_ROWS))
def test_verify_rows_with_jmax_and_height_apart(capsys, name, jmax, height):
    code, out, _ = run_cli(capsys, "verify", "--preset", name, "--jmax", str(jmax), "--height", str(height))
    assert code == 0
    assert out.splitlines() == VERIFY_ROWS[name, jmax, height]


@pytest.mark.parametrize(
    "name,expr,text,terms",
    [
        ("A2", "[B1,B2]", "[B1,B2] -> -y(a1+a2)",
         [{"basis": "y(a1+a2)", "coeff": "-1", "coords": [1, 1]}]),
        ("C2~", "[B1,[B0,B2]]", "[B1,[B0,B2]] -> 0", []),
    ],
)
def test_eval_outputs_pinned(capsys, name, expr, text, terms):
    code, out, _ = run_cli(capsys, "eval", "--preset", name, expr)
    assert code == 0 and out == text + "\n"
    code, out, _ = run_cli(capsys, "eval", "--json", "--preset", name, expr)
    assert code == 0
    assert json.loads(out) == {"expr": expr, "kind": "eval", "schema": 1, "terms": terms}


def test_verify_builds_one_word_span(capsys, monkeypatch):
    # the graded-dimension and generation rows are read off one span
    built = []

    class CountingSpan(onsager.IncrementalSpan):
        def __init__(self):
            super().__init__()
            built.append(self)

    monkeypatch.setattr(onsager, "IncrementalSpan", CountingSpan)
    for name, jmax, height in (("A2~", "3", "5"), ("C2", "4", "2")):
        built.clear()
        code, _, _ = run_cli(capsys, "verify", "--preset", name, "--jmax", jmax, "--height", height)
        assert code == 0 and len(built) == 1, name


def _clear_tables():
    chevalley._TABLES.clear()
    for f in (chevalley._display, chevalley.sp_realization):
        f.cache_clear()


@pytest.mark.parametrize("command", ["structconst", "chars"])
def test_a_table_that_cannot_be_built_exits_one(command, monkeypatch, capsys):
    # (a3, a3) doubled: build_chevalley derives N[(0,1,1), (1,1,0)] = -3,
    # against the magnitude rule's 2
    norm2 = RootSystem.norm2

    def doubled(self, alpha):
        return 2 * norm2(self, alpha) if alpha == (0, 0, 1) else norm2(self, alpha)

    _clear_tables()
    monkeypatch.setattr(RootSystem, "norm2", doubled)
    try:
        code, out, err = run_cli(capsys, command, "--preset", "C3")
    finally:
        monkeypatch.undo()
        _clear_tables()
    assert code == 1
    assert out == ""
    assert err == "error: magnitude rule fails at (0, 1, 1), (1, 1, 0) (N = -3)\n"


def test_a_broken_onsager_table_exits_one(monkeypatch, capsys):
    true = verify.onsager_basis
    monkeypatch.setattr(verify, "onsager_basis", lambda m: (2 * true(m)[0], true(m)[1]))
    code, out, err = run_cli(capsys, "structconst", "--preset", "A1~")
    assert code == 1
    assert out == ""
    assert err == "error: [A_-2,A_-1] != G_1\n"
    code, out, err = run_cli(capsys, "verify", "--preset", "A1~")
    assert code == 1 and err == ""
    assert "FAIL  classical A/G bracket table ([A_-4,A_-3] != G_1)" in out.splitlines(), out


@pytest.mark.parametrize("name", ["A2", "C3", "G2~", "C3~"])
@pytest.mark.parametrize("argv", [("roots",), ("verify",), ("chars", "--json"), ("structconst", "--json"),
                                  ("eval", "[B1,B2]")], ids=lambda argv: argv[0])
def test_each_command_builds_one_root_system(name, argv, monkeypatch, capsys):
    # an affine run reads its roots and heights off the finite root system
    # of its structure table; C3~ chars takes the symplectic display's table.
    # Its preset, its classification and that root system share one closure.
    _clear_tables()
    cartan.preset.cache_clear()
    cartan.root_closure.cache_clear()
    init, built = RootSystem.__init__, []

    def counted(self, c):
        built.append(c.a)
        init(self, c)

    monkeypatch.setattr(RootSystem, "__init__", counted)
    code, _, _ = run_cli(capsys, argv[0], "--preset", name, *argv[1:])
    assert code == 0
    assert len(built) == 1, built
    assert cartan.root_closure.cache_info().misses == 1


@pytest.mark.parametrize("name", ["E8", "E8~"])
def test_roots_builds_no_structure_table(name, monkeypatch, capsys):
    # the root listing reads a root system alone: E8's table would take
    # seconds to build
    def refused(c):
        raise AssertionError("roots built a structure table")

    _clear_tables()
    monkeypatch.setattr(chevalley, "build_chevalley", refused)
    for argv in (("roots", "--preset", name), ("roots", "--preset", name, "--json")):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0 and out
