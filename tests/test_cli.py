"""Golden CLI outputs, formats, and exit codes."""

import io
import json

import pytest

from negmom.cli import IDENTITIES, main


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def data_lines(out):
    """Text-format rows, dropping the timing footer."""
    return [line for line in out.splitlines() if not line.startswith("#")]


def test_moment_table_golden(capsys):
    code, out, _ = run_cli(
        ["moment", "--n", "0..6", "--k", "3", "--b", "zero", "--lambda", "one"],
        capsys)
    assert code == 0
    assert data_lines(out) == ["0 1", "1 0", "2 1", "3 0", "4 2", "5 0", "6 5"]


def test_moment_negative_golden(capsys):
    code, out, _ = run_cli(
        ["moment", "--negative", "--n", "1..3", "--k", "3",
         "--b", "zero", "--lambda", "one"], capsys)
    assert code == 0
    assert data_lines(out) == ["1 0", "2 2", "3 0"]


def test_moment_symbolic_trivial(capsys):
    code, out, _ = run_cli(
        ["moment", "--n", "0", "--k", "0", "--b", "symbolic",
         "--lambda", "symbolic"], capsys)
    assert code == 0
    assert data_lines(out) == ["0 1"]


def test_moment_ill_defined_exits_2(capsys):
    # b = 0, lam = 1 at k = 2: P_3 = x^3 - 2x, so P_3(0) = 0; this error
    # comes before the one about indices below 1
    for n in ("1", "0..3", "1..3"):
        code, out, err = run_cli(
            ["moment", "--negative", "--n", n, "--k", "2",
             "--b", "zero", "--lambda", "one"], capsys)
        assert (code, out) == (2, ""), n
        assert err == "error: negative moments undefined: P_3(0) = 0\n", n


def test_moment_json_schema(capsys):
    code, out, _ = run_cli(
        ["moment", "--n", "0..2", "--k", "1", "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"command", "params", "results"}
    assert payload["results"][2]["value"] == "b0^2 + lam1"


def test_sequence_count_golden(capsys):
    code, out, _ = run_cli(
        ["sequence", "alt", "--n", "3", "--k", "2", "--emit", "count"], capsys)
    assert code == 0 and data_lines(out) == ["5"]
    code, out, _ = run_cli(
        ["sequence", "schroeder", "--n", "4", "--k", "1", "--emit", "count"],
        capsys)
    assert code == 0 and data_lines(out) == ["5"]


def test_sequence_pv_list_golden(capsys):
    code, out, _ = run_cli(
        ["sequence", "pv", "--ell", "2", "--n", "3", "--k", "1",
         "--emit", "list"], capsys)
    assert code == 0 and data_lines(out) == ["(1,0,1)"]


def test_sequence_weights(capsys):
    code, out, _ = run_cli(
        ["sequence", "motzkin", "--n", "2", "--k", "1", "--emit", "weights"],
        capsys)
    assert code == 0
    rows = dict(line.split(" ", 1) for line in data_lines(out))
    assert rows["UD"] == "lam1"
    assert rows["HH"] == "b0^2"


# `sequence <family> --emit weights`: one row per object, its encoding and its weight
_WEIGHT_ROWS = {
    "motzkin --n 4 --k 2 --r 1 --s 0": [
        "UHDD b2*lam1*lam2", "UDHD b1*lam1*lam2", "UDDH b0*lam1*lam2", "HUDD b1*lam1*lam2",
        "HHHD b1^3*lam1", "HHDH b0*b1^2*lam1", "HDUD b1*lam1^2", "HDHH b0^2*b1*lam1",
        "DUHD b1*lam1^2", "DUDH b0*lam1^2", "DHUD b0*lam1^2", "DHHH b0^3*lam1",
    ],
    "schroeder --n 4 --k 2": [
        "U,U,D,D a1*a2", "U,H2,D b1*a1", "U,D,U,D a1^2", "U,D,H2 b0*a1", "H2,U,D b0*a1",
        "H2,H2 b0^2",
    ],
    "pv --ell 2 --n 3 --k 3": [
        "(1,0,1) V0*V1^2", "(1,0,3) V0*V1*V3", "(3,0,1) V0*V1*V3", "(3,0,3) V0*V3^2",
        "(3,2,3) V2*V3^2",
    ],
    "pv --ell 3 --n 3 --k 3 --variant modified": [
        "(0,0,0) V0^3", "(0,0,2) V0^2*V2", "(0,0,3) V0^2*V3", "(0,2,0) V0^2*V2",
        "(0,3,0) V0^2*V3", "(0,3,3) V0*V3^2", "(2,0,0) V0^2*V2", "(2,0,2) V0*V2^2",
        "(2,0,3) V0*V2*V3", "(2,1,2) V1*V2^2", "(2,1,3) V1*V2*V3", "(3,0,0) V0^2*V3",
        "(3,0,2) V0*V2*V3", "(3,0,3) V0*V3^2", "(3,1,2) V1*V2*V3", "(3,1,3) V1*V3^2",
        "(3,3,0) V0*V3^2", "(3,3,3) V3^3",
    ],
    "alt --n 3 --k 2": [   # odd length: V on odd positions, A on even ones
        "(1,1,1) V1^2*A1", "(1,2,1) V1^2*A2", "(1,2,2) V1*V2*A2", "(2,2,1) V1*V2*A2",
        "(2,2,2) V2^2*A2",
    ],
    "alt --n 2 --k 2": [   # even length: V throughout
        "(1,1) V1^2", "(1,2) V1*V2", "(2,2) V2^2",
    ],
    "alt --n 3 --k 2 --pattern down-first": [
        "(1,1,1) V1^2*A1", "(1,1,2) V1*V2*A1", "(2,1,1) V1*V2*A1", "(2,1,2) V2^2*A1",
        "(2,2,2) V2^2*A2",
    ],
    "alt --n 3 --k 3 --r 1 --s 2": [
        "(1,2,2) V1*V2*A2", "(1,3,2) V1*V2*A3",
    ],
    "rpp --n 1 --m 1 --k 1": [
        "shape staircase(1+2*1)/staircase(1); 0 0 | 0 V1^2*A1",
        "shape staircase(1+2*1)/staircase(1); 0 0 | 1 V1*V2*A1",
        "shape staircase(1+2*1)/staircase(1); 0 1 | 0 V1*V2*A1",
        "shape staircase(1+2*1)/staircase(1); 0 1 | 1 V2^2*A1",
        "shape staircase(1+2*1)/staircase(1); 1 1 | 1 V2^2*A2",
    ],
}


@pytest.mark.parametrize("argv", list(_WEIGHT_ROWS))
def test_sequence_weights_golden(argv, capsys):
    code, out, err = run_cli(["sequence", *argv.split(), "--emit", "weights"], capsys)
    assert (code, err) == (0, "")
    assert data_lines(out) == _WEIGHT_ROWS[argv]


def test_verify_pass_lines_and_exit(capsys):
    code, out, _ = run_cli(["verify", "ck", "--n", "1..2", "--k", "1..2"], capsys)
    assert code == 0
    lines = data_lines(out)
    assert len(lines) == 4
    assert all(line.endswith("status=PASS") for line in lines)
    assert lines[0] == "ck params=n=1,k=1 status=PASS"


def test_verify_skips_do_not_fail(capsys):
    code, out, _ = run_cli(
        ["verify", "conj53", "--n", "1..1", "--k", "1..2", "--m", "1..2"],
        capsys)
    assert code == 0
    lines = data_lines(out)
    statuses = [line.rsplit("status=", 1)[1] for line in lines]
    assert "SKIPPED" in statuses and "PASS" in statuses
    assert "FAIL" not in statuses


def test_verify_deterministic(capsys):
    a = run_cli(["verify", "thm15", "--n", "0..1", "--k", "0..1", "--m", "0..1"],
                capsys)
    b = run_cli(["verify", "thm15", "--n", "0..1", "--k", "0..1", "--m", "0..1"],
                capsys)
    assert data_lines(a[1]) == data_lines(b[1])


def test_verify_unknown_identity_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "nonsense"])
    assert exc.value.code == 2


def test_verify_json(capsys):
    code, out, _ = run_cli(
        ["verify", "ck", "--n", "1..1", "--k", "1..1", "--format", "json"],
        capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["results"][0]["status"] == "PASS"
    assert payload["results"][0]["identity"] == "ck"


def test_verify_csv(capsys):
    code, out, _ = run_cli(
        ["verify", "ck", "--n", "1..1", "--k", "1..1", "--format", "csv"],
        capsys)
    assert code == 0
    assert out.splitlines()[0] == "line"


def test_bad_range_usage_error(capsys):
    code, _, err = run_cli(["moment", "--n", "5..1", "--k", "1"], capsys)
    assert code == 2 and "error" in err


def test_sequence_range_is_usage_error_naming_the_flag(capsys):
    # sequence lists one length; a range is refused by name, not by int()
    code, out, err = run_cli(["sequence", "alt", "--n", "1..3", "--k", "2"], capsys)
    assert (code, out) == (2, "")
    assert err == "error: sequence --n takes one integer, got '1..3'\n"


@pytest.mark.parametrize("argv, err", [
    (["moment", "--n", "abc", "--k", "2"],
     "error: moment --n takes an integer or a range a..b, got 'abc'\n"),
    (["moment", "--n", "3..", "--k", "2"],
     "error: moment --n takes an integer or a range a..b, got '3..'\n"),
    (["verify", "sigma", "--n", "1..x", "--k", "2"],
     "error: verify --n takes an integer or a range a..b, got '1..x'\n"),
    (["verify", "usmani", "--k", "1", "--m", "..2"],
     "error: verify --m takes an integer or a range a..b, got '..2'\n"),
])
def test_unparsable_range_is_usage_error_naming_the_flag(argv, err, capsys):
    # not int()'s "invalid literal" message: the flag and the a..b form
    assert run_cli(argv, capsys) == (2, "", err)


# -- exact negative moments, per-tuple isolation, exit codes, worker count ------

def _assert_negative_table_matches_sympy(capsys, k, n_max, b_arg, lam_arg):
    """mu_{-n} = (A^{-n})_{0,0} = (adj(A)^n)_{0,0} / det(A)^n for the
    tridiagonal transfer matrix A."""
    sympy = pytest.importorskip("sympy")
    b = list(sympy.symbols(f"b0:{k + 1}"))
    lam = list(sympy.symbols(f"lam0:{k + 1}"))
    if b_arg.startswith("custom:"):
        given = [int(v) for v in b_arg[len("custom:["):-1].split(",")]
        b[:len(given)] = given
    if lam_arg == "one":
        lam = [1] * (k + 1)
    A = sympy.Matrix(k + 1, k + 1, lambda i, j: b[i] if i == j else 1 if j == i + 1
                     else lam[i] if j == i - 1 else 0)
    adj, det = A.adjugate(), A.det()
    code, out, _ = run_cli(["moment", "--n", f"1..{n_max}", "--k", str(k), "--negative",
                            "--b", b_arg, "--lambda", lam_arg], capsys)
    assert code == 0
    column = sympy.eye(k + 1)[:, 0]
    names = {str(v): v for v in b + lam if isinstance(v, sympy.Symbol)}
    lines = data_lines(out)
    assert len(lines) == n_max
    for n, line in enumerate(lines, 1):
        column = (adj * column).applyfunc(sympy.expand)
        num, den = sympy.fraction(sympy.together(
            sympy.parse_expr(line.split(" ", 1)[1].replace("^", "**"), local_dict=names)))
        assert sympy.expand(num * det ** n - column[0] * den) == 0, n


def test_moment_negative_matches_sympy(capsys):
    _assert_negative_table_matches_sympy(capsys, 3, 3, "symbolic", "one")


@pytest.mark.parametrize("k, n_max, b_arg", [(2, 6, "custom:[1,2]"), (3, 4, "symbolic")])
def test_moment_negative_rational_matches_sympy(capsys, k, n_max, b_arg):
    # P_{k+1}(0) is not a unit here, so the values are rational functions
    _assert_negative_table_matches_sympy(capsys, k, n_max, b_arg, "symbolic")


@pytest.mark.parametrize("n_max, argv", [
    (30, ["--k", "10", "--b", "custom:[9/4,1,8/9,7,2,1,1/2,3/2,1/4,9/2,1/3]",
          "--lambda", "custom:[7/6,8,8,5/7,1,9/4,1/4,1,4/7,3/2]"]),
    (6, ["--k", "2", "--b", "custom:[1,2]", "--r", "2", "--s", "0"]),
])
def test_moment_negative_table_is_one_stepping(capsys, monkeypatch, n_max, argv):
    # the whole table comes from one run of rows e_r^T adj(A)^t, t <= n_max
    from negmom import moments
    calls = []
    rows = moments._adjugate_rows
    monkeypatch.setattr(moments, "_adjugate_rows",
                        lambda r, t_max, *a: calls.append(t_max) or rows(r, t_max, *a))
    code, out, _ = run_cli(["moment", "--n", f"1..{n_max}", "--negative"] + argv, capsys)
    assert code == 0 and len(data_lines(out)) == n_max
    assert calls == [n_max]


_B12 = "custom:[3/2,5/2,1,8/7,2,8,1,1/8,5/4,1/3,1,1/9,1/7]"
_LAM12 = "custom:[4/7,1/9,1/2,8/9,2/3,1,8/5,1/7,9/2,3/5,1/3,9/7]"


@pytest.mark.parametrize("n_max, argv, s", [
    (12, ["--k", "4"], 0),
    (40, ["--k", "12", "--b", _B12, "--lambda", _LAM12, "--r", "3", "--s", "9"], 9),
    (6, ["--k", "2", "--r", "2", "--s", "1", "--format", "json"], 1),
])
def test_moment_table_is_one_stepping(capsys, monkeypatch, n_max, argv, s):
    # the whole forward table comes from one run of n_max steps aimed at s
    from negmom import moments
    calls = []
    rows = moments.moment_vectors
    monkeypatch.setattr(moments, "moment_vectors", lambda k, spec, r, n, *a:
                        calls.append((n, *a)) or rows(k, spec, r, n, *a))
    code, out, _ = run_cli(["moment", "--n", f"0..{n_max}"] + argv, capsys)
    assert code == 0 and str(n_max) in out
    assert calls == [(n_max, s)]


@pytest.mark.parametrize("argv, code, passes", [
    (["--n", "1..4", "--k", "3"], 0, 2),
    (["--n", "1..3", "--k", "3", "--lambda", "one", "--r", "1", "--s", "2"], 0, 2),
    (["--n", "0..3", "--k", "3", "--b", "zero", "--lambda", "one"], 2, 2),   # index below 1
    (["--n", "1..3", "--k", "2", "--b", "zero", "--lambda", "one"], 2, 1),   # ill-defined
])
def test_moment_negative_table_steps_the_continuants_twice(capsys, monkeypatch, argv, code,
                                                           passes):
    # once for theta, whose last entry is the domain check, and once for the
    # reversed spec's phi, which adj(A) needs; no separate pass checks the domain
    from negmom import moments
    calls = []
    continuants = moments._continuants
    monkeypatch.setattr(moments, "_continuants",
                        lambda k, spec: calls.append(spec.name) or continuants(k, spec))
    assert run_cli(["moment", "--negative"] + argv, capsys)[0] == code
    assert len(calls) == passes, calls


def test_moment_negative_index_below_one_prints_no_table(capsys):
    code, out, err = run_cli(["moment", "--n", "0..3", "--k", "3", "--negative",
                              "--b", "zero", "--lambda", "one"], capsys)
    assert code == 2 and out == ""
    assert err == "error: negative moment indices start at 1\n"


@pytest.mark.parametrize("n", ["-1", "-1..2", "-3..-1"])
def test_moment_negative_index_without_flag_is_usage_error(n, capsys):
    code, out, err = run_cli(["moment", f"--n={n}", "--k", "2"], capsys)
    assert code == 2 and out == ""
    assert err == "error: moment indices start at 0; negative indices need --negative\n"


@pytest.mark.parametrize("argv, r, s", [
    (["--n", "1", "--r", "5"], 5, 0),
    (["--n", "1", "--s", "5"], 0, 5),
    (["--n", "1..3", "--negative", "--r", "5"], 5, 0),
    (["--n", "1..3", "--negative", "--s", "5"], 0, 5),
    (["--n", "1..3", "--negative", "--r", "-1"], -1, 0),
])
def test_moment_height_out_of_range_is_usage_error(argv, r, s, capsys):
    code, out, err = run_cli(["moment", "--k", "3"] + argv, capsys)
    assert code == 2 and out == ""
    assert err == f"error: heights r = {r}, s = {s} must lie in [0, k = 3]\n"


def test_schroeder_count_below_height_zero(capsys):
    # every path starts at height 0, which a bound k < 0 excludes, as in motzkin
    for n in ("3", "2", "0"):
        for family in ("schroeder", "motzkin"):
            code, out, _ = run_cli(["sequence", family, "--n", n, "--k", "-1"], capsys)
            assert code == 0 and data_lines(out) == ["0"]


def test_sequence_count_streams(capsys):
    # 139,997 sequences: a list of them alone takes tens of MB
    import tracemalloc
    tracemalloc.start()
    try:
        code = main(["sequence", "alt", "--n", "11", "--k", "4"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out = capsys.readouterr().out
    assert code == 0 and data_lines(out) == ["139997"]
    assert peak < 2 * 2 ** 20


def test_moment_negative_huge_weight_stays_exact(capsys):
    code, out, _ = run_cli(["moment", "--n", "3", "--k", "1", "--b", "custom:[1e400]",
                            "--negative"], capsys)
    assert code == 0
    assert str(10 ** 400) in out


@pytest.mark.parametrize("weights", [["--b", "custom:[1/0]", "--lambda", "one"],
                                     ["--b", "one", "--lambda", "custom:[2,1/0]"],
                                     ["--b", "custom:[nan]", "--lambda", "one"],
                                     ["--b", "custom:[,2]", "--lambda", "one"],
                                     ["--b", "custom:[1,,2]", "--lambda", "one"],
                                     ["--b", "custom:[1,2,]", "--lambda", "one"]])
def test_custom_weight_without_a_value_is_usage_error(weights, capsys):
    code, out, err = run_cli(["moment", "--n", "0..2", "--k", "2"] + weights, capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err


def test_verify_out_of_domain_tuple_is_skipped(capsys):
    code, out, _ = run_cli(["verify", "ck", "--n", "0..2", "--k", "1..2"], capsys)
    assert code == 0
    rows = data_lines(out)
    assert len(rows) == 6
    assert rows[0] == "ck params=n=0,k=1 status=SKIPPED"
    assert all(r.endswith("status=PASS") for r in rows[2:])
    code, out, _ = run_cli(["verify", "ck", "--n", "0", "--k", "1", "--format", "json"],
                           capsys)
    assert json.loads(out)["results"][0]["witness"] == "negative index n must be >= 1"


@pytest.mark.parametrize("identity", IDENTITIES)
def test_verify_nonpositive_grid_skips_and_never_fails(identity, capsys):
    # every tuple outside an identity's domain is SKIPPED with its reason
    code, out, err = run_cli(["verify", identity, "--n=-1..1", "--k=-1..1", "--m=-1..1",
                              "--format", "json"], capsys)
    rows = json.loads(out)["results"]
    assert code == 0 and err == ""
    assert rows and {r["status"] for r in rows} <= {"PASS", "SKIPPED"}
    assert all(r["witness"] for r in rows if r["status"] == "SKIPPED")


@pytest.mark.parametrize("identity", IDENTITIES)
def test_verify_in_domain_tuples_pass(identity, capsys):
    # a tuple that the declared domain admits is checked and PASSes; only a
    # tuple outside it is SKIPPED, with the first failing rule's reason
    from negmom.cli import _IDENTITIES

    code, out, err = run_cli(["verify", identity, "--n", "1..2", "--k", "1..2", "--m", "1..2",
                              "--format", "json"], capsys)
    assert code == 0 and err == ""
    for row in json.loads(out)["results"]:
        params = {key: int(v) if v.isdigit() else v
                  for key, v in (kv.split("=") for kv in row["params"].split(","))}
        failed = [reason for reason, holds in _IDENTITIES[identity][3] if not holds(**params)]
        want = ("SKIPPED", failed[0]) if failed else ("PASS", "")
        assert (row["status"], row["witness"]) == want, row["params"]


def test_verify_nonpositive_reasons(capsys):
    def reasons(identity, n, k, m="1"):
        _, out, _ = run_cli(["verify", identity, f"--n={n}", f"--k={k}", f"--m={m}",
                             "--format", "json"], capsys)
        return [r["witness"] for r in json.loads(out)["results"]]
    assert reasons("ck", "0..1", "0") == ["negative index n must be >= 1", "needs k >= 1"]
    assert reasons("sigma", "1", "-1") == ["needs k >= 0"]   # was a false FAIL
    assert reasons("thm15", "-1", "0", "0..1") == ["", "needs n, k, m >= 0"]
    assert reasons("conj50", "1", "0..1", "-1") == ["needs k, m >= 0"] * 2
    assert reasons("connection2", "-1", "0..1") == ["n must be nonnegative"] * 2
    assert reasons("alt-cf", "1", "-1") == ["bound k must be nonnegative"]
    assert reasons("dyck-motzkin", "0", "0") == ["needs n >= 0, k >= 1"]   # was an IndexError
    assert reasons("alt-transfer", "0", "-1") == ["needs n, k >= 0"]   # was a false FAIL
    assert reasons("vv-inv", "1", "-4..-3") == ["bound k must be nonnegative"] * 2   # was an ERROR


def verify_params(argv, capsys, monkeypatch):
    """The ``params=`` strings of a verify grid, every check stubbed to PASS."""
    from negmom import cli
    from negmom.reciprocity import IdentityCheck

    monkeypatch.delenv("NEGMOM_THREADS", raising=False)
    monkeypatch.setattr(cli, "run_check",
                        lambda identity, params: IdentityCheck(identity, params, "PASS"))
    code, out, err = run_cli(["verify", *argv], capsys)
    head, tail = f"{argv[0]} params=", " status=PASS"
    rows = data_lines(out)
    assert code == 0 and err == ""
    assert all(r.startswith(head) and r.endswith(tail) for r in rows)
    return [r[len(head):-len(tail)] for r in rows]


_NK = [f"n={n},k={k}" for n in (1, 2) for k in (0, 1)]
_NKM = [f"n={n},k={k},m={m}" for n in (1, 2) for k in (0, 1) for m in (2, 3)]
# the rows of `verify <identity> --n 1..2 --k 0..1 --m 2..3`, in order
_SMALL_GRID = {
    "ck": _NK,
    "ck-rs": ["n=1,k=1,r=1,s=1", "n=2,k=1,r=1,s=1"],   # r, s in 1..k
    "thm15": _NKM,
    "main": [p + ",spec=symbolic" for p in _NKM],
    "conj50": _NKM,
    "conj53": _NKM,
    "thm34": _NKM,
    "rpp": [f"n={n},m={m},k={k},mode=symbolic-VA"
            for n in (1, 2) for m in (2, 3) for k in (0, 1)],
    "pv2": _NK,
    "pv3a": _NK,
    "pv3b": _NK,
    "pv3-rs": [f"n={n},k={k},r={r},s={s}" for n in (1, 2) for k in (0, 1)
               for r in range(3 * k + 1) for s in range(3 * k + 1)],   # r, s in 0..3k
    "usmani": ["k=0", "k=1"],
    "vv-inv": ["k=0", "k=1"],
    "sigma": _NK,
    "alt-cf": ["k=0", "k=1"],
    "special-dets": ["k=0", "k=1"],
    "connection1": _NK,
    "connection2": _NK,
    "dyck-motzkin": _NK,
    "alt-transfer": _NK,
}


@pytest.mark.parametrize("identity", IDENTITIES)
def test_verify_grid_params(identity, capsys, monkeypatch):
    argv = [identity, "--n", "1..2", "--k", "0..1", "--m", "2..3"]
    assert verify_params(argv, capsys, monkeypatch) == _SMALL_GRID[identity]


def test_verify_grid_flags(capsys, monkeypatch):
    params = lambda *argv: verify_params(list(argv), capsys, monkeypatch)
    assert params("ck-rs", "--k", "2") == ["n=1,k=2,r=1,s=1", "n=1,k=2,r=1,s=2",
                                           "n=1,k=2,r=2,s=1", "n=1,k=2,r=2,s=2"]
    assert params("ck-rs", "--k", "2", "--r", "2") == ["n=1,k=2,r=2,s=1", "n=1,k=2,r=2,s=2"]
    assert params("pv3-rs", "--k", "1", "--r", "0..1", "--s", "3") == [
        "n=1,k=1,r=0,s=3", "n=1,k=1,r=1,s=3"]
    assert params("main", "--spec", "one-one", "--m", "1..2") == [
        "n=1,k=1,m=1,spec=one-one", "n=1,k=1,m=2,spec=one-one"]
    assert params("rpp", "--mode", "q") == ["n=1,m=1,k=1,mode=q"]
    assert params("usmani", "--n", "7", "--m", "4") == ["k=1"]   # ignored flags
    assert params("ck", "--m", "5", "--r", "2", "--s", "3") == ["n=1,k=1"]
    # an ignored flag is still parsed
    code, out, err = run_cli(["verify", "usmani", "--n", "3..1", "--k", "1"], capsys)
    assert (code, out, err) == (2, "", "error: empty range '3..1'\n")


def test_verify_looks_checks_up_in_reciprocity(capsys, monkeypatch):
    # a wrapper bound in reciprocity after import (a tracer's) sees every check
    from negmom import cli
    calls = []
    check_ck = cli.reciprocity.check_ck
    monkeypatch.setattr(cli.reciprocity, "check_ck",
                        lambda n, k: calls.append((n, k)) or check_ck(n, k))
    code, _, _ = run_cli(["verify", "ck", "--n", "1..2", "--k", "1"], capsys)
    assert code == 0 and calls == [(1, 1), (2, 1)]


def test_verify_unexpected_error_has_own_exit_code(capsys, monkeypatch):
    from negmom import cli

    def boom(n, k):
        if n == 2:
            raise RuntimeError("boom")
        if n == 3:   # inside the declared domain a ValueError is a bug too
            raise ValueError("stray")
        return cli.reciprocity.check_ck(n, k)

    monkeypatch.setitem(cli._IDENTITIES, "ck", (boom, *cli._IDENTITIES["ck"][1:]))
    code, out, _ = run_cli(["verify", "ck", "--n", "0..4", "--k", "1"], capsys)
    assert code == cli.INTERNAL_ERROR != cli.FAIL_ERROR
    assert data_lines(out) == ["ck params=n=0,k=1 status=SKIPPED",
                               "ck params=n=1,k=1 status=PASS",
                               "ck params=n=2,k=1 status=ERROR error=RuntimeError: boom",
                               "ck params=n=3,k=1 status=ERROR error=ValueError: stray",
                               "ck params=n=4,k=1 status=PASS"]
    code, out, _ = run_cli(["verify", "ck", "--n", "3", "--k", "1"], capsys)
    assert code == 3
    assert data_lines(out) == ["ck params=n=3,k=1 status=ERROR error=ValueError: stray"]


def test_unexpected_error_outside_verify_exits_3(capsys, monkeypatch):
    from negmom import cli

    def boom(args):
        raise KeyError("boom")

    monkeypatch.setattr(cli, "cmd_moment", boom)
    code, _, err = run_cli(["moment", "--n", "1", "--k", "1"], capsys)
    assert code == cli.INTERNAL_ERROR
    assert "internal error: KeyError" in err


def _fresh_negmom(argv, code):
    """Run ``code`` with ``argv`` in a fresh interpreter that imports negmom
    from this checkout; the completed process."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import negmom
    env = dict(os.environ, PYTHONPATH=str(Path(negmom.__file__).parent.parent))
    env.pop("NEGMOM_THREADS", None)
    return subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True,
                          text=True, timeout=120)


_PARSED_TWICE = [
    ["moment", "--n", "1..3", "--k", "2", "--negative"],
    ["moment", "--k", "2"],                  # an argparse usage error: no --n
    ["verify", "ck", "--n", "1..2", "--k", "1", "--format", "json"],
    ["moment", "--n", "0..4", "--k", "2", "--r", "1", "--format", "csv"],
    ["sequence", "motzkin", "--n", "4", "--k", "1"],
]


@pytest.mark.parametrize("argv", _PARSED_TWICE, ids=" ".join)
def test_main_twice_in_one_process_prints_what_a_fresh_run_prints(argv, capsys):
    # main reuses the process's one parser: a second call in the same
    # process prints what a fresh interpreter prints, usage errors included
    from negmom import cli
    fresh = _fresh_negmom(argv, "import sys; from negmom.cli import main; "
                                "sys.exit(main(sys.argv[1:]))")
    want = (fresh.returncode, data_lines(fresh.stdout), fresh.stderr)
    for _ in range(2):
        try:
            code = cli.main(argv)
        except SystemExit as exc:   # argparse reports usage errors by exiting
            code = exc.code
        captured = capsys.readouterr()
        assert (code, data_lines(captured.out), captured.err) == want


def test_parser_is_built_on_first_use_and_once_per_process():
    # not at import (the benchmark times import plus build_parser() as its
    # set-up), and once for any number of main calls
    counting = ("import argparse, contextlib, io\n"
                "built = []\n"
                "init = argparse.ArgumentParser.__init__\n"
                "argparse.ArgumentParser.__init__ = "
                "lambda self, *a, **k: built.append(1) or init(self, *a, **k)\n"
                "import negmom.cli as cli\n"
                "at_import = len(built)\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                "    cli.main(['moment', '--n', '1', '--k', '1'])\n"
                "    one = len(built)\n"
                "    cli.main(['verify', 'ck', '--n', '1', '--k', '1'])\n"
                "assert cli.build_parser() is cli.build_parser()\n"
                "print(at_import, one, len(built))")
    at_import, one, three = map(int, _fresh_negmom([], counting).stdout.split())
    assert at_import == 0 and one > 0 and three == one


def test_dispatch_looks_commands_up_at_call_time(monkeypatch):
    # the parser binds no function: a cmd_* bound after it was built (a
    # test's patch, the benchmark's tracer) is the one main runs
    from negmom import cli
    assert cli.main(["moment", "--n", "1", "--k", "1"]) == 0   # the parser exists
    seen = []
    monkeypatch.setattr(cli, "cmd_moment", lambda args: seen.append(args.k) or 0)
    assert cli.main(["moment", "--n", "1", "--k", "4"]) == 0
    assert seen == [4]


def test_verify_elapsed_covers_the_checks(capsys, monkeypatch):
    import time
    from negmom import cli

    def slow(identity, params):
        time.sleep(0.05)
        return cli.reciprocity.check_ck(params["n"], params["k"])

    monkeypatch.delenv("NEGMOM_THREADS", raising=False)
    monkeypatch.setattr(cli, "run_check", slow)
    code, out, _ = run_cli(["verify", "ck", "--n", "1..2", "--k", "1"], capsys)
    assert code == 0
    footer = out.splitlines()[-1]
    assert footer.startswith("# elapsed ") and footer.endswith("s")
    assert float(footer[len("# elapsed "):-1]) >= 0.1


@pytest.mark.parametrize("text", ["0", "-3", "abc", "", "1.5"])
def test_worker_count_rejects_non_positive_integers(text):
    from negmom.cli import worker_count
    with pytest.raises(ValueError, match="NEGMOM_THREADS"):
        worker_count(text, 4)


def test_worker_count_defaults_and_clamps():
    from negmom.cli import worker_count
    assert worker_count(None, 4) == 1
    assert worker_count("3", 4) == 3
    assert worker_count(str(10 ** 6), 4) == 4
    assert worker_count(str(10 ** 6), None) == 1


def test_bad_worker_count_is_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("NEGMOM_THREADS", "abc")
    code, _, err = run_cli(["verify", "ck", "--n", "1", "--k", "1"], capsys)
    assert code == 2
    assert "NEGMOM_THREADS" in err


def test_sequence_list_streams_its_rows():
    # 139,997 rows: held as strings until the end they peaked at 22.7 MB traced
    import contextlib
    import os
    import tracemalloc
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        tracemalloc.start()
        try:
            code = main(["sequence", "alt", "--n", "11", "--k", "4", "--emit", "list"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert code == 0
    assert peak < 2 * 2 ** 20


@pytest.mark.parametrize("argv", [
    ["sequence", "alt", "--n", "3", "--k", "2", "--emit", "list"],
    ["sequence", "schroeder", "--n", "1", "--k", "0", "--emit", "list"],   # no rows
    ["verify", "ck", "--n", "0..2", "--k", "1"],
])
def test_streamed_json_matches_whole_document(argv, capsys):
    code, out, _ = run_cli(argv + ["--format", "json"], capsys)
    assert code == 0
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"


def test_closed_stdout_is_not_an_error():
    # the reader stops after one line, as `negmom ... | head -1` does
    import os
    import subprocess
    import sys
    from pathlib import Path

    import negmom
    src = str(Path(negmom.__file__).parent.parent)
    path = [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    # about 1 MB of rows: far more than a pipe buffers, so writes meet the closed end
    proc = subprocess.Popen([sys.executable, "-m", "negmom.cli", "sequence", "alt",
                             "--n", "10", "--k", "4", "--emit", "list"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 0
    assert first == b"(1,1,1,1,1,1,1,1,1,1)\n"
    assert err == b""


@pytest.mark.parametrize("argv", [
    ["--n", "-1", "--m", "1", "--k", "1"],
    ["--n", "1", "--m", "-1", "--k", "1"],
    ["--n", "-1", "--m", "1", "--k", "1", "--emit", "list"],
])
def test_sequence_rpp_negative_shape_is_usage_error(argv, capsys):
    # the skew staircase does not exist: no count of 1 for its "empty filling"
    code, out, err = run_cli(["sequence", "rpp", *argv], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: ")
    code, out, _ = run_cli(["sequence", "rpp", "--n", "1", "--m", "0", "--k", "1"], capsys)
    assert code == 0 and data_lines(out) == ["1"]   # the empty shape's one filling


@pytest.mark.parametrize("pin", [["--r", "1"], ["--s", "2"]])
def test_sequence_alt_with_one_endpoint_is_usage_error(pin, capsys):
    # one pin alone was dropped silently, printing the unpinned count 5
    code, out, err = run_cli(["sequence", "alt", "--n", "3", "--k", "2", *pin], capsys)
    assert (code, out) == (2, "")
    assert "--r and --s" in err
    code, out, _ = run_cli(["sequence", "alt", "--n", "3", "--k", "2", "--r", "1",
                            "--s", "2"], capsys)
    assert code == 0 and data_lines(out) == ["1"]


def _golden_runs():
    """(argv, exit code, rows) of each run in verify_golden.txt."""
    from pathlib import Path
    runs = []
    for line in (Path(__file__).parent / "verify_golden.txt").read_text().splitlines():
        if line.startswith("$ "):
            argv, code = line[2:].split("  # exit ")
            argv = argv.split()   # verify <identity> <flags> --format json
            runs.append(pytest.param(argv, int(code), [], id=" ".join(argv[1:-2])))
        elif line and not line.startswith("#"):
            runs[-1].values[2].append(line)
    return runs


@pytest.mark.parametrize("argv, code, rows", _golden_runs())
def test_verify_json_golden(argv, code, rows, capsys):
    # every status and SKIPPED reason of small grids, the nonpositive edges included
    got_code, out, err = run_cli(argv, capsys)
    got = [f"{r['params']} {r['status']} {r['witness']}".rstrip()
           for r in json.loads(out)["results"]]
    assert (got_code, got, err) == (code, rows, "")


def _moment_golden_runs(name, id_from):
    """(argv, exit code, stdout lines) of each run in the golden file name,
    each run's id its argv from word id_from on."""
    from pathlib import Path
    runs = []
    for line in (Path(__file__).parent / name).read_text().splitlines():
        if line.startswith("$ "):
            argv, code = line[2:].split("  # exit ")
            argv = argv.split()
            runs.append(pytest.param(argv, int(code), [], id=" ".join(argv[id_from:])))
        elif not line.startswith("#"):
            runs[-1].values[2].append(line)
    return runs


def _assert_moment_golden(argv, code, lines, capsys):
    got_code, out, err = run_cli(argv, capsys)
    got = [line for line in out.splitlines() if not line.startswith("# elapsed")]
    assert (got_code, got, err) == (code, lines, "")


# the ids drop the common `moment --n 1..4 --negative`
@pytest.mark.parametrize("argv, code, lines", _moment_golden_runs("moment_golden.txt", 4))
def test_moment_negative_rendered_golden(argv, code, lines, capsys):
    # rational values in lowest terms, their denominators normalized, rendered
    # byte for byte: a change of either shows here, not in a value check
    _assert_moment_golden(argv, code, lines, capsys)


@pytest.mark.parametrize("argv, code, lines",
                         _moment_golden_runs("moment_forward_golden.txt", 1))
def test_moment_forward_rendered_golden(argv, code, lines, capsys):
    # forward tables byte for byte: every (r, s) corner, ranges not starting
    # at 0, custom prefixes, fractional and Laurent weights, csv and json
    _assert_moment_golden(argv, code, lines, capsys)


def test_sweep_digests_unchanged(monkeypatch):
    # every run of the digest corpus (tests/sweep_digests.py: moment tables
    # over the mini-language, zero lam_i among them, sequences and usage
    # errors) prints and exits byte for byte as recorded; a difference
    # names its argv.  No run reaches over_power's gcd fallback: every
    # block of det A that is not a unit is certified irreducible
    import sweep_digests
    from negmom import ratfunc
    gcd, calls = ratfunc.poly_gcd, []
    monkeypatch.setattr(ratfunc, "poly_gcd", lambda *a: calls.append(a) or gcd(*a))
    assert sweep_digests.differing() == []
    assert calls == []
