"""Field wire-format round trips and CLI contract (exit codes, determinism)."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from sympy import Poly, cyclotomic_poly, symbols, totient

from cmfields import cli
from cmfields.cli import main
from cmfields.closure import splitting_data
from cmfields.wire import dumps, field_to_wire, parse_field


class TestWire:
    def test_field_roundtrip(self, gauss):
        rec = field_to_wire(gauss)
        assert rec == {"min_poly": [1, 0, 1]}
        assert parse_field(rec) == gauss

    def test_fraction_coefficients(self):
        field = parse_field({"min_poly": ["-1/2", 0, 1]})
        assert field.degree == 2


def _cyclotomic(m):
    x = symbols("x")
    return [int(c) for c in reversed(Poly(cyclotomic_poly(m, x), x).all_coeffs())]


def _cm_quartics(count=40):
    # x^4 + a x^2 + b with a <= 11, b < 30, a^2 > 4b (all four roots on the
    # imaginary axis) and irreducible: the first `count` in (a, b) order
    x = symbols("x")
    return [
        [b, 0, a, 0, 1]
        for a in range(1, 12)
        for b in range(1, 30)
        if a * a > 4 * b and Poly(x**4 + a * x**2 + b, x).is_irreducible
    ][:count]


CM_QUARTICS = _cm_quartics()
# every cyclotomic field of degree <= 8, once each (m not 2 mod 4)
CYCLOTOMICS = [_cyclotomic(m) for m in range(3, 31) if totient(m) <= 8 and m % 4 != 2]
SURVEY_FIELDS = [
    [1, 0, 1], [1, 1, 1], [5, 0, 1], [1, 1, 1, 1, 1], [1, 0, 5, 0, 1], [3, 0, 6, 0, 1],
    [1, 1, 1, 1, 1, 1, 1], [1, -1, 0, 1, -1, 1, 0, -1, 1],
]
CM_DIGEST_FIELDS = SURVEY_FIELDS + [_cyclotomic(m) for m in (8, 9, 12, 20)] + CM_QUARTICS


@pytest.fixture
def field_file(tmp_path):
    def write(coeffs, name="field.json"):
        path = tmp_path / name
        path.write_text(json.dumps({"min_poly": coeffs}))
        return str(path)

    return write


class TestCLI:
    def test_cm_gauss(self, field_file, capsys):
        code = main(["cm", field_file([1, 0, 1])])
        out = capsys.readouterr().out
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        cm = next(r for r in records if r["record"] == "cm")
        assert cm["cm"] is True and cm["n_types"] == 2
        types = [r for r in records if r["record"] == "cm_type"]
        assert len(types) == 2
        assert all(t["reflex_field"] == {"min_poly": [1, 0, 1]} for t in types)

    def test_cm_not_cm(self, field_file, capsys):
        code = main(["cm", field_file([-2, 0, 0, 1])])
        out = capsys.readouterr().out
        assert code == 0
        records = [json.loads(l) for l in out.splitlines()]
        cm = next(r for r in records if r["record"] == "cm")
        assert cm["cm"] is False

    @pytest.mark.parametrize("command", ["cm", "reflex-verify"])
    @pytest.mark.parametrize(
        "text", ["{not json", "[1, 0, 1]", '{"min_poly": 5}', '{"min_poly": ["1/0", 1]}',
                 '{"min_poly": [true, 0, true]}'],
        ids=["not-json", "a-list", "min-poly-not-a-list", "zero-denominator", "booleans"],
    )
    def test_cm_parse_error(self, tmp_path, command, text):
        # a field file that is no JSON, or JSON of another shape, is a parse
        # error: exit 2 with one stderr line and no records, also under -O
        path = tmp_path / "bad.json"
        path.write_text(text)
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
        run = subprocess.run(
            [sys.executable, "-O", "-m", "cmfields.cli", command, str(path)],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert run.returncode == 2
        assert run.stdout == ""
        assert len(run.stderr.splitlines()) == 1, run.stderr

    def test_cm_closure_too_large(self, field_file, capsys):
        code = main(["cm", field_file([3, 0, 0, 0, 3, 0, 0, 0, 1])])
        capsys.readouterr()
        assert code == 3

    def test_byte_identical_output(self, field_file, capsys):
        path = field_file([1, 0, 1])
        main(["--seed", "9", "cm", path])
        first = capsys.readouterr().out
        main(["--seed", "9", "cm", path])
        second = capsys.readouterr().out
        assert first == second

    @pytest.mark.parametrize(
        "command, fields, extra, digest",
        [
            ("cm", [[1, -1, 0, 1, -1, 1, 0, -1, 1]], [],
             "c2ed27526889933ca3b85dd118c25149f3946dea73db225f923a3d93d7975f2f"),
            ("cm", [[3, 0, 6, 0, 1]], [],
             "31692bdce790a485aa8696e5158381755772d46d77053ef525e24974010929d5"),
            ("reflex-verify", [[1, 0, 1]], ["--samples", "5"],
             "0278c5c902b7cf5e7372186576d5519306a0a39b674f25502aa7840ed6466ec0"),
            ("st", None, ["5", "300"],
             "b13e07b774965b62e8a18518160f94bb31d8da7fd0e3e79d05a8dbd2fbddaf31"),
            ("reflex-verify", [[3, 0, 6, 0, 1]], ["--samples", "3"],
             "879753a27da6530689626ce8f2883af460b801adfc4bd818699745a7310450ce"),
            ("st", None, ["19000", "19200"],
             "58a56f37997180dd33039e84f0c0c7dd788403baa707b2fda6d1a780387d02f3"),
            ("cm", CM_DIGEST_FIELDS, [],
             "1cf51d30bbbe44eb41078e8d70ee03af3c3f6fa2366055b23106a3da5676c202"),
            ("st", None, ["5", "10000"],
             "1c0d9515408ed5750eb7f8c1cf857ac1624e223405a23477f351648e832aae6b"),
        ],
        ids=["cm-zeta15", "cm-quartic", "reflex-verify-gauss", "st-default",
             "reflex-verify-quartic", "st-window", "cm-52-fields", "st-10000"],
    )
    def test_golden_record_stream(self, field_file, capsys, command, fields, extra, digest):
        # SHA-256 of the whole stdout record stream, fixed for these inputs,
        # seed and version: a refactor or speed-up must leave it unchanged;
        # the streams of several fields are concatenated in order, and
        # fields None stands for the built-in corpus
        if fields is None:
            targets = ["default"]
        else:
            targets = [field_file(c, f"field{i}.json") for i, c in enumerate(fields)]
        out = ""
        for target in targets:
            code = main(["--seed", "9", command, target] + extra)
            out += capsys.readouterr().out
            assert code == 0, target
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_within_caps_inputs_succeed_or_are_refused(self, field_file, capsys):
        # inside the desk-scale caps every input succeeds or is refused with
        # a documented code (2 bad input, 3 closure too large): no exception
        # escapes main, and no run ends in an internal-invariant exit
        runs = [["cm", field_file(c, f"cm{i}.json")]
                for i, c in enumerate(CYCLOTOMICS + CM_QUARTICS)]
        runs += [["reflex-verify", "--samples", "0", field_file(c, f"rv{i}.json")]
                 for i, c in enumerate([[1, 0, 5, 0, 1], [3, 0, 6, 0, 1], [1, 0, 0, 0, 1]])]
        for argv in runs:
            code = main(argv)
            capsys.readouterr()
            assert code in (0, 2, 3), argv
        # x^4 + x + 1 is totally imaginary with a closure of degree 24: the
        # closure is refused as too large before any record
        code = main(["reflex-verify", "--samples", "0", field_file([1, 1, 0, 0, 1], "big.json")])
        out, err = capsys.readouterr()
        assert code == 3
        assert out == "" and len(err.splitlines()) == 1 and err.startswith("closure too large: ")

    @pytest.mark.parametrize("coeffs", [[3, 0, 0, 0, 1], [2, 0, -2, 0, 1]],
                             ids=["x^4+3", "x^4-2x^2+2"])
    def test_cm_no_commuting_conjugation(self, field_file, capsys, coeffs):
        # totally imaginary quartics whose closure has a complex conjugation
        # that is not central, so no automorphism of the field restricts it
        code = main(["cm", field_file(coeffs)])
        cm = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert code == 0
        assert cm == {"record": "cm", "field": {"min_poly": coeffs}, "cm": False,
                      "reason": "no automorphism commutes with complex conjugation"}
        assert not splitting_data(parse_field({"min_poly": coeffs})).central

    @pytest.mark.parametrize("m", [16, 24])
    def test_cm_cyclotomic_16_and_24(self, field_file, capsys, m):
        code = main(["cm", field_file(_cyclotomic(m))])
        records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert code == 0
        assert sum(r["record"] == "cm_type" for r in records) == 16

    def test_reflex_verify_pass_and_inject(self, field_file, capsys, monkeypatch):
        # a suite with one failing identity exits 1 and writes its witness
        path = field_file([1, 0, 1])
        code = main(["reflex-verify", path, "--samples", "5"])
        out = capsys.readouterr().out
        assert code == 0
        summary = json.loads(out.splitlines()[-1])
        assert summary["ok"] is True

        def one_failure(*args):
            return {"identities": {"injected": {"pass": 0, "fail": 1, "witness": "corrupt"}},
                    "ok": False, "prime_count": 0}

        monkeypatch.setattr(cli, "verify_reflex_identities", one_failure)
        code = main(["reflex-verify", path, "--samples", "5"])
        out = capsys.readouterr().out
        assert code == 1
        assert any("witness" in line for line in out.splitlines())

    def test_reflex_verify_bad_type_index(self, field_file, capsys):
        code = main(["reflex-verify", field_file([1, 0, 1]), "--type-index", "7"])
        capsys.readouterr()
        assert code == 2

    def test_reflex_verify_negative_samples(self, field_file, capsys):
        # refused like a bad type index: exit 2, one stderr line, no records
        code = main(["reflex-verify", field_file([1, 0, 1]), "--samples", "-3"])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1, err

    def test_st_usage_error(self, capsys):
        code = main(["st", "default", "50", "5"])
        capsys.readouterr()
        assert code == 2

    def test_st_small_range(self, capsys):
        code = main(["st", "default", "5", "40"])
        out = capsys.readouterr().out
        assert code == 0
        rows = [r for r in (json.loads(l) for l in out.splitlines()) if r["record"] == "st"]
        ordinary = [r for r in rows if r["status"] == "ordinary"]
        assert ordinary and all(r["ideal_match"] and r["valuation_match"] for r in ordinary)

    def test_st_supersingular_only_range_exits_zero(self, capsys):
        # a range with no ordinary rows still exits 0 and marks skips
        code = main(["st", "default", "11", "11"])
        out = capsys.readouterr().out
        assert code == 0
        rows = [r for r in (json.loads(l) for l in out.splitlines()) if r["record"] == "st"]
        assert all(r["status"] == "supersingular" for r in rows)

    def test_summary_format_suppresses_records(self, field_file, capsys):
        code = main(["--format", "summary", "cm", field_file([1, 0, 1])])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out == ""
        assert "CM field" in captured.err

    def test_degree_one_field(self, field_file, capsys):
        code = main(["cm", field_file([0, 1])])
        out = capsys.readouterr().out
        assert code == 0
        cm = next(r for r in (json.loads(l) for l in out.splitlines()) if r["record"] == "cm")
        assert cm["cm"] is False

    def test_st_custom_corpus_file(self, tmp_path, capsys):
        corpus = [
            {"a4": 0, "a6": 1, "cm_disc": -3, "min_poly": [1, 1, 1],
             "cm_endo": {"kind": "unit-scaling", "tangent": [0, 1]}},
        ]
        path = tmp_path / "corpus.json"
        path.write_text(json.dumps(corpus))
        code = main(["st", str(path), "5", "60"])
        out = capsys.readouterr().out
        assert code == 0
        rows = [r for r in (json.loads(l) for l in out.splitlines()) if r["record"] == "st"]
        assert all(r["a6"] == 1 for r in rows)
        assert any(r["status"] == "ordinary" for r in rows)

    @pytest.mark.parametrize(
        "corpus, reason",
        [
            ([{"a4": -1, "a6": 0, "cm_disc": -3, "min_poly": [1, 0, 1],
               "cm_endo": {"kind": "unit-scaling", "tangent": [0, 1]}}], "cm_disc"),
            ([{"a4": -1, "a6": 0, "cm_disc": 8, "min_poly": [-2, 0, 1],
               "cm_endo": {"kind": "unit-scaling", "tangent": [0, 1]}}], "not CM"),
            ([{"a4": -1, "a6": 0, "cm_disc": -4, "min_poly": [1, 0, 1],
               "cm_endo": {"kind": "isogeny", "tangent": [0, 1]}}], "kind"),
            ([{"a4": -1, "a6": 0, "cm_disc": -4, "min_poly": [1, 0, 1],
               "cm_endo": {"kind": "unit-scaling", "tangent": [-1, 0]}}], "generate"),
            ([{"a4": 0, "a6": 0, "cm_disc": -4, "min_poly": [1, 0, 1],
               "cm_endo": {"kind": "unit-scaling", "tangent": [0, 1]}}], "singular"),
            ({"a4": 0}, "list"),
            ([{"a4": 0}], "cm_endo"),
            ([{"a6": 1}], "cm_endo"),
            ([{"a4": -1, "a6": 0, "cm_disc": -4, "min_poly": [1, 0, 1]}], "cm_endo"),
            ([{"a4": "x", "a6": 0, "cm_disc": -4, "min_poly": [1, 0, 1],
               "cm_endo": {"kind": "unit-scaling", "tangent": [0, 1]}}], "a4"),
            ([{"a4": -1, "a6": 0, "cm_disc": -4, "min_poly": 5,
               "cm_endo": {"kind": "unit-scaling", "tangent": [0, 1]}}], "min_poly"),
            ([{"a4": -1, "a6": 0, "cm_disc": -4, "min_poly": [0, 0, 1],
               "cm_endo": {"kind": "unit-scaling", "tangent": [0, 1]}}], "reducible"),
            ([{"a4": -1, "a6": 0, "cm_disc": -4, "min_poly": [1, 0, 1],
               "cm_endo": {"kind": "unit-scaling", "tangent": [0, 1, 0]}}], "coordinates"),
            (5, "list"),
            ([{"a4": -1, "a6": 0, "cm_disc": -4, "min_poly": [1, 1, 0, 0, 1],
               "cm_endo": {"kind": "unit-scaling", "tangent": [0, 1]}}], "quadratic"),
        ],
        ids=["disc-mismatch", "not-cm", "unknown-kind", "tangent-in-q", "singular",
             "corpus-an-object", "record-a4-only", "record-a6-only", "no-cm-endo",
             "a4-not-an-integer", "min-poly-not-a-list", "min-poly-reducible",
             "tangent-too-long", "corpus-a-number", "min-poly-quartic"],
    )
    def test_st_refuses_a_bad_corpus_under_optimize(self, tmp_path, corpus, reason):
        # the corpus checks are real checks: under python -O a bad corpus, or
        # a record of the wrong shape, is still refused with one stderr line,
        # exit 2 and no records
        path = tmp_path / "corpus.json"
        path.write_text(json.dumps(corpus))
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
        run = subprocess.run(
            [sys.executable, "-O", "-m", "cmfields.cli", "st", str(path), "5", "40"],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert run.returncode == 2
        assert run.stdout == ""
        assert len(run.stderr.splitlines()) == 1 and reason in run.stderr, run.stderr

    def test_st_refuses_a_unit_scaling_that_is_no_automorphism(self, tmp_path):
        # y^2 = x^3 - x with Q(zeta3) data: zeta3 scaling maps the curve to
        # y^2 = x^3 - zeta3 x, not to itself (u^4 a4 != a4), so the record is
        # refused before any row; with or without python -O, exit 2
        record = {"a4": -1, "a6": 0, "cm_disc": -3, "min_poly": [1, 1, 1],
                  "cm_endo": {"kind": "unit-scaling", "tangent": [0, 1]}}
        path = tmp_path / "corpus.json"
        path.write_text(json.dumps([record]))
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
        for flags in ([], ["-O"]):
            run = subprocess.run(
                [sys.executable, *flags, "-m", "cmfields.cli", "st", str(path), "5", "60"],
                capture_output=True, text=True, env=env, timeout=300,
            )
            assert run.returncode == 2, (flags, run.stderr)
            assert run.stdout == ""
            assert len(run.stderr.splitlines()) == 1 and "automorphism" in run.stderr, run.stderr

    def test_st_row_error_is_a_failed_row(self, tmp_path, capsys, monkeypatch):
        # a row whose computation raises (here the Frobenius identification,
        # made to fail at p = 13 and 37) is an error row with a witness, the
        # sweep goes on, and the run exits 1
        from cmfields import cli
        from cmfields.errors import IdentificationFailed

        identify = cli.frobenius_element

        def failing(curve, p, **kwargs):
            if p in (13, 37):
                raise IdentificationFailed(f"no candidate matches at {p}")
            return identify(curve, p, **kwargs)

        monkeypatch.setattr(cli, "frobenius_element", failing)
        code = main(["st", "default", "5", "60"])
        records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert code == 1
        rows = [r for r in records if r["record"] == "st"]
        errors = [r for r in rows if r["status"] == "error"]
        assert [r["p"] for r in errors] == [13, 37, 13, 37]
        assert all(r["witness"].startswith("IdentificationFailed: ") for r in errors)
        assert rows[-1]["p"] == 59
        assert records[-1]["record"] == "summary" and records[-1]["ok"] is False

    def test_st_budget_caps_the_primes(self, capsys):
        # the rows stop below --budget, and a budget above 10^6 lets primes
        # past the default cap through as ordinary and supersingular rows
        code = main(["--budget", "30", "st", "default", "5", "60"])
        rows = [r for r in map(json.loads, capsys.readouterr().out.splitlines())
                if r["record"] == "st"]
        assert code == 0
        assert rows and max(r["p"] for r in rows) == 29
        code = main(["--budget", "2000000", "st", "default", "1000000", "1000040"])
        records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        rows = [r for r in records if r["record"] == "st"]
        assert code == 0
        assert rows and not [r for r in rows if r["status"] == "error"]
        assert {r["status"] for r in rows} == {"ordinary", "supersingular"}

    @pytest.mark.parametrize("argv", [
        ["--budget", "-5", "st", "default", "5", "40"],
        ["--budget", "100", "st", "default", "200", "300"],
        ["--budget", "7", "st", "default", "6", "40"],
        ["st", "default", "24", "28"],
    ])
    def test_st_refuses_a_budget_that_leaves_no_prime(self, capsys, argv):
        # a range with no prime p >= 5 below the budget is refused like
        # p_max < p_min: exit 2, one stderr line naming --budget, no records
        code = main(argv)
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and "--budget" in err, err

    def test_failed_invariant_exits_4_under_optimize(self, field_file):
        # with locate_among patched to answer 0, the two coset representatives
        # of a type on Q(zeta5) land on one embedding; the check is a raise,
        # not an assert, so python -O still stops with exit 4 and one line
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
        script = ("import sys; import cmfields.cmreflex as c; c.locate_among = lambda *a: 0; "
                  "from cmfields.cli import main; sys.exit(main(['cm', sys.argv[1]]))")
        run = subprocess.run(
            [sys.executable, "-O", "-c", script, field_file([1, 1, 1, 1, 1])],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert run.returncode == 4
        assert "Traceback" not in run.stderr
        assert run.stderr.splitlines()[-1] == (
            "internal invariant failed: InvariantViolated: coset representatives collide")

    def test_maximal_order_check_exits_4_under_optimize(self, field_file):
        # with the equation-order index patched to 2, disc(O) [O : Z[i]]^2
        # misses disc(x^2 + 1); the check in orders is a raise, so python -O
        # still stops reflex-verify with exit 4 and one line
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
        script = ("import sys; import cmfields.orders as o; "
                  "o.Order.equation_order_index = lambda self: 2; "
                  "from cmfields.cli import main; "
                  "sys.exit(main(['reflex-verify', '--samples', '0', sys.argv[1]]))")
        run = subprocess.run(
            [sys.executable, "-O", "-c", script, field_file([1, 0, 1])],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert run.returncode == 4
        assert "Traceback" not in run.stderr
        assert run.stderr.splitlines()[-1] == (
            "internal invariant failed: InvariantViolated: "
            "disc(O) [O : Z[D theta]]^2 = -16, not disc(g) = -4")

    def test_config_header_embedded(self, field_file, capsys):
        main(["--seed", "123", "cm", field_file([1, 0, 1])])
        out = capsys.readouterr().out
        config = json.loads(out.splitlines()[0])
        assert config["record"] == "config"
        assert config["seed"] == 123 and "bits" not in config
        # the unused precision flag is gone: argparse refuses it as a usage error
        with pytest.raises(SystemExit) as err:
            main(["--bits", "128", "cm", field_file([1, 0, 1])])
        assert err.value.code == 2
        assert "version" in config and "budget" in config
