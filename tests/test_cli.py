import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from drinfeld_cm import cli
from drinfeld_cm.errors import InvariantError, PrecisionError

SRC = str(Path(__file__).resolve().parents[1] / "src")

REQUESTS = [
    ["class-number", "--q", "3", "--flavor", "odd", "--D", "T-T^2"],
    ["enumerate", "--q", "4", "--flavor", "even_insep", "--f", "T"],
    ["height", "--q", "3", "--flavor", "odd", "--D", "T^3"],
    ["hilbert", "--q", "3", "--flavor", "odd", "--D", "T-T^2"],
]


def separate_run(argv):
    env = {**os.environ, "PYTHONPATH": SRC}
    out = subprocess.run([sys.executable, "-m", "drinfeld_cm", *argv], capture_output=True, text=True, env=env)
    return out.returncode, out.stdout


def test_main_reused_in_one_process(capsys, monkeypatch):
    monkeypatch.setattr(cli, "_parser", None)
    in_process = []
    for argv in REQUESTS:
        code = cli.main(argv)
        in_process.append((code, capsys.readouterr().out))
    assert cli._parser is not None
    assert in_process == [separate_run(argv) for argv in REQUESTS]
    assert all(code == 0 for code, _ in in_process)


def test_bad_input_exit_code_unchanged_after_reuse(capsys):
    assert cli.main(REQUESTS[0]) == 0
    assert cli.main(["class-number", "--q", "6", "--flavor", "odd", "--D", "T"]) == 3
    assert "not a prime power" in capsys.readouterr().err


@pytest.mark.parametrize(
    "error, code, prefix",
    [(InvariantError, 1, "invariant violation: "), (PrecisionError, 2, "precision exhausted: ")],
)
def test_error_exit_codes(error, code, prefix, capsys, monkeypatch):
    def fail(cfg, args):
        raise error("injected")

    monkeypatch.setattr(cli, "_build_order", fail)
    assert cli.main(REQUESTS[0]) == code
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == prefix + "injected\n"


@pytest.mark.parametrize(
    "q, err",
    [
        (0, "p = 0 is not prime"),
        (1, "p = 1 is not prime"),
        (6, "q = 6 is not a prime power"),
        (12, "q = 12 is not a prime power"),
        (-3, "p = -3 is not prime"),
    ],
)
def test_q_that_is_not_a_prime_power_is_bad_input(q, err, capsys):
    assert cli.main([f"--q={q}", "class-number", "--flavor", "odd", "--D", "T^3+T+1"]) == 3
    out = capsys.readouterr()
    assert (out.out, out.err) == ("", f"bad input: {err}\n")


def test_modulus_flag_is_checked_and_echoed(capsys):
    # x^2 + 2 = (x + 1)(x + 2) over F_3; x^2 + x + 2 is irreducible
    argv = ["--q", "9", "--modulus", "[2,0,1]", "class-number", "--flavor", "odd", "--D", "T^3+T+1"]
    assert cli.main(argv) == 3
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("bad input: modulus must be monic irreducible")
    argv[3] = "[2,1,1]"
    assert cli.main(argv) == 0
    assert json.loads(capsys.readouterr().out)["field"] == "3,2,1,[2,1,1]"


@pytest.mark.parametrize(
    "argv",
    [
        ["nosuch"],
        ["--modulus", "[1,x]", "class-number", "--flavor", "odd", "--D", "T"],
        ["class-number", "--flavor", "odd", "--D", "T^^2"],
        ["--prec", "60", *REQUESTS[0]],
        ["--seed", "0", *REQUESTS[0]],
        ["--jobs", "2", "verify", "--dbound", "9"],
        ["--dbound", "-9", "search-units"],
        ["search-andre-oort", "--degbound", "-4"],
    ],
)
def test_bad_command_line_is_bad_input(argv, capsys):
    assert cli.main(argv) == 3
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("bad input: ")


Q3_DEGREE_8_GAMMAS = [
    "2*T^8",
    "2*T^8+2*T^7+2*T^6+2*T^5+2*T^4+2*T^3+2*T^2+2*T+2",
    "2*T^8+T^7+2*T^6+T^5+2*T^4+T^3+2*T^2+T+2",
    "T^8+2*T^6+2*T^2+1",
    "T^8+2*T^7+2*T^5+T^4",
    "T^8+T^7+T^5+T^4",
]
UNIT_COLUMNS = ("order", "disc_deg", "route", "norm_degree", "unit", "laclef_consistent")


@pytest.mark.parametrize("command", ["search-andre-oort", "search-units"])
def test_search_tsv_rows_equal_the_json_rows(command, capsys):
    argv = ["--q", "3", "--dbound", "9", command, "--output"]
    assert cli.main([*argv, "json"]) == 0
    rep = json.loads(capsys.readouterr().out)["search"]
    assert cli.main([*argv, "tsv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("# ")
    rows = [line.split("\t") for line in lines[2:]]
    if command == "search-andre-oort":
        assert lines[1] == "degree\tgamma\tpair"
        assert [h["gamma"] for h in rep["hits"]] == Q3_DEGREE_8_GAMMAS and rep["min_hit_degree"] == 8
        assert rows == [[str(h["degree"]), h["gamma"], str(h["pair"])] for h in rep["hits"]]
    else:
        assert lines[1] == "order\tdisc_deg\troute\tnorm_degree\tunit\tlaclef"
        assert rep["orders"] == len(rows) > 0 and rep["units_found"] == 0
        assert rows == [[str(row.get(k, "")) for k in UNIT_COLUMNS] for row in rep["rows"]]


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0
    assert "usage: drinfeld-cm" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [REQUESTS[0], REQUESTS[1]])
def test_header_is_fixed(argv, capsys):
    assert cli.main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["schema"], report["prec"], report["seed"]) == (1, 60, 0)


def test_verify_below_q_squared_passes_every_check(capsys):
    # the q = 3 hits of degree 8 pair the conjugates of the h = 2 orders with
    # |D| = 9, so a bound below q^2 expects none
    assert cli.main(["verify", "--dbound", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    names = [
        "hayes", "brown-vs-numeric", "appendix", "class-numbers",
        "elliptic (cardC checked 0 cases; no inert order with |D| >= q^4 lies below --dbound)",
        "counting", "analytic", "andre-oort", "unit-sweep", "certificate",
    ]
    assert [line.split(":")[0] for line in lines] == [f"PASS {name}" for name in names]


def test_verify_says_when_cardc_checked_no_case(capsys):
    # at q = 3 every inert order with |D| <= 9 has |D| < q^4, so the cardC
    # bound of the elliptic suite has no case; the suite still passes
    assert cli.main(["verify", "--dbound", "9"]) == 0
    lines = capsys.readouterr().out.splitlines()
    elliptic = [line for line in lines if line.startswith("PASS elliptic")]
    assert elliptic == [
        "PASS elliptic (cardC checked 0 cases; no inert order with |D| >= q^4 lies below --dbound): "
        '{"cardC_checked": 0, "floor_attained": true}'
    ]
    assert all(line.startswith("PASS ") for line in lines)


@pytest.mark.parametrize(
    "conductor, f, D_O",
    [
        ([], [0, 1], [0, 0, 0, 1]),  # no --f: the order of discriminant exactly D = T^3, conductor T
        (["--f", "1"], [1], [0, 1]),  # conductor 1 in k(sqrt(T^3)) = k(sqrt(T)): the maximal order
        (["--f", "[1]"], [1], [0, 1]),
    ],
)
def test_conductor_flag_takes_every_spelling_of_f(conductor, f, D_O, capsys):
    assert cli.main(["class-number", "--q", "3", "--flavor", "odd", "--D", "T^3", *conductor]) == 0
    order = json.loads(capsys.readouterr().out)["order"]
    assert (order["f"], order["D_O"]) == (f, D_O)


@pytest.mark.parametrize(
    "spec, fields",
    [
        (["--D", "T-T^2", "--f", "T"], 1),  # the field of D = D_K itself
        (["--D", "2*T^4+T^3"], 2),  # the field of D = T^2 D_K, and that of D_K, which holds the L-data
    ],
)
def test_repeated_class_number_requests_build_one_field_and_one_l_route(spec, fields, capsys, monkeypatch):
    from drinfeld_cm import classno, quadfield

    built, routes = [], []
    real_init, real_route = quadfield.QuadField.__init__, classno.l_route
    monkeypatch.setattr(quadfield.QuadField, "__init__", lambda self, *a: built.append(a) or real_init(self, *a))
    monkeypatch.setattr(classno, "l_route", lambda k: routes.append(k) or real_route(k))
    argv = ["class-number", "--q", "3", "--flavor", "odd", *spec]
    outs = []
    for _ in range(2):
        assert cli.main(argv) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    assert len(built) == fields and len(routes) == 1


DATA = Path(__file__).resolve().parent / "data"


@pytest.mark.parametrize("q, bound", [(3, 27), (2, 16)])
def test_verify_stdout_is_pinned(q, bound, capsys):
    # every suite's report, byte for byte, against the recorded run
    assert cli.main(["verify", "--q", str(q), "--dbound", str(bound)]) == 0
    assert capsys.readouterr().out == (DATA / f"verify_q{q}_d{bound}.txt").read_text()
