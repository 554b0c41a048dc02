import concurrent.futures
import io
import json
from fractions import Fraction

import pytest

from detpf import harness, linalg, lr
from detpf.cli import _build_parser, main
from detpf.identities import get_spec
from detpf.lr import schur_expand
from detpf.poly import EXPONENT_CAP, VariableTable
from detpf.symfunc import Partition


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def test_list_prints_registry():
    code, text = run_cli("list")
    assert code == 0
    assert "main2" in text and "cauchy" in text
    assert len(text.strip().splitlines()) >= 38


def test_verify_symbolic_pass():
    code, text = run_cli("verify", "--name", "cauchy", "--param", "n=1", "--mode", "symbolic")
    assert code == 0
    assert "PASS" in text


def test_verify_json_output():
    code, text = run_cli(
        "verify", "--name", "special2", "--param", "n=2",
        "--mode", "numeric", "--trials", "3", "--seed", "4", "--bound", "12", "--json",
    )
    assert code == 0
    payload = json.loads(text)
    assert payload["identity"] == "special2" and payload["passed"] is True
    assert payload["trials"] == 3 and payload["seed"] == 4


def test_verify_bad_inputs_exit_one():
    assert run_cli("verify", "--name", "nonsense")[0] == 1
    assert run_cli("verify", "--name", "cauchy", "--param", "bogus=3")[0] == 1
    assert run_cli("verify", "--name", "cauchy", "--param", "n")[0] == 1
    assert run_cli("verify", "--name", "cauchy", "--mode", "numeric", "--bound", "0")[0] == 1
    assert run_cli("wat")[0] == 1


def test_campaign_bound_zero_exits_one(tmp_path):
    config = tmp_path / "c.cfg"
    config.write_text("[identity]\nname = cauchy\nbound = 0\n")
    assert run_cli("campaign", "--config", str(config))[0] == 1
    assert run_cli("campaign", "--config", str(config), "--workers", "2")[0] == 1


def test_lr_triple():
    code, text = run_cli("lr", "--lambda", "[2,1]", "--mu", "[1,1]", "--nu", "[1]")
    assert code == 0 and text.strip() == "1"


def test_lr_rect_all_methods():
    code, text = run_cli(
        "lr", "--rect", "--n", "1", "--e", "2", "--f", "1",
        "--lambda", "[2,1]", "--mu", "[2]", "--method", "all",
    )
    assert code == 0 and text.strip() == "1"
    code, text = run_cli(
        "lr", "--rect", "--n", "1", "--e", "2", "--f", "1",
        "--lambda", "[2,1]", "--mu", "[1]", "--method", "all",
    )
    assert code == 0 and text.strip() == "0"


def test_lr_rect_single_methods():
    for method in ("oracle", "pfaffian", "theorem"):
        code, text = run_cli(
            "lr", "--rect", "--n", "1", "--e", "2", "--f", "1",
            "--lambda", "[2,1]", "--mu", "[2]", "--method", method,
        )
        assert code == 0 and text.strip() == "1"


def test_lr_usage_errors():
    assert run_cli("lr", "--lambda", "[1]", "--mu", "[1]")[0] == 1  # no --nu
    assert run_cli("lr", "--rect", "--lambda", "[1]", "--mu", "[1]")[0] == 1
    assert run_cli("lr", "--lambda", "1,2", "--mu", "[]", "--nu", "[]")[0] == 1


def test_schur_output():
    code, text = run_cli("schur", "--shape", "[1]", "--vars", "2")
    assert code == 0 and text.strip() == "1*x1 + 1*x2"
    # s_{21/1} = s_2 + s_11 = x1^2 + 2 x1 x2 + x2^2 in two variables
    code, text = run_cli("schur", "--shape", "[2,1]", "--inner", "[1]", "--vars", "2")
    assert code == 0 and text.strip() == "1*x1^2 + 2*x1*x2 + 1*x2^2"


def test_tall_skew_schur_of_variables_takes_no_determinant(monkeypatch):
    # 1^16 / 1^15 is one box, but its Jacobi-Trudi matrix has 16 rows; the
    # branching rule sums the two monomials without one
    def refuse(m):
        raise AssertionError(f"a {m.rows}-row determinant for a Schur polynomial of variables")

    monkeypatch.setattr(linalg, "det", refuse)
    shape, inner = "[" + ",".join("1" * 16) + "]", "[" + ",".join("1" * 15) + "]"
    code, text = run_cli("schur", "--shape", shape, "--inner", inner, "--vars", "2")
    assert (code, text) == (0, "1*x1 + 1*x2\n")


def test_schur_exponent_cap(capsys):
    code, text = run_cli("schur", "--shape", "[40000]", "--vars", "1")
    assert code == 0 and text.strip() == "1*x1^40000"
    code, text = run_cli("schur", "--shape", f"[{EXPONENT_CAP + 1}]", "--vars", "1")
    assert code == 1 and text == ""
    assert "exponent cap" in capsys.readouterr().err


def test_parser_is_reused_without_leaking_arguments(capsys):
    assert _build_parser() is _build_parser()
    code, text = run_cli("verify", "--name", "cauchy", "--param", "n=3", "--mode", "numeric")
    assert code == 0 and text == "cauchy [n=3] numeric: PASS\n"
    code, text = run_cli("verify", "--mode", "numeric")
    assert code == 1 and text == ""
    assert "--name" in capsys.readouterr().err
    code, text = run_cli("verify", "--name", "cauchy", "--mode", "numeric")
    default_n = get_spec("cauchy").defaults["n"]
    assert default_n != 3
    assert code == 0 and text == f"cauchy [n={default_n}] numeric: PASS\n"


def test_guard_exhaustion_exits_one_with_bound_hint(capsys):
    # with bound 1 every value is -1, 0 or 1, so some x_i + y_j vanishes on nearly every draw
    code, text = run_cli(
        "verify", "--name", "cauchy", "--param", "n=6",
        "--mode", "numeric", "--trials", "1", "--bound", "1",
    )
    assert code == 1 and text == ""
    err = capsys.readouterr().err
    assert "hit a guard" in err and "--bound" in err and "internal error" not in err
    # at the default 20 trials the first two are drawn, and the third gives up
    code, text = run_cli(
        "verify", "--name", "cauchy", "--param", "n=6", "--mode", "numeric", "--bound", "1"
    )
    assert code == 1 and text == ""
    err = capsys.readouterr().err.splitlines()
    assert err[0] == "error: cauchy: 2000 consecutive draws hit a guard (trial 2)"


def test_pf_from_json(tmp_path):
    path = tmp_path / "skew.json"
    path.write_text(
        json.dumps({"dim": 4, "upper": [[0, 1, "2"], [2, 3, "1/3"], [0, 3, "0"]]})
    )
    code, text = run_cli("pf", "--matrix", str(path))
    assert code == 0 and text.strip() == "2/3"
    path.write_text(json.dumps({"dim": 4, "upper": [[0, 1, 2], [2, 3, "1/3"], [0, 3, 0]]}))
    assert run_cli("pf", "--matrix", str(path)) == (0, "2/3\n")
    path.write_text(json.dumps({"dim": 2, "upper": [[0, 1, "-3/6"]]}))
    assert run_cli("pf", "--matrix", str(path)) == (0, "-1/2\n")
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"dim": 2}))
    assert run_cli("pf", "--matrix", str(bad))[0] == 1
    assert run_cli("pf", "--matrix", str(tmp_path / "missing.json"))[0] == 1


def test_campaign_with_config_and_json(tmp_path):
    config = tmp_path / "c.cfg"
    config.write_text(
        "seed = 5\ntrials = 3\nbound = 15\n\n"
        "[identity]\nname = cauchy\nmode = symbolic\nn = 2\n\n"
        "[identity]\nname = special2\nn = 2\n"
    )
    report_path = tmp_path / "report.json"
    code, text = run_cli("campaign", "--config", str(config), "--json", str(report_path))
    assert code == 0
    assert "total 2, failed 0" in text
    payload = json.loads(report_path.read_text())
    assert len(payload) == 2

    # replay is byte-identical
    report2 = tmp_path / "report2.json"
    code, text2 = run_cli("campaign", "--config", str(config), "--json", str(report2))
    assert code == 0 and text == text2
    assert report_path.read_bytes() == report2.read_bytes()

    assert run_cli("campaign", "--config", str(tmp_path / "nope.cfg"))[0] == 1


def test_campaign_workers_flag(tmp_path):
    config = tmp_path / "c.cfg"
    config.write_text(
        "seed = 2\ntrials = 4\nbound = 12\n\n[identity]\nname = special2\nn = 2\n"
    )
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert run_cli("campaign", "--config", str(config), "--json", str(out1))[0] == 0
    assert run_cli(
        "campaign", "--config", str(config), "--json", str(out2), "--workers", "2"
    )[0] == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_campaign_workers_below_one_is_a_usage_error(capsys):
    for workers in ("0", "-1"):
        assert run_cli("campaign", "--workers", workers) == (1, "")
        assert capsys.readouterr().err == "error: --workers must be >= 1\n"


def test_campaign_pool_has_no_more_processes_than_blocks(tmp_path, monkeypatch):
    sizes = []

    class InlinePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return list(map(fn, items))

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    block = "[identity]\nname = special2\nn = 2\n"
    config = tmp_path / "c.cfg"
    config.write_text(f"seed = 2\ntrials = 2\nbound = 12\n\n{block}\n{block}")
    assert run_cli("campaign", "--config", str(config), "--workers", "64")[0] == 0
    assert sizes == [2]
    config.write_text(f"seed = 2\ntrials = 2\nbound = 12\n\n{block}")
    assert run_cli("campaign", "--config", str(config), "--workers", "64")[0] == 0
    assert sizes == [2]  # one block runs serially


# each case: argv with {file} standing for a temporary file holding `content`
# (text, or raw bytes), or for a directory when `content` is None
USAGE_ERRORS = {
    "pf_not_json": (["pf", "--matrix", "{file}"], "not json"),
    "pf_dim_text": (["pf", "--matrix", "{file}"], '{"dim": "4", "upper": []}'),
    "pf_dim_negative": (["pf", "--matrix", "{file}"], '{"dim": -2, "upper": []}'),
    "pf_dim_fractional": (["pf", "--matrix", "{file}"], '{"dim": 3.5, "upper": []}'),
    "pf_zero_denominator": (["pf", "--matrix", "{file}"], '{"dim": 4, "upper": [[0, 1, "1/0"]]}'),
    "pf_lower_key": (["pf", "--matrix", "{file}"], '{"dim": 4, "upper": [[1, 0, "1"]]}'),
    "pf_index_fractional": (["pf", "--matrix", "{file}"], '{"dim": 4, "upper": [[0, 1.7, "1/2"]]}'),
    "pf_entry_float": (["pf", "--matrix", "{file}"], '{"dim": 2, "upper": [[0, 1, 0.1]]}'),
    "pf_entry_true": (["pf", "--matrix", "{file}"], '{"dim": 2, "upper": [[0, 1, true]]}'),
    "pf_entry_decimal": (["pf", "--matrix", "{file}"], '{"dim": 2, "upper": [[0, 1, "0.1"]]}'),
    "pf_entry_exponent": (["pf", "--matrix", "{file}"], '{"dim": 2, "upper": [[0, 1, "1e3"]]}'),
    "pf_entry_spaced_underscore": (
        ["pf", "--matrix", "{file}"],
        '{"dim": 2, "upper": [[0, 1, " 1_000/2 "]]}',
    ),
    "pf_index_true": (["pf", "--matrix", "{file}"], '{"dim": 2, "upper": [[0, true, "1"]]}'),
    "pf_key_repeated": (
        ["pf", "--matrix", "{file}"],
        '{"dim": 2, "upper": [[0, 1, "1"], [0, 1, "2"]]}',
    ),
    "lr_bad_part": (["lr", "--lambda", "[1,x]", "--mu", "[1]", "--nu", "[1]"], ""),
    # the tableau oracle recurses once per cell, past the recursion limit
    "lr_too_deep": (["lr", "--lambda", "[1200]", "--mu", "[]", "--nu", "[1200]"], ""),
    "campaign_config_dir": (["campaign", "--config", "{file}"], None),
    "campaign_config_not_utf8": (["campaign", "--config", "{file}"], b"\xff\xfe"),
    "hyperpfaffian_cap": (
        ["verify", "--name", "hyper_v", "--param", "n=8", "--mode", "numeric", "--trials", "1"],
        "",
    ),
    "campaign_config_repeated_name": (
        ["campaign", "--config", "{file}"],
        "[identity]\nname = cauchy\nname = schur\nn = 2\n",
    ),
    "campaign_config_repeated_param": (
        ["campaign", "--config", "{file}"],
        "[identity]\nname = schur\nn = 2\nn = 3\n",
    ),
    "campaign_config_repeated_global": (
        ["campaign", "--config", "{file}"],
        "seed = 1\nseed = 2\n[identity]\nname = cauchy\n",
    ),
    "lr_rect_n_zero": (
        ["lr", "--rect", "--n", "0", "--e", "1", "--f", "1", "--lambda", "[]", "--mu", "[]"],
        "",
    ),
}


@pytest.mark.parametrize("case", sorted(USAGE_ERRORS))
def test_usage_errors_exit_one_with_one_line(case, tmp_path, capsys):
    argv, content = USAGE_ERRORS[case]
    target = tmp_path / "input"
    if content is None:
        target.mkdir()
    elif isinstance(content, bytes):
        target.write_bytes(content)
    else:
        target.write_text(content)
    code, text = run_cli(*(arg.replace("{file}", str(target)) for arg in argv))
    err = capsys.readouterr().err
    assert code == 1 and text == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "expand",
    [
        lambda p: {Partition([1]): Fraction(1, 2)},
        lambda p: {Partition([1]): Fraction(-1)},
        lambda p: schur_expand(VariableTable(["z1", "z2"]).gens()[0]),
    ],
    ids=["half", "negative", "asymmetric"],
)
def test_lr_pfaffian_invariant_breach_exits_three(expand, monkeypatch, capsys):
    monkeypatch.setattr(lr, "schur_expand", expand)
    code, text = run_cli(
        "lr", "--rect", "--n", "1", "--e", "1", "--f", "1",
        "--lambda", "[2]", "--mu", "[]", "--method", "pfaffian",
    )
    err = capsys.readouterr().err
    assert code == 3 and text == ""
    assert err.startswith("internal error: ") and len(err.splitlines()) == 1


def test_out_of_memory_exits_one_and_suggests_numeric_mode(monkeypatch, capsys):
    def exhaust(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(harness, "verify", exhaust)
    code, text = run_cli("verify", "--name", "main4", "--param", "n=3")
    err = capsys.readouterr().err
    assert code == 1 and text == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert "--mode numeric" in err
