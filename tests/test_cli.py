import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import reesselab
from reesselab.cli import UsageError, execute, main, parse_args


def test_parse_keygen_command():
    cmd = parse_args(
        ["keygen", "--n", "6", "--rho", "17", "--omega", "scaled:1",
         "--seed", "42", "--out", "k.json"]
    )
    assert cmd.verb == "keygen"
    assert cmd.options["n"] == 6 and cmd.options["seed"] == 42
    assert cmd.out == "k.json"


def test_parse_reproduce_command():
    cmd = parse_args(["reproduce", "--example", "table2"])
    assert cmd.verb == "reproduce"
    assert cmd.options["example"] == "table2"


def test_parse_rejects_missing_and_unknown_flags():
    with pytest.raises(UsageError):
        parse_args(["attack"])
    with pytest.raises(UsageError):
        parse_args(["keygen", "--n", "6"])
    with pytest.raises(UsageError):
        parse_args(["attack", "--pub", "x.json", "--frobnicate"])
    with pytest.raises(UsageError):
        parse_args(["nonsense"])
    with pytest.raises(UsageError):
        parse_args(["keygen", "--n", "6", "--rho", "17", "--omega", "weird:1",
                    "--seed", "1", "--out", "k.json"])


def test_keygen_writes_both_key_files(tmp_path):
    out = tmp_path / "k.json"
    code = main(
        ["keygen", "--n", "6", "--rho", "17", "--omega", "scaled:1",
         "--seed", "42", "--out", str(out)]
    )
    assert code == 0
    priv = json.loads(out.read_text())
    pub = json.loads((tmp_path / "k.pub.json").read_text())
    assert set(priv) == {"n", "M", "rho", "omega", "variant", "delta", "A", "W", "f"}
    assert set(pub) == {"n", "M", "rho", "C"}
    assert priv["M"] == pub["M"]
    # same command line reproduces the same bytes
    out2 = tmp_path / "again.json"
    main(
        ["keygen", "--n", "6", "--rho", "17", "--omega", "scaled:1",
         "--seed", "42", "--out", str(out2)]
    )
    assert out2.read_text() == out.read_text()


def test_attack_over_key_files(tmp_path, capsys):
    out = tmp_path / "k.json"
    main(["keygen", "--n", "6", "--rho", "17", "--omega", "scaled:1",
          "--seed", "42", "--out", str(out)])
    capsys.readouterr()
    code = main(["attack", "--pub", str(tmp_path / "k.pub.json"),
                 "--filter", "jump"])
    assert code == 0
    text = capsys.readouterr().out
    assert "A_k | Tuples (i, j, k)" in text
    report_path = tmp_path / "report.json"
    code = main(["attack", "--pub", str(tmp_path / "k.pub.json"),
                 "--filter", "legendre", "--format", "json",
                 "--out", str(report_path)])
    assert code == 0
    obj = json.loads(report_path.read_text())
    assert set(obj) == {"delta_display", "delta_ratio", "max_a", "groups", "hits"}


def test_attack_missing_file_is_io_error(tmp_path, capsys):
    assert main(["attack", "--pub", str(tmp_path / "missing.json")]) == 2
    assert "error:" in capsys.readouterr().err


def test_reproduce_exit_codes(capsys):
    assert main(["reproduce", "--example", "2"]) == 0
    text = capsys.readouterr().out
    assert "overall: PASS" in text
    assert "candidate 11" in text


def test_reproduce_all(capsys):
    assert main(["reproduce", "--example", "all"]) == 0
    out = capsys.readouterr().out
    assert out.count("overall: PASS") == 6


def test_omega_gen_and_check(tmp_path, capsys):
    path = tmp_path / "omega.json"
    assert main(["omega-gen", "--family", "odd", "--n", "8",
                 "--out", str(path)]) == 0
    obj = json.loads(path.read_text())
    assert obj["family"] == "ODD_SUMFREE"
    assert [int(e) for e in obj["elements"]][:4] == [5, 7, 9, 11]
    assert main(["omega-check", "--in", str(path), "--mode", "distinct"]) == 0
    capsys.readouterr()
    # violations surface as a domain failure
    assert main(["omega-check", "--family", "scaled:1", "--n", "6",
                 "--mode", "repetition"]) == 1
    out = capsys.readouterr().out
    assert "5 + 5 = 10" in out


def test_study_verbs(tmp_path):
    path = tmp_path / "study.json"
    code = main(["study", "fp", "--n", "6", "--rho", "17",
                 "--omega", "scaled:1", "--trials", "10", "--seed", "3",
                 "--format", "json", "--out", str(path)])
    assert code == 0
    first = path.read_text()
    obj = json.loads(first)
    assert obj["trials"] == "10"
    assert int(obj["hit_rate"]["num"]) >= 0
    main(["study", "fp", "--n", "6", "--rho", "17", "--omega", "scaled:1",
          "--trials", "10", "--seed", "3", "--format", "json",
          "--out", str(path)])
    assert path.read_text() == first


def test_study_requires_seed():
    with pytest.raises(UsageError):
        parse_args(["study", "fp", "--n", "6", "--rho", "17",
                    "--trials", "10"])


def test_execute_domain_error_is_exit_one(tmp_path, capsys):
    cmd = parse_args(["study", "completeness", "--n", "10", "--rho", "43",
                      "--omega", "shifted:6", "--trials", "5", "--seed", "1"])
    assert execute(cmd) == 1
    assert "error:" in capsys.readouterr().err


def test_rendered_output_ends_with_newline(capsys):
    main(["omega-gen", "--family", "scaled:2", "--n", "6", "--format", "table"])
    out = capsys.readouterr().out
    assert out.endswith("\n")


_GOOD_PUB = {"n": "6", "M": "510931", "rho": "17",
             "C": ["1", "2", "3", "4", "5", "6"]}


@pytest.mark.parametrize("content", [
    {k: v for k, v in _GOOD_PUB.items() if k != "rho"},  # missing field
    [_GOOD_PUB],  # a list where the object belongs
    "510931",  # a bare string
    dict(_GOOD_PUB, M="lots"),  # non-numeric string
    dict(_GOOD_PUB, C="123456"),  # a string where the list belongs
    dict(_GOOD_PUB, C=7),  # a number where the list belongs
    dict(_GOOD_PUB, n=None),
    dict(_GOOD_PUB, C=[["1"]] * 6),
])
def test_attack_malformed_key_is_usage_error(tmp_path, capsys, content):
    path = tmp_path / "bad.pub.json"
    path.write_text(json.dumps(content))
    assert main(["attack", "--pub", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_python_dash_m_runs_the_cli():
    src = str(Path(reesselab.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-m", "reesselab", "omega-check", "--family",
         "scaled:1", "--n", "6", "--mode", "repetition"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 1
    assert "5 + 5 = 10" in proc.stdout
    assert proc.stderr == ""
