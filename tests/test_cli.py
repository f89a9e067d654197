"""Command-line interface: exit codes, report formats, usage errors."""

import json
import os
import subprocess
import sys

import pytest

import autgrp
from autgrp import cli_main


def run(capsys, *argv):
    rc = cli_main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


# ---------------------------------------------------------------- inspection

def test_validate(capsys):
    rc, out, _ = run(capsys, "validate", "--automaton", "grigorchuk")
    assert rc == 0
    assert "states: e a b c d" in out
    assert "minimal: yes" in out


def test_validate_json(capsys):
    rc, out, _ = run(capsys, "validate", "--automaton", "basilica", "--report", "json")
    assert rc == 0
    payload = json.loads(out)
    assert payload["states"] == ["e", "a", "b"]
    assert payload["minimal"] is True


def test_validate_unknown_automaton(capsys):
    rc, _, err = run(capsys, "validate", "--automaton", "no-such-thing")
    assert rc == 2
    assert "error:" in err


def test_validate_from_file(tmp_path, capsys):
    rc, out, _ = run(capsys, "minimize", "--automaton", "adding")
    assert rc == 0
    path = tmp_path / "odometer.aut"
    path.write_text(out, encoding="utf-8")
    rc, out2, _ = run(capsys, "validate", "--automaton", str(path))
    assert rc == 0
    assert "minimal: yes" in out2


def test_dual_section(capsys):
    # one-character names run together, as word_str spells them; the empty
    # section is "-", and the JSON report keeps the list of names
    rc, out, _ = run(
        capsys, "dual-section", "--automaton", "grigorchuk",
        "--word", "ad", "--letters", "0",
    )
    assert (rc, out) == (0, "section: eb\nimage: 1\n")
    rc, out, _ = run(capsys, "dual-section", "--automaton", "grigorchuk", "--word", "-", "--letters", "0")
    assert (rc, out) == (0, "section: -\nimage: 0\n")
    rc, out, _ = run(
        capsys, "dual-section", "--automaton", "grigorchuk", "--word", "ad", "--letters", "0", "--report", "json"
    )
    assert (rc, json.loads(out)) == (0, {"section": ["e", "b"], "image": "1"})


def test_classify(capsys):
    for name, text in (
        ("grigorchuk", "bounded (C=2)"),
        ("poly1", "polynomial (degree 1)"),
        ("flip", "exponential"),
    ):
        rc, out, _ = run(capsys, "classify", "--automaton", name)
        assert rc == 0
        assert out.strip() == text


# -------------------------------------------------------------------- solve

def test_solve_exit_codes(capsys):
    rc, out, _ = run(capsys, "solve", "--automaton", "grigorchuk", "--word", "cdb")
    assert rc == 0
    assert out.startswith("accept")
    rc, out, _ = run(capsys, "solve", "--automaton", "grigorchuk", "--word", "ab")
    assert rc == 1
    assert out.startswith("reject")


def test_solve_json(capsys):
    rc, out, _ = run(
        capsys, "solve", "--automaton", "basilica", "--word", "aabBAA",
        "--method", "bounded", "--report", "json",
    )
    assert rc == 0
    payload = json.loads(out)
    assert payload["verdict"] == "accept"
    assert payload["method"] == "bounded"


def test_solve_group(capsys):
    rc, _, _ = run(capsys, "solve", "--group", "z4", "--word", "aA")
    assert rc == 0
    rc, _, _ = run(capsys, "solve", "--group", "z4", "--word", "aaa")
    assert rc == 1


def test_import_builds_no_instance():
    # start-up does no table work: nothing is in the instance memo after the
    # CLI module is imported in a fresh process
    src = os.path.dirname(os.path.dirname(autgrp.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    code = "import autgrp.cli, autgrp.nilpotent as n; print(n.build_instance.cache_info().currsize)"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "0"


def test_solve_usage_errors(capsys):
    # exactly one input source, one word source, methods tied to the source
    cases = (
        ("solve", "--word", "aA"),
        ("solve", "--automaton", "grigorchuk", "--group", "z4", "--word", "aA"),
        ("solve", "--group", "z4", "--word", "aA", "--method", "bounded"),
        ("solve", "--automaton", "grigorchuk", "--word", "aa", "--method", "nilpotent"),
        ("solve", "--automaton", "grigorchuk"),
        ("solve", "--automaton", "grigorchuk", "--word", "aa", "--word-file", "x"),
    )
    for argv in cases:
        rc, _, err = run(capsys, *argv)
        assert rc == 2
        assert "error:" in err


def test_solve_word_from_file(tmp_path, capsys):
    path = tmp_path / "word.txt"
    path.write_text("c d\nb\n", encoding="utf-8")
    rc, out, _ = run(
        capsys, "solve", "--automaton", "grigorchuk", "--word-file", str(path)
    )
    assert rc == 0
    assert out.startswith("accept")
    rc, _, err = run(
        capsys, "solve", "--automaton", "grigorchuk",
        "--word-file", str(tmp_path / "missing.txt"),
    )
    assert rc == 2
    assert "error:" in err


def test_solve_uncertifiable(capsys):
    # no verdict was reached, so this is an error, not a reject
    rc, _, err = run(
        capsys, "solve", "--automaton", "poly1", "--word", "bb", "--method", "bounded"
    )
    assert rc == 2
    assert "certificate" in err


def test_solve_polynomial_flattens_the_automaton(capsys):
    # basilica's and grigorchuk's cycles are longer than one letter, so the
    # reset rule must run on the loopified automaton to reach the oracle's
    # verdicts; flip has no flattening power at all
    import random

    from autgrp import catalog, inverse_closure

    rng = random.Random(13)
    for name in ("basilica", "grigorchuk", "poly1", "adding"):
        ic = inverse_closure(catalog.get(name))
        letters = [s for s in range(len(ic.automaton.states)) if s != ic.automaton.identity]
        words = []
        for n in (1, 2, 3, 4, 6, 9):
            u = [rng.choice(letters) for _ in range(n)]
            words += [u + list(ic.inverse_word(u)), u]
        for w in words:
            text = "".join(ic.automaton.states[s] for s in w)
            want, _, _ = run(capsys, "solve", "--automaton", name, "--method", "oracle", "--word", text)
            rc, out, err = run(capsys, "solve", "--automaton", name, "--method", "polynomial", "--word", text)
            assert (rc, err) == (want, ""), (name, text)
            assert out.startswith("accept method=polynomial" if rc == 0 else "reject method=polynomial")
    rc, out, _ = run(capsys, "solve", "--automaton", "basilica", "--method", "polynomial", "--word", "aA")
    assert rc == 0 and out.startswith("accept")
    rc, _, err = run(capsys, "solve", "--automaton", "flip", "--method", "polynomial", "--word", "ss")
    assert rc == 2
    assert "no flattening power" in err


# ------------------------------------------------------------------ certify

def test_certify_pass(capsys):
    rc, out, _ = run(
        capsys, "certify", "--automaton", "grigorchuk",
        "-L", "2", "-k", "1", "--mode", "item1",
    )
    assert rc == 0
    assert out.startswith("pass")
    assert "max_section=1" in out


def test_certify_fail_prints_witness(capsys):
    rc, out, _ = run(
        capsys, "certify", "--automaton", "poly1",
        "-L", "3", "-k", "1", "--mode", "item1",
    )
    assert rc == 1
    assert "FAIL" in out
    assert "witness" in out


def test_certify_sampled(capsys):
    rc, out, _ = run(
        capsys, "certify", "--automaton", "basilica",
        "-L", "3", "-k", "2", "--mode", "item1", "--sample", "200", "--seed", "1",
    )
    assert rc == 0
    assert "words=200" in out


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_certify_sampled_without_samples_is_a_usage_error(capsys, samples):
    rc, out, err = run(
        capsys, "certify", "--automaton", "basilica",
        "-L", "1", "-k", "1", "--mode", "item1", "--sample", samples,
    )
    assert rc == 2
    assert out == ""
    assert "at least one sample" in err


# ----------------------------------------------------------- growth / bench

def test_growth_csv(capsys):
    rc, out, _ = run(capsys, "growth", "--automaton", "adding", "--radius", "4")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,gamma"
    gammas = [int(line.split(",")[1]) for line in lines[1:]]
    assert gammas == [1, 3, 5, 7, 9]
    rc, out, _ = run(
        capsys, "growth", "--automaton", "adding", "--radius", "4", "--bound"
    )
    assert rc == 0
    assert out.splitlines()[0] == "n,gamma,n_log2_gamma"


def test_growth_json(capsys):
    rc, out, _ = run(
        capsys, "growth", "--automaton", "grigorchuk", "--radius", "3",
        "--report", "json",
    )
    assert rc == 0
    payload = json.loads(out)
    assert payload["gamma"] == [1, 5, 11, 23]


def test_bench_csv(capsys):
    rc, out, _ = run(
        capsys, "bench", "--family", "z4-halving", "--m-lo", "4", "--m-hi", "6",
        "--seed", "9",
    )
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "# seed=9"
    assert lines[1] == "m,n,stages,steps"
    assert len(lines) == 5


def test_bench_json_with_fit(capsys):
    rc, out, _ = run(
        capsys, "bench", "--family", "poly1-comm", "--m-lo", "3", "--m-hi", "6",
        "--report", "json", "--fit",
    )
    assert rc == 0
    payload = json.loads(out)
    assert payload["family"] == "poly1-comm"
    assert payload["fit"]["winner"] in payload["fit"]["residuals"]
    assert [row[3] for row in payload["rows"]] == [3074, 7569, 18288, 43503]


def test_bench_bad_range(capsys):
    rc, _, err = run(
        capsys, "bench", "--family", "z4-halving", "--m-lo", "6", "--m-hi", "4"
    )
    assert rc == 2
    assert "error:" in err


def test_fit_round_trip(tmp_path, capsys):
    rc, out, _ = run(
        capsys, "bench", "--family", "z4-halving", "--m-lo", "4", "--m-hi", "9"
    )
    assert rc == 0
    path = tmp_path / "rows.csv"
    path.write_text(out, encoding="utf-8")
    rc, out, _ = run(capsys, "fit", "--input", str(path))
    assert rc == 0
    assert out.startswith("winner: ")
    rc, out, _ = run(capsys, "fit", "--input", str(path), "--report", "json")
    assert rc == 0
    assert "winner" in json.loads(out)


def test_fit_unknown_model(tmp_path, capsys):
    path = tmp_path / "rows.csv"
    path.write_text("n,steps\n8,100\n16,300\n", encoding="utf-8")
    rc, _, err = run(capsys, "fit", "--input", str(path), "--models", "n,bogus")
    assert rc == 2
    assert "error:" in err


# ------------------------------------------------------------------- parser

def test_argparse_usage_exits_2(capsys):
    for argv in (
        ["no-such-command"],
        ["bench", "--family", "no-such-family"],
        ["certify", "--automaton", "grigorchuk", "-L", "2"],  # missing -k/--mode
        [],
    ):
        with pytest.raises(SystemExit) as exc:
            cli_main(argv)
        assert exc.value.code == 2
        capsys.readouterr()


def test_selftest(capsys):
    rc, out, _ = run(capsys, "selftest", "--seed", "0")
    assert rc == 0
    lines = out.strip().splitlines()
    assert len(lines) == 5
    assert all(line.startswith("ok") for line in lines)


def test_package_import_leaves_the_command_line_unloaded():
    src = os.path.dirname(os.path.dirname(autgrp.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    code = "import sys, autgrp\nprint('argparse' in sys.modules)\nautgrp.cli_main(['classify', '--automaton', 'adding'])\n"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert proc.stdout.splitlines()[0] == "False"
    assert proc.stdout.splitlines()[1].startswith("bounded")


def test_import_and_solve_load_no_numpy():
    # numpy is for the nilpotent groups and the bench fitter; a fresh process
    # that imports the CLI and solves an automaton word never loads it
    src = os.path.dirname(os.path.dirname(autgrp.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    code = (
        "import sys, autgrp.cli\n"
        "print('numpy' in sys.modules)\n"
        "rc = autgrp.cli.cli_main(['solve', '--automaton', 'grigorchuk', '--word', 'cdb'])\n"
        "print(rc, 'numpy' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    lines = proc.stdout.splitlines()
    assert lines[0] == "False"
    assert lines[1].startswith("accept")
    assert lines[2] == "0 False"


def test_reading_module_files_runs_no_lazy_module():
    # inspect.stack() reads __file__ off every module in sys.modules; the
    # lazy modules answer without running, and a run that fails (numpy
    # blocked here) leaves the module to run again on the next read
    src = os.path.dirname(os.path.dirname(autgrp.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    code = (
        "import inspect, sys, autgrp\n"
        "inspect.stack()\n"
        "print([m for m in ('numpy', 'argparse') if m in sys.modules])\n"
        "lazy = sys.modules['autgrp.nilpotent']\n"
        "print(lazy.__file__ == lazy.__spec__.origin, 'numpy' in sys.modules)\n"
        "sys.modules['numpy'] = None\n"
        "try:\n"
        "    autgrp.build_instance\n"
        "except ImportError as exc:\n"
        "    print(type(exc).__name__)\n"
        "del sys.modules['numpy']\n"
        "print(lazy.build_instance('z4').name, autgrp.nilpotent is lazy, 'numpy' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert proc.stdout.splitlines() == ["[]", "True False", "ModuleNotFoundError", "z4 True True"]


def test_short_group_solves_load_no_numpy():
    # a word under 128 one-character letters is solved on coordinates; a
    # 128-letter word still takes the table path, which needs numpy
    src = os.path.dirname(os.path.dirname(autgrp.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    code = (
        "import sys, autgrp.cli\n"
        "for k, w in (('z4', 'aaa'), ('z2', 'abAB'), ('heis', 'ABabC' + 'e' * 122)):\n"
        "    rc = autgrp.cli.cli_main(['solve', '--group', k, '--word', w])\n"
        "    print(rc, 'numpy' in sys.modules)\n"
        "rc = autgrp.cli.cli_main(['solve', '--group', 'heis', '--word', 'ABabC' + 'e' * 123])\n"
        "print(rc, 'numpy' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("reject") and lines[1] == "1 False"
    assert lines[2].startswith("accept") and lines[3] == "0 False"
    assert lines[4] == "accept method=nilpotent n=127 stages=2 steps=896" and lines[5] == "0 False"
    assert lines[6] == "accept method=nilpotent n=128 stages=2 steps=903" and lines[7] == "0 True"


@pytest.mark.parametrize(
    "argv, unloaded",
    [
        (["classify", "--automaton", "poly1"], ("dataclasses", "fractions", "json")),
        (["solve", "--group", "heis", "--word", "ABabC"], ("dataclasses", "fractions", "json")),
        (["solve", "--automaton", "grigorchuk", "--word", "cdb"], ("dataclasses", "json")),
        (["bench", "--family", "basilica-ab", "--m-lo", "4", "--m-hi", "5"], ("dataclasses", "autgrp.halving")),
    ],
)
def test_cold_commands_load_only_what_they_run(argv, unloaded):
    # a fresh process per command: reports are named tuples, fractions
    # load with the first certificate, json with the first --report json,
    # and the halving code with the first halving bench row
    src = os.path.dirname(os.path.dirname(autgrp.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    code = (
        "import sys, autgrp.cli\n"
        f"rc = autgrp.cli.cli_main({argv!r})\n"
        f"print(rc, [m for m in {unloaded!r} if m in sys.modules])\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert proc.stdout.splitlines()[-1] == "0 []"


def test_lazy_modules_serve_their_names():
    from autgrp.bench import FAMILIES
    from autgrp.nilpotent import build_instance

    assert autgrp.build_instance is build_instance
    assert autgrp.nilpotent.build_instance is build_instance
    assert autgrp.FAMILIES is FAMILIES
    assert {"build_instance", "FAMILIES"} <= set(autgrp.__all__) <= set(dir(autgrp))
    with pytest.raises(AttributeError):
        getattr(autgrp, "no_such_name")


def test_fit_help_names_default_models(capsys):
    from autgrp.bench import DEFAULT_MODELS

    with pytest.raises(SystemExit) as exc:
        cli_main(["fit", "--help"])
    assert exc.value.code == 0
    assert ", ".join(DEFAULT_MODELS) in " ".join(capsys.readouterr().out.split())


def test_growth_negative_radius_exits_2(capsys):
    rc, _, err = run(capsys, "growth", "--automaton", "grigorchuk", "--radius", "-1")
    assert rc == 2
    assert "radius" in err


def test_growth_loads_no_numpy():
    # the growth table and its n log2 gamma floor are plain Python
    src = os.path.dirname(os.path.dirname(autgrp.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    code = (
        "import sys, autgrp.cli\n"
        "rc = autgrp.cli.cli_main(['growth', '--automaton', 'grigorchuk', '--radius', '2', '--bound'])\n"
        "print(rc, 'numpy' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    lines = proc.stdout.splitlines()
    assert lines[0] == "n,gamma,n_log2_gamma"
    assert lines[-1] == "0 False"


def test_bench_negative_index_exits_2(capsys):
    rc, out, err = run(capsys, "bench", "--family", "basilica-ab", "--m-lo", "-1", "--m-hi", "0")
    assert rc == 2
    assert out == ""
    assert err.startswith("error:") and "m must be >= 0" in err


def _fit_file(tmp_path, text):
    path = tmp_path / "rows.csv"
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_fit_infinite_row_exits_2(tmp_path, capsys):
    path = _fit_file(tmp_path, "n,steps\n8,100\n16,inf\n32,900\n")
    rc, _, err = run(capsys, "fit", "--input", path)
    assert rc == 2
    assert err.startswith("error:") and "line 3" in err and "finite numbers" in err


def test_fit_unparsable_data_row_exits_2(tmp_path, capsys):
    # only the first line may be a header; a nan row or a stray word later
    # is an error, not a row to skip
    for bad in ("16,nan", "nan,300", "16,three hundred", "n,steps"):
        path = _fit_file(tmp_path, f"# seed=0\nn,steps\n8,100\n{bad}\n32,900\n64,2000\n")
        rc, _, err = run(capsys, "fit", "--input", path)
        assert rc == 2, bad
        assert err.startswith("error:") and "line 4" in err, (bad, err)
    path = _fit_file(tmp_path, "8,100\nn,steps\n32,900\n")
    rc, _, err = run(capsys, "fit", "--input", path)
    assert rc == 2 and "line 2" in err


def test_fit_empty_model_list_exits_2(tmp_path, capsys):
    path = _fit_file(tmp_path, "n,steps\n8,100\n16,300\n")
    rc, _, err = run(capsys, "fit", "--input", path, "--models", ",")
    assert rc == 2
    assert err.startswith("error:") and "no complexity model" in err


def test_fit_one_distinct_n_exits_2(tmp_path, capsys):
    path = _fit_file(tmp_path, "n,steps\n8,100\n8,300\n")
    rc, out, err = run(capsys, "fit", "--input", path)
    assert rc == 2
    assert out == ""
    assert err.startswith("error:") and "two distinct n" in err


def test_certify_huge_alphabet_power_exits_2_quickly(capsys):
    import time

    start = time.perf_counter()
    rc, out, err = run(capsys, "certify", "--automaton", "grigorchuk", "-L", "1", "-k", "24", "--mode", "item1")
    assert time.perf_counter() - start < 1.0
    assert rc == 2
    assert err.startswith("error:") and "alphabet power exceeded budget" in err
