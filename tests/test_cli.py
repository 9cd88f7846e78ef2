import io
import os
import random
import re
import shlex
import sys

import pytest

from lefthull.cli import COMMANDS, build_parser, main

CONFIGS = os.path.join(os.path.dirname(__file__), "..", "configs")
README = os.path.join(os.path.dirname(__file__), "..", "README.md")


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def cfg(name):
    return os.path.join(CONFIGS, name + ".cfg")


def write(tmp_path, text, name="t.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


# parse failures: exit 2, message says where


def test_missing_file_exits_2(capsys, tmp_path):
    code, out, err = run(["analyze", str(tmp_path / "nope.cfg")], capsys)
    assert code == 2
    assert "cannot read" in err


def test_config_not_utf8_exits_2(capsys, tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_bytes(b"kind = cone\nparams = 2\n\xff\xfe\n")
    code, out, err = run(["check", str(path)], capsys)
    assert code == 2
    assert err == "config error: cannot read %s: not UTF-8 text\n" % path


def test_unknown_key_reports_line(capsys, tmp_path):
    path = write(tmp_path, "kind = cone\nwat = 3\n")
    code, out, err = run(["analyze", path], capsys)
    assert code == 2
    assert "line 2" in err


def test_duplicate_key_reports_line(capsys, tmp_path):
    path = write(tmp_path, "kind = cone\n# fine\nkind = free\n")
    code, out, err = run(["ideals", path], capsys)
    assert code == 2
    assert "duplicate" in err and "line 3" in err


# texts render never prints, then non-elements in render's syntax
UNPARSABLE = [("num23", "5_0"), ("num23", "+5"), ("axb", "(1,2"),
              ("axb", "((1,2))"), ("cone2", "1,2"), ("cone1", "5"),
              ("num23", "1"), ("cone2", "(-1,0)"), ("axb", "(0,0)")]
KINDS = {"num23": "kind = numerical\nparams = 2 3\n", "axb": "kind = axb\n",
         "cone2": "kind = cone\nparams = 2\n",
         "cone1": "kind = cone\nparams = 1\n"}


@pytest.mark.parametrize("kind, generator", UNPARSABLE,
                         ids=["-".join(c) for c in UNPARSABLE])
def test_a_generator_parse_refuses_exits_2(kind, generator, capsys,
                                           tmp_path):
    path = write(tmp_path, KINDS[kind] + "generators = %s\n" % generator)
    code, out, err = run(["check", path], capsys)
    assert (code, out) == (2, "")
    assert "cannot parse generator %r" % generator in err


def test_unknown_kind_exits_2(capsys, tmp_path):
    path = write(tmp_path, "kind = ring\n")
    code, out, err = run(["hull", path], capsys)
    assert code == 2
    assert "ring" in err


def test_bad_bounds_exit_2(capsys, tmp_path):
    path = write(tmp_path, "kind = cone\nbounds = depth:x\n")
    code, out, err = run(["check", path], capsys)
    assert code == 2


@pytest.mark.parametrize("text", [
    "kind = table\nparams = cyclic x\n",
    "kind = numerical\nparams = 1 2\n",
    "kind = cone\nparams = 0\n",
], ids=["table-cyclic-x", "numerical-1-2", "cone-0"])
def test_rejected_params_exit_2(capsys, tmp_path, text):
    code, out, err = run(["check", write(tmp_path, text)], capsys)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and "params" in err


# the argument parser: one command, one config, the shared flags


@pytest.mark.parametrize("sub", [c for c in COMMANDS if c != "matrix"])
def test_out_is_rejected_off_matrix(capsys, tmp_path, sub):
    target = tmp_path / "exports"
    with pytest.raises(SystemExit) as exc:
        main([sub, cfg("zplus"), "--out", str(target)])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert "--out applies only to the matrix command" in captured.err
    assert not target.exists()


def test_matrix_out_defaults_to_the_working_directory(capsys, tmp_path,
                                                      monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(["matrix", cfg("zplus"), "--window", "4"], capsys)
    assert code == 0
    assert (tmp_path / "intertwiner.txt").exists()
    assert "written: ./intertwiner.txt" in out


@pytest.mark.parametrize("argv", [["frobnicate", "x.cfg"], ["check"], [],
                                  ["check", "x.cfg", "--depth", "two"],
                                  ["check", "x.cfg", "--format", "json"]],
                         ids=["unknown-command", "no-config", "nothing",
                              "bad-int", "bad-format"])
def test_bad_arguments_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "lefthull: error:" in capsys.readouterr().err


def documented_invocations():
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    block = re.search(r"## Command line\n.*?```\n(.*?)```", text, re.S)
    return [shlex.split(line)[1:] for line in block.group(1).splitlines()
            if line.startswith("lefthull ")]


def test_every_documented_invocation_parses():
    invocations = documented_invocations()
    assert {argv[0] for argv in invocations} == set(COMMANDS)
    for argv in invocations:
        args = build_parser().parse_args(argv)
        assert (args.command, args.config) == tuple(argv[:2])
        for flag, value in zip(argv[2::2], argv[3::2]):
            assert str(getattr(args, flag[2:])) == value, argv


@pytest.mark.parametrize("flags, bounds, key", [
    (["--window", "0"], "", "window"),
    (["--window", "-2"], "", "window"),
    (["--depth", "-1"], "", "depth"),
    (["--length", "-1"], "", "length"),
    ([], "bounds = window:0\n", "window"),
    ([], "bounds = depth:-1\n", "depth"),
    ([], "bounds = length:-1\n", "length"),
], ids=["flag-window-0", "flag-window-neg", "flag-depth-neg",
        "flag-length-neg", "config-window-0", "config-depth-neg",
        "config-length-neg"])
def test_out_of_range_bounds_exit_2(capsys, tmp_path, flags, bounds, key):
    path = write(tmp_path, "kind = cone\nparams = 1\n" + bounds)
    code, out, err = run(["check", path] + flags, capsys)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and key in err


# unsupported requests: exit 3 with an explanation


def test_group_of_free_monoid_exits_3(capsys):
    code, out, err = run(["group", cfg("free2")], capsys)
    assert code == 3
    assert "disjoint" in err


def test_group_of_axb_exits_3(capsys):
    code, out, err = run(["group", cfg("axb")], capsys)
    assert code == 3


@pytest.mark.parametrize("name, s, t", [("free2", "a", "b"),
                                        ("axb", "(0,2)", "(1,2)")])
def test_reversibility_witness_is_rendered(name, s, t, capsys):
    code, out, err = run(["check", cfg(name)], capsys)
    assert code == 0
    assert "check.group-image: ok (not left reversible, witness %s, %s)\n" \
        % (s, t) in out
    code, out, err = run(["analyze", cfg(name)], capsys)
    assert code == 0
    assert "reversible: no\nreversible.witness: %s %s\n" % (s, t) in out
    code, out, err = run(["group", cfg(name)], capsys)
    assert code == 3 and out == ""
    assert err == "unsupported: no group of fractions: ideals %sS and %sS " \
        "are disjoint\n" % (s, t)


# happy paths


def test_analyze_zplus(capsys):
    code, out, err = run(["analyze", cfg("zplus")], capsys)
    assert code == 0
    assert "backend: PositiveCone(1)" in out
    assert "reversible: yes" in out
    assert "clifford: holds" in out
    assert "group: Z" in out
    assert "ideals.count: 3" in out


def test_analyze_num23_witnesses(capsys):
    code, out, err = run(["analyze", cfg("num23")], capsys)
    assert code == 0
    assert "clifford: fails" in out
    assert "clifford.witness: 2 3" in out
    assert "independent: no" in out
    assert "{2,3,4,5,...}" in out


def test_analyze_free2_not_reversible(capsys):
    code, out, err = run(["analyze", cfg("free2")], capsys)
    assert code == 0
    assert "reversible: no" in out
    assert "group: none (not left reversible)" in out


def test_ideals_lists_family(capsys):
    code, out, err = run(["ideals", cfg("zplus"), "--depth", "3"], capsys)
    assert code == 0
    assert "count: 4" in out
    assert "ideal.0: S" in out
    assert "ideal.3: (3)+S" in out


def test_hull_zero_follows_generators(capsys, tmp_path):
    path = write(tmp_path, "kind = free\nparams = 2\ngenerators = a\n")
    code, out, err = run(["hull", path], capsys)
    assert code == 0
    assert "count: 6" in out and "element.0: 1 | S" in out
    assert not any(line.endswith(": 0") for line in out.splitlines())
    assert "zero.present: no" in out
    code, out, err = run(["hull", cfg("free2")], capsys)
    assert "zero.present: yes" in out


def test_hull_lists_elements(capsys):
    code, out, err = run(["hull", cfg("zplus"), "--length", "1"], capsys)
    assert code == 0
    assert "count: 3" in out
    assert "element.1: (0) | S" in out
    assert "estar.mode: E-unitary" in out


def test_filters_one_per_line(capsys):
    code, out, err = run(["filters", cfg("zplus")], capsys)
    assert code == 0
    assert "count: 3" in out
    assert "filter.0: S" in out
    assert "filter.2: (2)+S" in out
    assert "maximal: yes" in out


def test_group_zplus(capsys):
    code, out, err = run(["group", cfg("zplus")], capsys)
    assert code == 0
    assert "group: Z" in out
    assert "gamma.injective: yes" in out


def test_matrix_writes_coordinate_files(capsys, tmp_path):
    out_dir = str(tmp_path / "mx")
    code, out, err = run(["matrix", cfg("zplus"), "--window", "6",
                          "--out", out_dir], capsys)
    assert code == 0
    iso = open(os.path.join(out_dir, "isometry_0.txt")).read()
    first = iso.splitlines()[0].split()
    assert first == ["6", "6", "5"]
    assert "1 0 1" in iso
    assert os.path.exists(os.path.join(out_dir, "intertwiner.txt"))
    assert "relation.covariance: ok" in out
    assert "relation.intertwiner: ok" in out


@pytest.mark.parametrize("sub", ["", "sub"])
def test_matrix_out_through_a_file_exits_2(capsys, tmp_path, sub):
    blocker = tmp_path / "taken"
    blocker.write_text("kept\n")
    target = os.path.join(str(blocker), sub) if sub else str(blocker)
    code, out, err = run(["matrix", cfg("zplus"), "--window", "6",
                          "--out", target], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("output error: --out %s: " % target)
    assert err.count("\n") == 1 and "Traceback" not in err
    assert blocker.read_text() == "kept\n"


def test_check_exit_0_and_reports_all(capsys):
    code, out, err = run(["check", cfg("zplus")], capsys)
    assert code == 0
    assert "failures: 0" in out
    assert "check.semigroup-axioms: ok" in out
    assert "check.operator-relations: ok" in out


def test_check_walks_cyclic_14_at_length_3(capsys, tmp_path):
    # 7,529,536 words at the last level, but few distinct states
    path = write(tmp_path, "kind = table\nparams = cyclic 14\n")
    code, out, err = run(["check", path, "--length", "3"], capsys)
    assert code == 0, err
    assert "cs-grade-one:540582 " in out


def test_check_deterministic_bytes(capsys):
    code1, out1, err1 = run(["check", cfg("num23")], capsys)
    code2, out2, err2 = run(["check", cfg("num23")], capsys)
    assert code1 == code2 == 0
    assert out1 == out2


def test_machine_format_key_value(capsys):
    code, out, err = run(["filters", cfg("zplus"), "--format", "machine"],
                         capsys)
    assert code == 0
    for line in out.splitlines():
        key, _, value = line.partition("=")
        assert _ == "=" and key and " " not in key


def test_flag_overrides_config_bounds(capsys, tmp_path):
    path = write(tmp_path, "kind = cone\nparams = 1\nbounds = depth:4\n")
    code, out, err = run(["ideals", path], capsys)
    assert "count: 5" in out
    code, out, err = run(["ideals", path, "--depth", "1"], capsys)
    assert "count: 2" in out


def test_defaults_fill_unset_bounds(capsys, tmp_path):
    path = write(tmp_path, "kind = cone\nparams = 1\n")
    code, out, err = run(["ideals", path], capsys)
    assert code == 0
    assert "depth: 2" in out


def test_generators_from_config(capsys, tmp_path):
    path = write(tmp_path, "kind = cone\nparams = 1\ngenerators = (2)\n")
    code, out, err = run(["ideals", path, "--depth", "1"], capsys)
    assert code == 0
    assert "ideal.1: (2)+S" in out


@pytest.mark.parametrize("name, ordered", [
    ("zplus", "yes"), ("cone2", "yes"), ("free2", "yes"), ("num23", "yes"),
    ("axb", "no"), ("table5", "no"),
])
def test_analyze_ordered_calls_units_trivial(capsys, name, ordered):
    # axb has the units (b, 1); a group of order 5 has nothing but units
    code, out, err = run(["analyze", cfg(name)], capsys)
    assert code == 0
    assert "ordered: %s\n" % ordered in out


def test_numerical_clifford_beyond_the_window(capsys, tmp_path):
    # the least member outside 2Z is 49, past a 24-element window
    path = write(tmp_path, "kind = numerical\nparams = 2 49\n")
    code, out, err = run(["analyze", path], capsys)
    assert code == 0, err
    assert "clifford: fails\nclifford.witness: 2 49\n" in out
    code, out, err = run(["check", path], capsys)
    assert code == 0, err
    assert "check.clifford: ok (fails at 2, 49: meet {51,53,55,57,...})\n" in out
    code, out, err = run(["ideals", path, "--depth", "1"], capsys)
    assert code == 0
    assert "clifford: fails" in out


def test_free_generator_outside_alphabet_exits_2(capsys, tmp_path):
    path = write(tmp_path, "kind = free\nparams = 27\ngenerators = g99\n")
    code, out, err = run(["ideals", path], capsys)
    assert code == 2
    assert out == ""
    assert "config error: cannot parse generator 'g99'" in err


# seeded fuzzing: mutated shipped configs and small bound flags

FUZZ_VALUES = {
    "kind": ["cone", "free", "numerical", "axb", "table", "ring", ""],
    "params": ["", "0", "1", "2", "3", "-1", "x", "2 3", "4 6", "3 5 7",
               "2 2", "1 2", "cyclic 4", "cyclic 1", "cyclic 0", "cyclic x",
               "cyclic", "4"],
    "generators": ["a", "b", "ab", "z", "1", "2", "0", "-1", "3 5", "(1)",
                   "(0,2)", "(1,1) (0,3)", "(0,0)", "(0,-1)", "(1,2,3)",
                   "g3", "g99", "1 1", "(", ""],
    "bounds": ["depth:1", "length:1", "window:4", "depth:-1", "window:0",
               "length:-1", "seed:3", "depth:x", "depth:1 length:0 window:3",
               "wat:1", "depth:"],
}
# mostly valid small values, sometimes one out of range
FUZZ_FLAGS = {"--depth": (0, 1, 1, 1, 1, -1), "--length": (0, 1, 1, 1, 1, -1),
              "--window": (1, 3, 6, 6, 6, 0, -1), "--seed": (0, 9)}


def fuzz_config(rng):
    name = rng.choice(["zplus", "cone2", "free2", "num23", "axb", "table5"])
    with open(cfg(name)) as fh:
        lines = fh.read().splitlines()
    for _ in range(rng.randint(0, 2)):
        key = rng.choice(sorted(FUZZ_VALUES))
        line = "%s = %s" % (key, rng.choice(FUZZ_VALUES[key]))
        at = [i for i, l in enumerate(lines) if l.startswith(key + " ")]
        if at and rng.random() < 0.8:
            lines[at[0]] = line
        elif at and rng.random() < 0.5:
            del lines[at[0]]
        else:
            lines.insert(rng.randrange(len(lines) + 1), line)
    return "\n".join(lines) + "\n"


def test_fuzzed_configs_keep_the_exit_code_contract(capsys, tmp_path):
    rng = random.Random(2024)
    codes = set()
    for case in range(400):
        path = write(tmp_path, fuzz_config(rng), "fuzz%d.cfg" % case)
        sub = rng.choice(["analyze", "ideals", "hull", "filters", "group",
                          "matrix", "check"])
        argv = [sub, path]
        # every run gets small bounds, so no command runs at stressed ones
        for flag, values in FUZZ_FLAGS.items():
            if flag != "--seed" or rng.random() < 0.5:
                argv += [flag, str(rng.choice(values))]
        if sub == "matrix":
            argv += ["--out", str(tmp_path / "out")]
        code, out, err = run(argv, capsys)
        assert code in (0, 1, 2, 3), (argv, code)
        assert "Traceback" not in out + err, argv
        codes.add(code)
    assert codes >= {0, 2, 3}
