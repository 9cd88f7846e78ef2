"""The command corpus of ``compare.py`` is well formed: every config
builds a backend, every command parses, and it covers what it names.  The
comparison itself is run by hand with ``python tests/compare.py REV``."""

import corpus
from lefthull.cli import COMMANDS, build_parser
from lefthull.config import build_backend, parse_config

import test_pinned_outputs as pinned


def test_every_config_builds_a_backend():
    texts = corpus.configs()
    assert len(texts) >= 17
    for text in texts.values():
        build_backend(parse_config(text))
    assert len(set(map(corpus.content, texts.values()))) == len(texts)


def test_pinned_generator_configs_are_the_pinned_texts():
    for _, name, _, _ in pinned.PINNED_PARSED:
        assert corpus.PINNED_PARSED[name] == pinned.WRITTEN[name]


def test_every_command_parses():
    commands = corpus.commands()
    texts = corpus.configs()
    parser = build_parser()
    assert len(commands) >= 700
    assert len(set(map(corpus.label, commands))) == len(commands)
    assert sum(sub == "matrix" for sub, _, _ in commands) >= 18
    assert {sub for sub, _, _ in commands} == set(COMMANDS)
    for sub, name, flags in commands:
        assert name in texts
        extra = ("--out", "OUT") if sub == "matrix" else ()
        args = parser.parse_args([sub, name + ".cfg", *flags, *extra])
        assert args.command == sub


def test_the_deep_commands_are_in_the_corpus():
    commands = corpus.commands()
    for sub in ("ideals", "filters"):
        for name in ("shipped/axb", "lhbench/axb-c"):
            assert (sub, name, ("--depth", "4")) in commands
    assert ("ideals", "lhbench/num-10-11", ("--depth", "4")) in commands


def test_numerical_configs_with_a_gcd_above_one_are_in_the_corpus():
    texts = corpus.configs()
    gcds = [build_backend(parse_config(texts["gcd/" + name])).gcd
            for name in corpus.GCD]
    assert gcds == [2, 3]


def test_a_numerical_config_with_a_large_conductor_is_in_the_corpus():
    texts = corpus.configs()
    sg = build_backend(parse_config(texts["long/num-30-31"]))
    assert sg.conductor == 870
    commands = corpus.commands()
    for sub in COMMANDS:
        for flags in corpus.FLAG_SETS:
            assert (sub, "long/num-30-31", flags) in commands
