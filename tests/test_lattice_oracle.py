"""Filters and up-sets read off the meet table's bitsets, and maximality
and independence stated by the calculus, against the leq walks of
``lattice_oracle``, and the texts of failed lattice builds against its
row scan."""

import importlib.util
import itertools
import os
import random
from operator import and_

import pytest

from lefthull import (EMPTY, AxPlusB, FiniteTable, FreeMonoid,
                      NumericalSemigroup, PositiveCone, UsageError, calculus,
                      constructible_closure, cyclic_table, independence_check,
                      reachable_ideals)
from lefthull import filters
from lefthull.cli import DEFAULTS
from lefthull.config import (build_backend, config_generators, load_config,
                             parse_config)
from lefthull.filters import (FiniteSemilattice, enumerate_filters,
                              is_filter, maximal_representation_check,
                              truncate_semilattice)
from lefthull.semigroups import set_bits

import lattice_oracle as oracle

CONFIGS = os.path.join(os.path.dirname(__file__), "..", "configs")
WORKLOADS = os.path.join(os.path.dirname(__file__), "..", "lhbench",
                         "workloads.py")
SHIPPED = ("axb", "cone2", "free2", "num23", "table5", "zplus")
BACKENDS = [
    FreeMonoid(2),
    PositiveCone(2),
    NumericalSemigroup((2, 3)),
    NumericalSemigroup((3, 5)),
    AxPlusB(),
    FiniteTable(cyclic_table(5)),
]
# (backend, depth, generators); <10,11> stops at depth 2, where its lattice
# has 98 elements (1,146 at depth 3, too many for the cubic walks)
CASES = [(sg, depth, None) for sg in BACKENDS for depth in (1, 2, 3)] + [
    (NumericalSemigroup((10, 11)), depth, None) for depth in (1, 2)]


def shipped(name):
    cfg = load_config(os.path.join(CONFIGS, name + ".cfg"))
    sg = build_backend(cfg)
    return sg, cfg.bounds.get("depth", DEFAULTS["depth"]), \
        config_generators(sg, cfg)


def case_id(case):
    sg, depth, _ = case
    return "%s-depth%d" % (sg.describe(), depth)


def lhbench_workloads():
    """lhbench's workloads module, loaded from its file."""
    spec = importlib.util.spec_from_file_location("lhbench_workloads",
                                                  WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


def bench_cases():
    """The numerical and axb configs of lhbench's workloads, at the depth
    each workload command runs them with."""
    workloads = lhbench_workloads()
    cases = {}
    for workload in workloads.WORKLOADS.values():
        for command in workload.commands + workload.references:
            cfg = parse_config(workloads.CONFIGS[command.config])
            if cfg.kind not in ("numerical", "axb"):
                continue
            flags = dict(zip(command.flags[::2], command.flags[1::2]))
            depth = int(flags.get("--depth", cfg.bounds.get(
                "depth", DEFAULTS["depth"])))
            sg = build_backend(cfg)
            cases["%s-depth%d" % (command.config, depth)] = (
                sg, depth, config_generators(sg, cfg))
    return cases


def bitset(members):
    return sum(1 << i for i in members)


def sample_subsets(lattice, rng, count=200):
    """Up-sets, up-sets with one index added or dropped, and subsets of
    random density, so that both answers come up; as sets of indices, for
    the oracle."""
    n = len(lattice)
    for k in range(count):
        members = set(oracle.up_set(lattice, rng.randrange(n)))
        if k % 4 == 1:
            members.add(rng.randrange(n))
        elif k % 4 == 2:
            members.discard(rng.choice(sorted(members)))
        elif k % 4 == 3:
            p = rng.random()
            members = {i for i in range(n) if rng.random() < p}
        yield members


def assert_agrees(sg, depth, generators):
    fam = constructible_closure(sg, depth, generators)
    lat = truncate_semilattice(sg, fam)
    for i in range(len(lat)):
        assert frozenset(set_bits(lat.up[i])) == oracle.up_set(lat, i), i
    for f in enumerate_filters(lat):
        assert type(f.members) is int and f.members == lat.up[f.minimal]
        assert oracle.is_filter(set_bits(f.members), lat)
    for members in sample_subsets(lat, random.Random(len(lat))):
        assert is_filter(bitset(members), lat) == \
            oracle.is_filter(members, lat), sorted(members)
    maximal = maximal_representation_check(lat)
    assert maximal.holds == oracle.maximality(lat)[0]
    verdict = independence_check(sg, fam)
    assert (verdict.holds, verdict.witness) == oracle.independence(sg, fam)
    assert maximal == verdict
    return verdict


@pytest.mark.parametrize("name", SHIPPED)
def test_shipped_configs_agree_with_leq_walks(name):
    assert_agrees(*shipped(name))


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_backends_agree_with_leq_walks(case):
    assert_agrees(*case)


VERDICT_CASES = {**{name: shipped(name) for name in SHIPPED},
                 **{case_id(case): case for case in CASES},
                 **bench_cases()}


@pytest.mark.parametrize("case", VERDICT_CASES.values(), ids=VERDICT_CASES)
def test_maximality_is_the_whole_independence_verdict(case):
    # holds, witness and proof: the truncation answers with the verdict of
    # the family it was built from
    sg, depth, generators = case
    fam = constructible_closure(sg, depth, generators)
    assert maximal_representation_check(truncate_semilattice(sg, fam)) == \
        independence_check(sg, fam)


@pytest.mark.parametrize("gens, depth", [((2, 3), 3), ((10, 11), 2)])
def test_numerical_independence_fails_with_the_oracles_witness(gens, depth):
    verdict = assert_agrees(NumericalSemigroup(gens), depth, None)
    assert not verdict.holds and verdict.witness is not None


@pytest.mark.parametrize("sg, depth", [
    (PositiveCone(1), 1), (PositiveCone(1), 2), (PositiveCone(1), 3),
    (PositiveCone(1), 4), (FreeMonoid(2), 1), (FreeMonoid(2), 2),
    (FreeMonoid(2), 3),
], ids=lambda x: x.describe() if hasattr(x, "describe") else str(x))
def test_every_subset_of_small_lattices(sg, depth):
    lat = truncate_semilattice(sg, constructible_closure(sg, depth))
    n = len(lat)
    for bits in itertools.product((False, True), repeat=n):
        members = set(itertools.compress(range(n), bits))
        assert is_filter(bitset(members), lat) == \
            oracle.is_filter(members, lat), sorted(members)


def text_case(text, depth):
    cfg = parse_config(text)
    sg = build_backend(cfg)
    return sg, depth, config_generators(sg, cfg)


# the shipped configs at their depth, lhbench's configs at depths 1 to 3,
# two numerical semigroups with gcd > 1, lhbench's axb-c at depth 4, and ax+b
# on the first four primes at depths 2 and 3, past SIGNATURE_POINTS, where
# the keys are the members
LHBENCH_TEXTS = lhbench_workloads().CONFIGS
PRIMES = ((0, 2), (0, 3), (0, 5), (0, 7))
ROW_CASES = {
    **{name: shipped(name) for name in SHIPPED},
    **{"%s-depth%d" % (name, depth): text_case(text, depth)
       for name, text in LHBENCH_TEXTS.items() for depth in (1, 2, 3)},
    **{"num-%s-depth%d" % ("-".join(map(str, gens)), depth):
       (NumericalSemigroup(gens), depth, None)
       for gens in ((4, 6), (6, 9, 15)) for depth in (1, 2, 3)},
    "axb-c-depth4": text_case(LHBENCH_TEXTS["axb-c"], 4),
    **{"axb-primes-depth%d" % depth: (AxPlusB(), depth, PRIMES)
       for depth in (2, 3)},
}


@pytest.mark.parametrize("case", ROW_CASES.values(), ids=ROW_CASES)
def test_reachable_order_agrees_with_the_row_build(case):
    # the lattice a command builds, its order read off the reachable
    # ideals: the up-sets of the row build and of the library call, which
    # reads it off every member, and the pairwise table's meets
    sg, depth, generators = case
    reach = reachable_ideals(sg, depth, generators)
    fam = constructible_closure(sg, depth, generators, reach)
    lat = truncate_semilattice(sg, fam, reach)
    table, up = oracle.row_build(lat)
    assert lat.up == up == truncate_semilattice(sg, fam).up
    meets = tuple(tuple(lat.meets(i, range(len(lat))))
                  for i in range(len(lat)))
    assert meets == table == oracle.pairwise_table(sg, fam)


# ---------------------------------------------------------------------------
# failure texts: the build names each failure as the row scan does


LAW = "meet table violates the top or zero law"
NOT_CLOSURE = "family is not the meet closure of its reachable ideals"
# three inputs keyed by signatures and ax+b on the first four primes, keyed
# by its members past SIGNATURE_POINTS
SWEEP = {"cone2": (PositiveCone(2), None),
         "num23": (NumericalSemigroup((2, 3)), None),
         "axb": (AxPlusB(), None),
         "axb-primes": (AxPlusB(), PRIMES)}
# each break and what the row scan finds on it: the start of its text, or
# None for nothing
BREAKS = {"member-dropped": "family is not intersection closed: missing ",
          "reachable-dropped": None,
          "extra-member": None,
          "top-law": LAW,
          "zero-law": LAW}


def broken_family(sg, reach, how):
    """The closure of ``reach`` with a member dropped, a reachable ideal
    dropped or a member added, as ``how`` says (whole for the law breaks),
    and whether it is still the meet closure of ``reach``."""
    cal = calculus(sg)
    fam = constructible_closure(sg, 2, None, reach)
    if how == "member-dropped":
        Z = next(X for X in fam if X not in reach)
        return tuple(X for X in fam if X != Z), False
    if how == "reachable-dropped":
        R = next(R for R in reversed(reach) if R is not EMPTY)
        return tuple(X for X in fam if X != R), False
    if how == "extra-member":
        # x x S inside a minimal member M, for x in M: it meets each member
        # in itself or in EMPTY, as M does in M or in EMPTY, and each
        # reachable ideal above it lies above M
        M = next(M for M in reversed(fam) if M is not EMPTY and not any(
            cal.subset(Y, M) for Y in fam if Y not in (M, EMPTY)))
        x = cal.principal_witness(M)
        if x is None:
            x = next(x for x in sg.window(64) if cal.is_member(x, M))
        X = cal.principal(sg.multiply(x, x))
        assert X not in fam
        return fam + (X,), False
    return fam, True


def trade_keys(monkeypatch, end):
    """Build each lattice with the meet keys of its top (end 0) or its zero
    (end -1) traded with its neighbour's: every meet is still a key, but
    the top or the zero row breaks its law."""
    real = filters.meet_keys

    def traded(cal, members):
        keys, meet = real(cal, members)
        keys = list(keys)
        i = end % len(keys)
        k = i + 1 if end == 0 else i - 1
        keys[i], keys[k] = keys[k], keys[i]
        return keys, meet

    monkeypatch.setattr(filters, "meet_keys", traded)


def unbuilt(sg, family, monkeypatch):
    """The lattice's elements and keys, its up-sets never built."""
    with monkeypatch.context() as m:
        m.setattr(FiniteSemilattice, "_up_sets", lambda self, rows: [])
        return FiniteSemilattice(sg, family)


def build_failure(sg, family, reachable):
    """The text of the UsageError the lattice build raises, or None."""
    try:
        truncate_semilattice(sg, family, reachable)
    except UsageError as err:
        return str(err)
    return None


@pytest.mark.parametrize("how", BREAKS)
@pytest.mark.parametrize("name", SWEEP)
def test_build_failures_read_as_the_row_scan(name, how, monkeypatch):
    # with and without the reachable set: the row scan's text where it
    # names a failure, else the meet-closure text where the family is no
    # meet closure of the reachable set it is given, else none
    sg, generators = SWEEP[name]
    reach = reachable_ideals(sg, 2, generators)
    family, closes = broken_family(sg, reach, how)
    if how.endswith("-law"):
        trade_keys(monkeypatch, 0 if how == "top-law" else -1)
    lat = unbuilt(sg, family, monkeypatch)
    assert (lat.key_meet is and_) == (generators is None)
    scan = oracle.row_scan_failure(lat)
    kind = BREAKS[how]
    assert scan is None if kind is None else scan.startswith(kind)
    for rows in (None, reach):
        want = scan or (None if closes or rows is None else NOT_CLOSURE)
        assert build_failure(sg, family, rows) == want
