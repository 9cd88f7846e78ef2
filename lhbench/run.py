"""Benchmark for lefthull: one workload of lefthull commands, run in rounds.

Run from the root of a checkout (the package is imported from ``src/``):

    python3 lhbench/run.py --workload closure --seed 3 --seconds 20 --trace 0

A round is one set-up (a fresh import of lefthull, parsing every config of
the workload and constructing every backend) followed by the workload's
commands, each run through ``lefthull.cli.main`` in this process, one at a
time.  Rounds repeat until ``--seconds`` have passed; round r passes
``--seed <seed + r>`` to every command, so no (config, bounds) pair repeats
within a run, and the fresh import drops every cache of the previous round.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics: the medians over rounds of wall and CPU time of the
commands, the median set-up time, all three scaled to a reference
interpreter speed (see speed.py), and the peak resident memory.  With
``--trace 1`` each untraced round is followed by the same round traced layer
by layer (see tracing.py); the line carries the per-layer metrics named in
BENCHMARK.json, and ``lhbench/results/`` receives every per-layer metric and
the recorded spans.  Outputs of every command are checked in both modes.
"""

import argparse
import contextlib
import gc
import importlib
import io
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from speed import SpeedProbe
from tracing import Tracer, layer_metrics
from workloads import CHECK_NAMES, CONFIGS, WORKLOADS, check_failures, \
    parse_pairs, verify

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
# set-ups timed before the first round, so that setup_s is a median of
# several samples even when only a few rounds fit
EXTRA_SETUPS = 20


def write_configs(workload):
    folder = RESULTS / "configs"
    folder.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name in workload.configs():
        path = folder / (name + ".cfg")
        path.write_text(CONFIGS[name], encoding="utf-8")
        paths[name] = str(path)
    return paths


def fresh_import():
    for name in [m for m in sys.modules
                 if m == "lefthull" or m.startswith("lefthull.")]:
        del sys.modules[name]
    importlib.import_module("lefthull.cli")
    return sys.modules["lefthull"]


def setup(paths):
    """Import lefthull afresh, parse each config and build each backend.
    Returns the package and the (start, end) perf_counter readings."""
    gc.collect()
    start = time.perf_counter()
    pkg = fresh_import()
    for path in paths:
        cfg = pkg.config.load_config(path)
        sg = pkg.config.build_backend(cfg)
        pkg.config.config_generators(sg, cfg)
    return pkg, (start, time.perf_counter())


def play(pkg, argvs):
    """Run the commands in order.  Returns the (start, end) perf_counter
    readings, the CPU seconds, and per command the exit code (None when it
    raised), stdout and stderr."""
    gc.collect()
    results = []
    wall0, cpu0 = time.perf_counter(), time.process_time()
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = pkg.cli.main(argv)
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 2
            except Exception:
                rc = None
                traceback.print_exc(file=err)
        results.append((rc, out.getvalue(), err.getvalue()))
    span = (wall0, time.perf_counter())
    return span, time.process_time() - cpu0, results


class Round:
    """Outcome of one round: timings, failed commands and output problems."""

    def __init__(self, workload, seed, span, cpu, results, ref_results):
        self.seed = seed
        self.span = span
        self.wall = span[1] - span[0]
        self.cpu = cpu
        self.failed = []
        self.problems = []
        self.outputs = [out for _, out, _ in results]
        refs = {}
        for cmd, (rc, out, err) in zip(workload.references, ref_results):
            refs[(cmd.sub, cmd.config)] = parse_pairs(out)
            for p in verify(cmd, rc, out, refs):
                self.problems.append("reference %s: %s" % (cmd.label(), p))
        for cmd, (rc, out, err) in zip(workload.commands, results):
            if rc != 0:
                self.failed.append(self._failure(cmd, rc, out, err))
                continue
            for p in verify(cmd, rc, out, refs):
                self.problems.append("%s: %s" % (cmd.label(), p))

    @staticmethod
    def _failure(cmd, rc, out, err):
        failing = check_failures(parse_pairs(out))
        what = ("failed checks: %s" % ", ".join(failing)) if failing else \
            (err.strip().splitlines() or ["no message"])[-1]
        known = cmd.known_fault is not None and failing == [cmd.known_fault]
        return "%s: exit %s, %s%s" % (cmd.label(), rc, what,
                                      " (known fault)" if known else "")


def run_round(workload, paths, seed, tracer=None):
    pkg, setup_span = setup([paths[c] for c in workload.configs()])
    if tracer is not None:
        tracer.install(pkg)
    span, cpu, results = play(pkg, [c.argv(paths, seed)
                                    for c in workload.commands])
    if tracer is not None:
        # references are checks, not work to attribute to a layer
        pkg = fresh_import()
    _, _, ref_results = play(pkg, [c.argv(paths, seed)
                                   for c in workload.references])
    return setup_span, Round(workload, seed, span, cpu, results, ref_results)


def per_layer_names():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return [m["name"] for m in json.load(fh)["per_layer"]]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "lefthull" / "cli.py").is_file():
        print("lhbench: no lefthull sources under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    paths = write_configs(workload)
    config_paths = [paths[c] for c in workload.configs()]

    # timings of untraced runs are scaled to a reference interpreter speed
    # (see speed.py); traced runs report their layers unscaled
    probe = None if args.trace else SpeedProbe()
    rounds, traced, overheads = [], [], []
    total = Tracer() if args.trace else None
    spans = []
    with probe or contextlib.nullcontext():
        setups = [setup(config_paths)[1] for _ in range(EXTRA_SETUPS)]
        begin = time.perf_counter()
        r = 0
        while True:
            setup_span, rnd = run_round(workload, paths, args.seed + r)
            setups.append(setup_span)
            rounds.append(rnd)
            if args.trace:
                tracer = Tracer()
                _, trnd = run_round(workload, paths, args.seed + r, tracer)
                if trnd.outputs != rnd.outputs:
                    trnd.problems.append("traced output differs from "
                                         "untraced")
                traced.append(trnd)
                overheads.append(trnd.wall - rnd.wall)
                total.merge(tracer)
                spans.append(tracer.span_records())
            r += 1
            if time.perf_counter() - begin >= args.seconds:
                break

    everything = rounds + traced
    attempted = len(workload.commands) * len(everything)
    failed = sum(len(x.failed) for x in everything)
    problems = [p for x in everything for p in x.problems]
    for note in sorted({f for x in everything for f in x.failed}):
        print("failed: %s" % note, file=sys.stderr)
    for p in problems[:20]:
        print("wrong: %s" % p, file=sys.stderr)

    RESULTS.mkdir(parents=True, exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed,
              "commands": [c.label() for c in workload.commands],
              "raw_setup_s": [end - start for start, end in setups],
              "rounds": [{"seed": x.seed, "raw_wall_s": x.wall,
                          "raw_cpu_s": x.cpu, "failed": x.failed}
                         for x in rounds]}
    if args.trace:
        layers = layer_metrics(total, len(traced), CHECK_NAMES)
        layers["trace.wall_s"] = (statistics.median(x.wall for x in traced),
                                  "s")
        layers["trace.overhead_s"] = (statistics.median(overheads), "s")
        record["traced_rounds"] = [{"seed": x.seed, "wall_s": x.wall}
                                   for x in traced]
        record["per_layer"] = {k: {"value": v, "unit": u}
                               for k, (v, u) in layers.items()}
        record["spans"] = spans
        out_path = RESULTS / ("trace-%s-seed%d.json" % (args.workload,
                                                        args.seed))
        metrics = {name: {"value": layers[name][0], "unit": layers[name][1]}
                   for name in per_layer_names()}
    else:
        out_path = RESULTS / ("%s-seed%d.json" % (args.workload, args.seed))
        walls = [probe.scale(*x.span) for x in rounds]
        cpus = [probe.scale(*x.span, cpu=x.cpu) for x in rounds]
        setup_times = [probe.scale(*span) for span in setups]
        for entry, wall, cpu in zip(record["rounds"], walls, cpus):
            entry.update(wall_s=wall, cpu_s=cpu)
        record["speed_samples"] = len(probe.lengths)
        metrics = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "cpu_s": {"value": statistics.median(cpus), "unit": "s"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
        }
    record["metrics"] = metrics
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
