#!/usr/bin/env python3
"""Benchmark of the rfun toolkit: user-level timings and per-layer traces.

    python3 bench/run.py --workload peano|shallow|corpus|all --seed N
                         [--seconds S] [--trace 0|1]

Runs from the root of a source checkout and imports the package from
``src/``.  One client, closed loop: each workload repeats a fixed pass of
ops, checked against plain-Python references, until ``--seconds`` have
passed, and reports each time metric as the median over passes.  The last
line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; with ``--trace 1`` the
metrics are the per-layer ones.  See bench/README.md.
"""
from __future__ import annotations

import argparse
import gc
import json
import math
import random
import resource
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import refs
from tracing import NoTrace, Tracer
from workloads import CHECK_FUEL, CHECK_SAMPLES, WORKLOADS, Workload

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
FIXTURES = ROOT / "tests" / "fixtures"
OUT_DIR = BENCH / "out"

END_TO_END = {        # name -> unit
    "setup_s": "s", "run_fwd_s": "s", "run_bwd_s": "s", "den_fwd_s": "s",
    "den_bwd_s": "s", "check_s": "s", "invert_s": "s", "peak_rss_mb": "MB",
}
SPAN_METRICS = [      # self time per span name, summed over a pass
    "syntax.parse_s", "syntax.static_s", "syntax.parse_value_s",
    "syntax.render_program_s", "values.render_s", "inverter.invert_s",
    "opsem.fwd_s", "opsem.bwd_s", "densem.table_s", "densem.sem_program_s",
    "densem.function_morphism_s", "densem.encode_s", "densem.decode_s",
    "invcat.eval_fwd_s", "invcat.eval_bwd_s", "harness.check_s",
    "stack.self_s", "bench.self_s",
]
REPLAY_METRICS = ["harness.vocabulary_s", "harness.gen_value_s",
                  "harness.opsem_outcome_s", "harness.densem_outcome_s"]
PER_LAYER = {name: "s" for name in SPAN_METRICS + REPLAY_METRICS}
PER_LAYER.update({
    "harness.self_s": "s", "opsem.apps": "count", "opsem.us_per_app": "us",
    "invcat.unfolds": "count", "invcat.us_per_unfold": "us",
    "stack.run_deep_us": "us", "stack.run_deep_s": "s",
    "trace.timed_s": "s", "trace.untraced_s": "s", "trace.layers_s": "s",
    "trace.overhead_s": "s", "probe.attempted": "count", "probe.failed": "count",
})


def import_rfun():
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import rfun
    except ImportError as exc:
        sys.exit(f"bench: cannot import rfun from {ROOT / 'src'}: {exc}")
    return rfun


class Bench:
    """One workload's passes, their timings and their failures."""

    def __init__(self, rfun, wl: Workload):
        self.r = rfun
        self.wl = wl
        self.sources = {}
        for stem in wl.programs:
            path = FIXTURES / f"{stem}.rfun"
            if not path.is_file():
                sys.exit(f"bench: missing fixture {path}")
            self.sources[stem] = path.read_text()
        self.attempted = 0
        self.failures: list[str] = []
        self.loaded = {}
        self.replay = Tracer()

    # -- bookkeeping -------------------------------------------------------

    def outcome(self, what: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{what}: {detail}")

    def guarded(self, what: str, fn, *args):
        """fn(*args), with an exception recorded as the op's failure."""
        try:
            return fn(*args)
        except Exception as exc:          # noqa: BLE001  (one op failed)
            self.outcome(what, False, f"{type(exc).__name__}: {exc}")
            return None

    # -- the CLI's call sequences -----------------------------------------

    def load(self, tr, stem: str):
        """The CLI's _load, then the denotation of every function."""
        r = self.r
        prog = tr.call("syntax.parse_s", r.parse_program, self.sources[stem])
        violations = tr.call("syntax.static_s", r.check_static, prog)
        if violations:
            raise RuntimeError("; ".join(map(str, violations)))
        tbl = tr.call("densem.table_s", r.SymbolTable.from_program, prog)
        pm = tr.call("densem.sem_program_s", r.sem_program, prog, tbl)
        morphs = {}
        for d in prog.defs:
            m = tr.call("densem.function_morphism_s", r.function_morphism,
                        prog, d.name, tbl, pm)
            morphs[d.name] = (m, r.invcat.dagger(m))
        return prog, tbl, morphs

    def run_op(self, tr, op):
        r = self.r
        prog = self.loaded[op.prog][0]
        v = tr.call("syntax.parse_value_s", r.parse_value, op.text)
        if op.backward:
            res = tr.call("opsem.bwd_s", r.apply_backward, prog, op.entry, v, op.fuel)
        else:
            res = tr.call("opsem.fwd_s", r.apply_forward, prog, op.entry, v, op.fuel)
        if res is r.OUT_OF_FUEL:
            return refs.OUT_OF_FUEL
        if res is r.NO_MATCH:
            return refs.NO_MATCH
        return tr.call("values.render_s", r.render_value, res)

    def den_op(self, tr, traced: bool, op):
        """run_denotation on the morphism or its dagger.  Traced, its body is
        replayed call by call, with the evaluation's duration returned."""
        r = self.r
        _, tbl, morphs = self.loaded[op.prog]
        m = morphs[op.entry][op.backward]
        v = tr.call("syntax.parse_value_s", r.parse_value, op.text)
        eval_s = 0.0
        if traced:
            e = tr.call("densem.encode_s", r.encode_value, v, tbl)
            t0 = perf_counter()
            res = tr.call("invcat.eval_bwd_s" if op.backward else "invcat.eval_fwd_s",
                          m.fwd, e, op.fuel)
            eval_s = perf_counter() - t0
            if res is not r.invcat.NO_FUEL and res is not r.invcat.UNDEF:
                res = tr.call("densem.decode_s", r.decode_value, res, tbl)
        else:
            res = r.run_denotation(m, v, tbl, op.fuel)
        if res is r.invcat.NO_FUEL:
            return refs.OUT_OF_FUEL, eval_s
        if res is r.invcat.UNDEF:
            return refs.NO_MATCH, eval_s
        return tr.call("values.render_s", r.render_value, res), eval_s

    def invert(self, tr, stem):
        inv = tr.call("inverter.invert_s", self.r.invert_program, self.loaded[stem][0])
        return stem, inv, tr.call("syntax.render_program_s", self.r.render_program, inv)

    def inverse_ok(self, stem, inv, listing) -> bool:
        """The listing re-parses to the inverse, inversion is an involution
        from the inverse onward (it normalises some programs, e.g. swapc's
        composite scrutinee, so not always from p itself), and arith inverts
        to the hand-written arith_inv."""
        r = self.r
        ok = (r.alpha_eq(r.parse_program(listing), inv)
              and r.alpha_eq(r.invert_program(r.invert_program(inv)), inv))
        if stem == "arith":
            ref = r.parse_program((FIXTURES / "arith_inv.rfun").read_text())
            ok = ok and r.alpha_eq(inv, ref)
        return ok

    # -- one pass ----------------------------------------------------------

    def timed(self, tr, metric: str, fn, *args):
        """One timed region of a pass, started from a collected heap."""
        gc.collect()
        t0 = perf_counter()
        out = tr.call("bench." + metric, fn, *args)
        self.timed_total += perf_counter() - t0
        return out

    def run_pass(self, check_seed: int, traced: bool) -> dict:
        """Every op of the workload once.  Returns the time of each part of
        each end-to-end metric: an op, a program's load, check or inversion,
        or a run_deep worker's own overhead."""
        tr = Tracer() if traced else NoTrace()
        wl = self.wl
        self.timed_total = 0.0
        parts: dict[tuple[str, object], list[float]] = defaultdict(list)
        evals: dict[int, float] = {}

        def setup():
            loaded = {}
            for _ in range(wl.setup_reps):
                for stem in wl.programs:
                    t0 = perf_counter()
                    loaded[stem] = self.load(tr, stem)
                    parts["setup_s", stem].append(perf_counter() - t0)
            return loaded

        self.loaded = self.timed(tr, "setup_s", setup)
        for stem in wl.programs:
            self.outcome(f"load {stem}", True)

        def run_ops(metric, ops):
            outs = []
            for i, op in ops:
                t0 = perf_counter()
                out = self.guarded(f"run {op.entry} {op.text[:40]}", self.run_op, tr, op)
                parts[metric, i].append(perf_counter() - t0)
                outs.append((i, op, out))
            return outs

        def den_batch(metric, ops):
            outs = []
            for i, op in ops:
                t0 = perf_counter()
                got = self.guarded(f"den {op.entry} {op.text[:40]}", self.den_op, tr, traced, op)
                parts[metric, i].append(perf_counter() - t0)
                if got is not None:
                    evals[i] = got[1]
                outs.append((i, op, got and got[0]))
            return outs

        def den_ops(metric, batches):
            outs = []
            for key, ops in batches.items():
                t0 = perf_counter()
                outs += tr.call("stack.self_s", self.r.run_deep, tr.call,
                                "bench.den_batch", den_batch, metric, ops)
                ops_s = sum(parts[metric, i][-1] for i, _ in ops)
                parts[metric, key].append(perf_counter() - t0 - ops_s)
            return outs

        for metric in ("run_fwd_s", "run_bwd_s"):
            ops = [(i, op) for i, op in enumerate(wl.ops) if op.metric == metric]
            self.verify(self.timed(tr, metric, run_ops, metric, ops))
        for metric in ("den_fwd_s", "den_bwd_s"):
            batches = defaultdict(list)     # one run_deep worker per function
            for i, op in enumerate(wl.ops):
                if op.metric == metric:
                    batches[f"run_deep {op.prog}.{op.entry}"].append((i, op))
            self.verify(self.timed(tr, metric, den_ops, metric, batches))

        def check_all():
            reports = []
            for stem in wl.programs:
                t0 = perf_counter()
                reports.append((stem, self.guarded(
                    f"check {stem}", tr.call, "harness.check_s", self.r.check_program,
                    self.loaded[stem][0], None, CHECK_SAMPLES, check_seed,
                    CHECK_FUEL, CHECK_FUEL)))
                parts["check_s", stem].append(perf_counter() - t0)
            return reports

        for stem, rep in self.timed(tr, "check_s", check_all):
            if rep is not None:
                self.outcome(f"check {stem}", rep["mismatches"] == 0,
                             f"{rep['mismatches']} mismatches")

        def invert_all():
            for _ in range(wl.invert_reps):
                invs = []
                for stem in wl.programs:
                    t0 = perf_counter()
                    invs.append(self.invert(tr, stem))
                    parts["invert_s", stem].append(perf_counter() - t0)
            return invs

        for stem, inv, listing in self.timed(tr, "invert_s", invert_all):
            self.outcome(f"invert {stem}", self.inverse_ok(stem, inv, listing),
                         "inverse is not the expected program")

        result = {"parts": dict(parts), "evals": evals, "traced": traced,
                  "timed": self.timed_total}
        if traced:
            mark = self.replay.mark()
            self.replay_harness(check_seed)
            result["self"] = tr.self_times()
            result["replay"] = self.replay.self_times(mark)
            result["spans"] = tr.dump()
        return result

    def verify(self, outs) -> None:
        for i, op, out in outs:
            if out is not None:
                self.outcome(f"{op.kind} {'bwd' if op.backward else 'fwd'} "
                             f"{op.prog}.{op.entry}", out == op.want,
                             f"got {out[:60]!r}, want {op.want[:60]!r}")

    def replay_harness(self, seed: int) -> None:
        """check_program's cases again, through the harness's public parts,
        to split check_s into generation, interpreter and denotation time."""
        r, tr = self.r, self.replay
        h = r.harness
        for stem in self.wl.programs:
            prog, tbl, morphs = self.loaded[stem]
            vocab = tr.call("harness.vocabulary_s", h.vocabulary, prog)
            for d in prog.defs:
                rng = random.Random(seed)
                inputs = [tr.call("harness.gen_value_s", h.gen_value, rng, vocab, 6)
                          for _ in range(CHECK_SAMPLES)]
                m = morphs[d.name][0]

                def cases():
                    for v in inputs:
                        tr.call("harness.opsem_outcome_s", h.opsem_outcome,
                                prog, d.name, v, CHECK_FUEL)
                        tr.call("harness.densem_outcome_s", h.densem_outcome,
                                m, v, tbl, CHECK_FUEL)

                r.run_deep(cases)

    # -- probes ------------------------------------------------------------

    def probes(self) -> list[tuple[str, bool, str]]:
        """Known defects, counted and never timed (see README)."""
        r = self.r
        out = []

        def loop_default_fuel():
            prog = r.parse_program((FIXTURES / "loop.rfun").read_text())
            tbl = r.SymbolTable.from_program(prog)
            m = r.function_morphism(prog, "loop", tbl)
            res = r.run_deep(r.run_denotation, m, r.tup(), tbl,
                             r.densem.DEFAULT_FUEL)
            return res is r.invcat.NO_FUEL

        def deep_numeral(n=100_000):
            prog = r.parse_program((FIXTURES / "arith.rfun").read_text())
            tbl = r.SymbolTable.from_program(prog)
            res = r.apply_forward(prog, "plus", r.parse_value(
                f"<{refs.num_text(n)}, Z>"))
            ok = r.render_value(res) == refs.pair_text(n, n)
            v = r.val("Z")
            for _ in range(n):
                v = r.val("S", v)
            return ok and r.decode_value(r.encode_value(v, tbl), tbl) == v

        def bad_dagger():
            prog = r.parse_program((FIXTURES / "bad_first_match.rfun").read_text())
            tbl = r.SymbolTable.from_program(prog)
            m = r.invcat.dagger(r.function_morphism(prog, "bad", tbl))
            return r.run_deep(r.run_denotation, m, r.val("A"), tbl) == r.val("Z")

        for name, fn in (("loop denotation at default fuel", loop_default_fuel),
                         ("10^5-deep numeral on the main thread", deep_numeral),
                         ("denotation of bad backward on A", bad_dagger)):
            try:
                out.append((name, bool(fn()), "wrong result"))
            except Exception as exc:      # noqa: BLE001  (the probe failed)
                out.append((name, False, type(exc).__name__))
        return out


# ---------------------------------------------------------------------------
# Summaries
# ---------------------------------------------------------------------------

def median(xs):
    return statistics.median(xs) if xs else 0.0


def fit_exponent(points) -> float:
    """Least-squares slope of log(time) against log(applications)."""
    xs = [math.log(s) for s, _ in points]
    ys = [math.log(t) for _, t in points]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx


def part_times(passes: list[dict]) -> dict:
    """Each part's time over the untraced passes' samples.

    A part with fixed inputs takes its fastest sample.  The host this was
    built on alternates between two speeds about 1.5x apart, in phases of a
    fraction of a second to seconds, so the median of a short part flips
    between the two; its minimum is the part's cost at the fast speed,
    which recurs in every run.  A check takes its mean: each pass checks at
    its own seed, and a check's time depends on how many divergent cases
    the seed draws (`fib!` on <Z, Z> costs about 70 ms at CHECK_FUEL)."""
    samples = defaultdict(list)
    for p in passes:
        if not p["traced"]:
            for key, ts in p["parts"].items():
                samples[key] += ts
    return {key: statistics.fmean(ts) if key[0] == "check_s" else min(ts)
            for key, ts in samples.items()}


def derived(wl: Workload, times: dict) -> dict:
    """Per-family growth exponents and den/run ratios, from per-op times.
    Reported, never gated: a constant-factor speed-up of a quadratic raises
    its fitted exponent, and a faster interpreter raises the ratio."""
    out = {}
    rungs = defaultdict(lambda: defaultdict(float))
    by_input = defaultdict(dict)
    for i, op in enumerate(wl.ops):
        t = times[op.metric, i]
        direction = "bwd" if op.backward else "fwd"
        sem = "opsem" if op.kind == "run" else "densem"
        if op.size:
            rungs[f"growth.{sem}.{op.family}.{direction}"][op.apps] += t
        if op.want != refs.OUT_OF_FUEL:     # a divergent op's time is its fuel's
            by_input[op.family, op.entry, op.text, op.backward][op.kind] = t
    for name, pts in sorted(rungs.items()):
        if len(pts) >= 3:      # the three largest rungs: the asymptotic slope
            out[name] = round(fit_exponent(sorted(pts.items())[-3:]), 3)
    ratio = defaultdict(lambda: [0.0, 0.0])
    for (family, *_), t in by_input.items():
        if "run" in t and "den" in t:
            ratio[family][0] += t["den"]
            ratio[family][1] += t["run"]
    for family, (den, run) in sorted(ratio.items()):
        out[f"ratio.den_over_run.{family}"] = round(den / run, 3)
    return out


def end_to_end(times: dict, rss_mb: float) -> dict:
    """Each time metric is the sum of its parts' times."""
    totals = defaultdict(float)
    for (metric, _), t in times.items():
        totals[metric] += t
    totals["peak_rss_mb"] = rss_mb
    return {name: {"value": totals[name], "unit": unit}
            for name, unit in END_TO_END.items()}


def per_layer(b: Bench, passes: list[dict], run_deep_us: float,
              probes) -> dict:
    wl = b.wl
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    apps = sum(op.apps for op in wl.ops if op.kind == "run")
    unfolds = sum(op.unfolds for op in wl.ops if op.kind == "den")
    deep_calls = (len({(op.prog, op.entry, op.metric) for op in wl.ops if op.kind == "den"})
                  + sum(len(b.loaded[stem][0].defs) for stem in wl.programs))
    rows = defaultdict(list)
    for p in traced:
        own = p["self"]
        for name in SPAN_METRICS:
            rows[name].append(own.get(name, 0.0))
        rows["bench.self_s"][-1] = sum(t for name, t in own.items()
                                       if name.startswith("bench."))
        for name in REPLAY_METRICS:
            rows[name].append(p["replay"].get(name, 0.0))
        replayed = sum(p["replay"].get(name, 0.0) for name in REPLAY_METRICS)
        rows["harness.self_s"].append(own.get("harness.check_s", 0.0) - replayed)
        opsem = own.get("opsem.fwd_s", 0.0) + own.get("opsem.bwd_s", 0.0)
        rows["opsem.us_per_app"].append(1e6 * opsem / apps if apps else 0.0)
        chain = sum(t for i, t in p["evals"].items() if wl.ops[i].unfolds)
        rows["invcat.us_per_unfold"].append(1e6 * chain / unfolds if unfolds else 0.0)
        rows["trace.timed_s"].append(p["timed"])
        rows["trace.layers_s"].append(
            sum(t for name, t in own.items() if not name.startswith("bench.")))
    metrics = {name: median(vals) for name, vals in rows.items()}
    untraced = median([p["timed"] for p in plain])
    metrics.update({
        "opsem.apps": apps, "invcat.unfolds": unfolds,
        "stack.run_deep_us": run_deep_us,
        "stack.run_deep_s": run_deep_us * 1e-6 * deep_calls,
        "trace.untraced_s": untraced,
        "trace.overhead_s": metrics["trace.timed_s"] - untraced,
        "probe.attempted": len(probes),
        "probe.failed": sum(not ok for _, ok, _ in probes),
    })
    return {name: {"value": metrics[name], "unit": unit}
            for name, unit in PER_LAYER.items()}


def trivial_run_deep_us(rfun, n: int = 25) -> float:
    samples = []
    for _ in range(n):
        t0 = perf_counter()
        rfun.run_deep(int)
        samples.append(perf_counter() - t0)
    return 1e6 * median(samples)


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    rfun = import_rfun()
    wl = WORKLOADS[name](seed)
    b = Bench(rfun, wl)
    passes = []
    start = perf_counter()
    min_passes = 4 if trace else 2
    while len(passes) < min_passes or perf_counter() - start < seconds:
        # each pass checks at its own seed; a traced pass reuses the seed of
        # the untraced pass before it, so the two compare like for like
        i = len(passes)
        traced = trace and i % 2 == 1
        passes.append(b.run_pass(seed * 1000 + (i // 2 if trace else i), traced))
    elapsed = perf_counter() - start
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    probes = b.probes()
    times = part_times(passes)
    extra = derived(wl, times)
    if trace:
        metrics = per_layer(b, passes, trivial_run_deep_us(rfun), probes)
    else:
        metrics = end_to_end(times, rss_mb)

    n = len([p for p in passes if not p["traced"]])
    print(f"workload {name}, seed {seed}, trace {int(trace)}: {len(passes)} passes "
          f"in {elapsed:.1f} s; end-to-end times sum each part's fastest sample "
          f"(checks: mean) over {n} untraced passes"
          + ("; layer times are medians over the traced passes" if trace else ""))
    for metric, m in metrics.items():
        print(f"  {metric:28s} {m['value']:>14.6g} {m['unit']}")
    failed = len(b.failures)
    print(f"  ops: {b.attempted} attempted, {failed} failed, failed_share "
          f"{failed / b.attempted:.4g}")
    for f in b.failures[:20]:
        print(f"    FAILED {f}")
    for pname, ok, detail in probes:
        print(f"  probe {pname}: {'ok' if ok else 'FAILED (' + detail + ')'}")
    for key, value in extra.items():
        print(f"  {key:28s} {value:>14} (not gated)")

    report = {"workload": name, "seed": seed, "trace": int(trace),
              "passes": len(passes), "metrics": metrics, "derived": extra,
              "attempted": b.attempted, "failures": b.failures,
              "probes": [{"name": p, "ok": ok, "detail": d} for p, ok, d in probes],
              "parts": [{f"{m} {k}": ts for (m, k), ts in p["parts"].items()}
                        for p in passes]}
    if trace:
        report["spans"] = [p["spans"] for p in passes if p["traced"]]
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(report))
    return {"correct": failed == 0, "attempted": b.attempted, "failed": failed,
            "metrics": metrics}


def run_all(seed: int, seconds: float, trace: bool) -> dict:
    """Each workload in its own process, so peak memory is per workload."""
    rows, total = {}, {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True, text=True, check=False)
        sys.stdout.write(proc.stdout[:proc.stdout.rstrip().rfind("\n") + 1])
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            sys.exit(proc.returncode)
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        rows[name] = res["metrics"]
        total["correct"] &= res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        for metric, m in res["metrics"].items():
            total["metrics"][f"{name}.{metric}"] = m
    first = next(iter(rows.values()))
    print("\n" + f"{'workload':10s}" + "".join(
        f"{metric + ' [' + m['unit'] + ']':>22s}" for metric, m in first.items()))
    for name, metrics in rows.items():
        print(f"{name:10s}" + "".join(f"{m['value']:>22.6g}" for m in metrics.values()))
    return total


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, bool(args.trace))
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
