"""One pass of a workload in a fresh process: set up, answer every query in a
closed loop, then check the answers.

    python3 perfbench/worker.py <workload> <seed> <trace 0|1> <start>

<start> is time.monotonic() read by the parent just before it started this
process, so set-up time covers interpreter start and imports.  The pass
prints one JSON object on stdout.
"""

from __future__ import annotations

import gc
import hashlib
import json
import pathlib
import resource
import sys
import time
import traceback

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))


def _report(q, outcome, cli) -> str:
    """Deterministic text of an answer, for the report digest."""
    if not q.verb.startswith("api-"):
        code, report = outcome
        return f"{code}\n{report}"
    if q.verb == "api-check":
        return "\n".join(cli._verdict_lines(outcome))
    if q.verb == "api-coherence":
        count, results, broken = outcome
        return f"{count} {[str(r) for r in results]} {broken}"
    kind, mapping = outcome
    return f"{kind} {[(str(x), str(y)) for x, y in mapping]}"


def main(workload: str, seed: int, trace: bool, started: float) -> dict:
    from canonfn import behaviors, canonicity, cli, fraisse, groups

    import checks
    import speed
    import tracer as tracing
    import workloads

    inst = tracing.Installation(tracing.Tracer()) if trace else None
    if inst:
        inst.tracer.paused = True

    # -- set-up: generation, argv parsing, shared objects ---------------------
    queries = workloads.generate(workload, seed)
    shared = {}
    if any(q.verb == "api-check" for q in queries):
        for name, size in workloads.SHARED_LIMIT_SIZE.items():
            shared[name] = fraisse.builtin_limit(name)
            shared[name].ensure_size(size)
    aut_dlo = groups.AutLimit(fraisse.builtin_limit("dlo"))
    dlo_tables, kinds = [], []
    if any(q.verb == "api-realize" for q in queries):
        dlo_tables = behaviors.enumerate_behaviors(aut_dlo, aut_dlo, 2)
        kinds = [next(groups.format_label(t) for k, s, t in table.entries()
                      if k == 2 and groups.format_label(s) == "1<2") for table in dlo_tables]
    calls = [_call(q, cli, canonicity, behaviors, groups, shared, aut_dlo, dlo_tables, kinds)
             for q in queries]
    setup_s = time.monotonic() - started
    if inst:
        inst.tracer.paused = False

    # -- the closed loop --------------------------------------------------------
    # Before each query, collect and freeze what earlier queries left, so the
    # collector works only on the query's own objects, as in a fresh CLI
    # process.  The calibration loop runs before the first query and after
    # each one (see speed.py).
    outcomes, latencies, errors = [], [], {}
    cals = [speed.calibrate()]
    for i, call in enumerate(calls):
        gc.collect()
        gc.freeze()
        if inst:
            inst.begin_query(i)
        t0 = time.perf_counter()
        try:
            outcome = call()
        except Exception:  # a traceback is a failed query, never a skip
            outcome = None
            errors[i] = traceback.format_exc(limit=-3).strip().replace("\n", " | ")
        latencies.append(time.perf_counter() - t0)
        if inst:
            inst.end_query()
        cals.append(speed.calibrate())
        outcomes.append(outcome)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # -- checks, outside the timed loop and the trace ---------------------------
    if inst:
        inst.tracer.paused = True
    ctx = checks.Context(shared)
    failures, digests = [], []
    for i, (q, outcome) in enumerate(zip(queries, outcomes)):
        if i in errors:
            failures.append((i, " ".join(q.argv) or q.verb, f"raised: {errors[i]}"))
            digests.append("error")
            continue
        try:
            problem = checks.check(i, q, outcome, ctx)
        except Exception:
            problem = "checking raised: " + traceback.format_exc(limit=-2).replace("\n", " | ")
        if problem:
            failures.append((i, " ".join(q.argv) or q.verb, problem))
        digests.append(hashlib.sha256(_report(q, outcome, cli).encode()).hexdigest()[:16])
    if any(shared[n].size != s for n, s in workloads.SHARED_LIMIT_SIZE.items() if n in shared):
        failures.append((-1, "shared limits", "a read-only query grew a shared limit"))

    shares = workloads.traffic_shares(workload, queries)
    if ctx.verdicts:
        shares["canonical"] = sum(ctx.verdicts.values()) / len(ctx.verdicts)
        shares["refuted"] = 1 - shares["canonical"]
    result = {
        "setup_s": setup_s, "latencies": latencies, "cals": cals,
        "peak_rss_mb": peak_rss_mb, "failures": failures, "digests": digests,
        "shares": shares,
    }
    if inst:
        result["layers"] = tracing.layer_metrics(inst)
        stats = inst.tracer.layer_stats()
        result["top_self"] = sorted(stats, key=lambda n: -stats[n]["self_s"])[:3]
        canonize = [i for i, q in enumerate(queries) if q.verb == "canonize"]
        if canonize:
            heavy = sum(inst.search_nodes(i) > 10 * queries[i].params["depth"] for i in canonize)
            result["shares"]["nodes_over_10x_depth"] = heavy / len(canonize)
    return result


def _call(q, cli, canonicity, behaviors, groups, shared, aut_dlo, dlo_tables, kinds):
    """A zero-argument callable answering the query.  Module attributes are
    looked up at call time, so traced wrappers are the ones that run."""
    if not q.verb.startswith("api-"):
        spec = cli.parse_command(list(q.argv))
        return lambda: cli.run(spec)
    p = q.params
    if q.verb == "api-check":
        limit = shared[p["limit"]]
        g = groups.AutLimit(limit)
        desc = p["oracle"]
        if desc[0] == "id":
            oracle = canonicity.IdentityOracle(limit, limit)
        elif desc[0] == "const":
            oracle = canonicity.ConstantOracle(limit, desc[1])
        else:
            oracle = canonicity.TableOracle(limit, limit, desc[1])
        return lambda: canonicity.check_canonical(oracle, g, g, p["horizon"], p["arity"])
    if q.verb == "api-coherence":
        def coherence():
            tables = behaviors.enumerate_behaviors(aut_dlo, aut_dlo, p["arity"])
            results = [behaviors.coherence_check(t) for t in tables]
            return len(tables), results, behaviors.coherence_check(_broken(tables, groups))
        return coherence
    table, kind = dlo_tables[p["table"]], kinds[p["table"]]
    return lambda: (kind, behaviors.realize_behavior(table, p["n"]))


def _broken(tables, groups):
    """A table whose 1<2 entry takes the image of its 2<1 entry."""
    for table in tables:
        entries = list(table.entries())
        image = {(k, groups.format_label(s)): t for k, s, t in entries}
        if image[(2, "1<2")] != image[(2, "2<1")]:
            flipped = [(k, s, image[(2, "2<1")] if (k, groups.format_label(s)) == (2, "1<2")
                        else t) for k, s, t in entries]
            return type(table)(table.source, table.target, table.max_arity, flipped)
    raise ValueError("every table is constant at arity 2")


if __name__ == "__main__":
    workload, seed, trace, started = sys.argv[1:5]
    out = main(workload, int(seed), trace == "1", float(started))
    sys.stdout.write(json.dumps(out) + "\n")
