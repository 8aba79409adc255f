"""Per-layer metrics from the spans of a traced run.

Each metric is taken from the traced rounds of the workload(s) it should
move (README: "Per-layer metrics") and is a mean per round of that
workload; a metric fed by two workloads is the sum of their per-round means.
Times named after functions are inclusive (a span nested in a span of the
same set is not counted twice); `*.self_s`, `rmt.increments_s`,
`transforms.solver_s` and `cli.overhead_s` are self times.

The `trace.*` figures close the books: over one round of every workload,
the `<layer>.self_s` values plus `trace.remainder_s` (time inside rounds
but outside every span) equal `trace.wall_s`.
"""

from __future__ import annotations

import statistics

from tracing import layer_of, root_time, self_time_by_layer

CP, FC, COLD, SWEEP = "cp-campaigns", "free-convolution", "exact-cold", "exact-sweep"
LAYERS = ["cli", "rmt", "cumulants", "partitions", "transforms", "levy", "ncsym", "measures"]

CAMPAIGNS = {"rmt.verify_variation", "rmt.mixed_decay"}
CONVERSIONS = {"cumulants.moments_to_cumulants", "cumulants.cumulants_to_moments"}
MIXED = {"cumulants.mixed_free_cumulant", "cumulants.free_joint_functional",
         "cumulants.joint_functional_eval", "cumulants.power_sum_joint_cumulant"}
CAUCHY = {"transforms.cauchy", "transforms.cauchy_derivative"}


def _in_set_ancestor(tracer, span, names) -> bool:
    p = span.parent
    while p >= 0:
        parent = tracer.spans[p]
        if parent.name in names:
            return True
        p = parent.parent
    return False


def inclusive(tracer, spans, names) -> float:
    return sum(s.duration for s in spans
               if s.name in names and not _in_set_ancestor(tracer, s, names))


def self_time(spans, names) -> float:
    return sum(s.self_time for s in spans if s.name in names)


def calls(spans, names) -> int:
    return sum(1 for s in spans if s.name in names)


def counted(spans, names) -> int:
    return sum(s.count for s in spans if s.name in names)


def per_layer_metrics(tracer, traced_rounds: dict, workloads: dict) -> dict:
    windows = {name: [tracer.window(r["start"], r["end"]) for r in rounds]
               for name, rounds in traced_rounds.items()}

    def mean(sources, fn):
        return sum(statistics.fmean(fn(spans) for spans in windows[w]) for w in sources)

    def incl(sources, *names):
        return mean(sources, lambda spans: inclusive(tracer, spans, set(names)))

    out = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    # rmt: the campaigns of cp-campaigns, power sums on exact-sweep's dense increments
    campaign = incl([CP], *CAMPAIGNS)
    put("rmt.campaign_s", campaign, "s")
    put("rmt.increments_s", mean([CP], lambda spans: self_time(spans, CAMPAIGNS)), "s")
    put("rmt.draw_s", incl([CP], "rmt.sample_gue", "rmt.stream"), "s")
    put("rmt.esd_s", incl([CP], "rmt.esd"), "s")
    put("rmt.trace_moments_s", incl([CP], "rmt.trace_moments"), "s")
    put("rmt.reference_s", incl([CP], "rmt.predicted_variation_moments",
                                "rmt.finite_n_power_sum_moments"), "s")
    put("rmt.matcauchy_s", incl([CP], "rmt.matricial_cauchy"), "s")
    trials = workloads[CP].trials_per_round
    put("rmt.trials", trials, "count")
    put("rmt.s_per_trial", campaign / trials, "s")
    put("rmt.power_sums_s", incl([SWEEP], "rmt.power_sums"), "s")

    # cumulants: cold on exact-cold, warm on exact-sweep
    def first_conversion(spans):
        return next(s.duration for s in spans if s.name in CONVERSIONS)

    put("cumulants.first_call_s", mean([COLD], first_conversion), "s")
    warm = [s.duration for spans in windows[SWEEP] for s in spans if s.name in CONVERSIONS]
    put("cumulants.warm_call_us", 1e6 * statistics.median(warm), "us")
    put("cumulants.m2c_s", incl([COLD, SWEEP], "cumulants.moments_to_cumulants"), "s")
    put("cumulants.c2m_s", incl([COLD, SWEEP], "cumulants.cumulants_to_moments"), "s")
    put("cumulants.mixed_s", incl([COLD, SWEEP], *MIXED), "s")
    put("cumulants.calls", mean([COLD, SWEEP], lambda spans: calls(spans, CONVERSIONS | MIXED)),
        "count")

    # partitions: NC(n) enumeration and Kreweras complements of the cold build
    put("partitions.enumerate_nc_s", incl([COLD], "partitions.enumerate_nc"), "s")
    put("partitions.nc_listed", mean([COLD], lambda spans: counted(spans, {"partitions.enumerate_nc"})),
        "count")
    put("partitions.kreweras_s", incl([COLD], "partitions.kreweras"), "s")

    # transforms: the Cauchy-transform kernel behind free convolution
    cauchy_s = incl([FC], *CAUCHY)
    kernel_evals = mean([FC], lambda spans: counted(spans, CAUCHY))
    put("transforms.free_convolve_s", incl([FC], "transforms.free_convolve"), "s")
    put("transforms.boxplus_power_s", incl([FC], "transforms.boxplus_power"), "s")
    put("transforms.voiculescu_s", incl([FC], "transforms.voiculescu"), "s")
    put("transforms.cauchy_s", cauchy_s, "s")
    put("transforms.solver_s", mean([FC], lambda spans: self_time(spans, {"transforms.free_convolve"})),
        "s")
    put("transforms.cauchy_calls", mean([FC], lambda spans: calls(spans, CAUCHY)), "count")
    put("transforms.kernel_evals", kernel_evals, "count")
    put("transforms.kernel_evals_per_s", kernel_evals / cauchy_s, "1/s")
    fc = workloads[FC]
    put("transforms.density_l1_err",
        max(err for r in traced_rounds[FC] for _, err, _ in fc.l1_errors(r["outputs"])), "L1")

    # levy, ncsym, measures: the warm exact sweep
    put("levy.variation_triple_s", incl([SWEEP], "levy.variation_triple"), "s")
    put("levy.pushforward_s", incl([SWEEP], "levy.pushforward_levy"), "s")
    put("levy.conversions_s", incl([SWEEP], "levy.triple_to_pair", "levy.pair_to_triple"), "s")
    put("levy.triple_to_cumulants_s", incl([SWEEP], "levy.triple_to_cumulants"), "s")
    put("levy.bp_check_s", incl([SWEEP], "levy.bp_limit_check"), "s")
    put("ncsym.build_s", incl([SWEEP], "ncsym.p_basis", "ncsym.stochastic_integral_poly",
                              "ncsym.psi_poly"), "s")
    put("ncsym.expand_s", incl([SWEEP], "ncsym.expand_letters",
                               "ncsym.distinct_neighbor_bruteforce"), "s")
    put("ncsym.evaluate_s", incl([SWEEP], "ncsym.evaluate"), "s")
    put("measures.integrate_s", incl([SWEEP], "measures.integrate", "measures.integral"), "s")

    # cli: main and what it spends outside the campaigns it calls
    put("cli.main_s", incl([CP], "cli.main"), "s")
    put("cli.overhead_s", mean([CP], lambda spans: self_time(spans, {"cli.main"})), "s")
    put("cli.bytes_written",
        statistics.fmean(workloads[CP].bytes_written(r["outputs"]) for r in traced_rounds[CP]),
        "bytes")

    # the books: self time per layer over one round of every workload
    every = list(windows)
    for layer in LAYERS:
        put(f"{layer}.self_s", mean(every, lambda spans: self_time_by_layer(spans).get(layer, 0.0)),
            "s")
    walls = {w: statistics.fmean(r["wall"] for r in traced_rounds[w]) for w in every}
    put("trace.wall_s", sum(walls.values()), "s")
    put("trace.remainder_s", sum(
        statistics.fmean(r["wall"] - root_time(spans) for r, spans in zip(traced_rounds[w], windows[w]))
        for w in every), "s")
    unknown = {layer_of(s.name) for s in tracer.spans} - set(LAYERS)
    if unknown:
        raise ValueError(f"spans outside the known layers: {sorted(unknown)}")
    return out
