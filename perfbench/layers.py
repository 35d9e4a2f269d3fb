"""Where the tracer wraps nlbox, and how spans become per-layer metrics.

Each site is (module, attribute, span name, hook).  The module is the
one whose namespace the caller looks the name up in, so a function
imported with ``from .x import f`` is wrapped in the importer too.
"""

from __future__ import annotations

import importlib

# --- hooks: read work counts off arguments and results ---


def _add(key: str, fn):
    def hook(counters, args, kwargs, result):
        counters[key] += fn(args, result)
    return hook


def _leaves(p):
    return [c for _w, c in p.components] if hasattr(p, "components") else [p]


def _lp(counters, args, kwargs, result):
    counters["epsrank.lp_columns"] += len(args[0])
    counters["epsrank.lp_feasible"] += result[0] == 0


_bytes_in = _add("serialize.bytes", lambda a, r: len(a[0]))
_bytes_out = _add("serialize.bytes", lambda a, r: len(r))
_matrices = _add("gf2.rank_batch_matrices", lambda a, r: len(a[0]))
_branches = _add("engine.branches",
                 lambda a, r: 0 if hasattr(a[0], "components") else 1 << a[0].t)
_ns_branches = _add("engine.audit_branches", lambda a, r: 2 * (1 << a[0].nx) * (1 << a[0].ny)
                    * sum(1 << c.t for c in _leaves(a[0])))
_ot_branches = _add("engine.audit_branches",
                    lambda a, r: (1 << a[0].nx) * (1 << a[0].ny) * len(a[0].r_weights))
_boxes = _add("compilers.boxes_out", lambda a, r: r.t)
_trials = _add("correlations.trials", lambda a, r: a[1])

LIBRARY = ("ip_protocol", "disj_det_protocol", "disj_rand_parallel", "vandam_protocol",
           "chsh_box_protocol", "chsh_classical_optimum")

SITES = [
    ("cli", "dispatch", "cli.dispatch", None),
    ("cli", "parse_protocol", "serialize.parse", _bytes_in),
    ("cli", "serialize_protocol", "serialize.emit", _bytes_out),
    ("engine", "validate", "protocols.validate", None),
    ("compilers", "validate", "protocols.validate", None),
    ("truthtable", "parse_truth_table", "truthtable.parse", None),
    ("gf2", "rank_batch_masks", "gf2.rank_batch", _matrices),
    ("gf2", "gf2_rank", "gf2.rank", None),
    ("gf2", "gf2_factorize", "gf2.factorize", None),
    ("gf2", "fourier_l1", "gf2.spectrum", None),
    ("epsrank", "enumerate_ranks", "epsrank.enumerate", None),
    ("epsrank", "eps_rank", "epsrank.query", None),
    ("epsrank", "solve_phase1", "epsrank.lp", _lp),
    ("epsrank", "verify_witness", "epsrank.verify", None),
    ("engine", "exec_exact", "engine.exact", _branches),
    ("engine", "error_profile", "engine.error_profile", None),
    ("engine", "nonsignaling_audit", "engine.audit", _ns_branches),
    ("engine", "privacy_audit_ot", "engine.audit", _ot_branches),
    ("engine", "privacy_audit_and", "engine.audit", None),
    ("compilers", "privacy_audit_and", "engine.audit", None),
    ("engine", "exec_sample", "engine.sample", None),
    ("engine", "derive_seed", "engine.derive_seed", None),
    ("correlations", "derive_seed", "engine.derive_seed", None),
    ("compilers", "synth_rank", "compilers.synth", _boxes),
    ("correlations", "synth_rank", "compilers.synth", _boxes),
    ("compilers", "synth_vandam", "compilers.synth", _boxes),
    ("library", "synth_vandam", "compilers.synth", _boxes),
    ("compilers", "circuit_to_nlb", "compilers.circuit", _boxes),
    ("library", "circuit_to_nlb", "compilers.circuit", _boxes),
    ("compilers", "ordered_to_ot", "compilers.ot", _boxes),
    ("compilers", "xor_normalize_general", "compilers.normalize", _boxes),
    ("compilers", "xor_normalize_parallel", "compilers.normalize", _boxes),
    ("correlations", "rt_trials", "correlations.rt", _trials),
] + [("library", name, "library.build", None) for name in LIBRARY]


def install(tracer) -> None:
    for module, attr, span, hook in SITES:
        tracer.wrap(importlib.import_module(f"nlbox.{module}"), attr, span, hook)


# --- metrics ---
# ctx holds the span summaries ("jobs", "setup") and the hook counts
# ("counts", "setup_counts") of one traced run.


def _incl(*names, phase="jobs"):
    return lambda ctx: sum(ctx[phase].get(n, {}).get("incl_s", 0.0) for n in names)


def _self(name):
    return lambda ctx: ctx["jobs"].get(name, {}).get("self_s", 0.0)


def _calls(name):
    return lambda ctx: ctx["jobs"].get(name, {}).get("calls", 0)


def _count(key, phase="counts"):
    return lambda ctx: ctx[phase].get(key, 0.0)


def _feasible_ratio(ctx):
    solves = ctx["jobs"].get("epsrank.lp", {}).get("calls", 0)
    return ctx["counts"].get("epsrank.lp_feasible", 0.0) / solves if solves else 0.0


S, N = "s", "count"

# (name, unit, better, value).  Figures are totals over the traced phase,
# one run of every distinct job; the gf2.rank_batch_* figures are for one
# set-up.
METRICS = [
    ("cli.self_s", S, "lower", _self("cli.dispatch")),
    ("serialize.parse_s", S, "lower", _incl("serialize.parse")),
    ("serialize.emit_s", S, "lower", _incl("serialize.emit")),
    ("serialize.bytes", "bytes", "lower", _count("serialize.bytes")),
    ("protocols.validate_s", S, "lower", _incl("protocols.validate")),
    ("truthtable.parse_s", S, "lower", _incl("truthtable.parse")),
    ("gf2.rank_batch_s", S, "lower", _incl("gf2.rank_batch", phase="setup")),
    ("gf2.rank_batch_matrices", N, "lower",
     _count("gf2.rank_batch_matrices", phase="setup_counts")),
    ("gf2.rank_s", S, "lower", _incl("gf2.rank")),
    ("gf2.rank_calls", N, "lower", _calls("gf2.rank")),
    ("gf2.factorize_s", S, "lower", _incl("gf2.factorize")),
    ("gf2.factorize_calls", N, "lower", _calls("gf2.factorize")),
    ("gf2.spectrum_s", S, "lower", _incl("gf2.spectrum")),
    ("epsrank.query_s", S, "lower", _incl("epsrank.query")),
    ("epsrank.queries", N, "lower", _calls("epsrank.query")),
    ("epsrank.lp_solves", N, "lower", _calls("epsrank.lp")),
    ("epsrank.lp_s", S, "lower", _incl("epsrank.lp")),
    ("epsrank.lp_columns", N, "lower", _count("epsrank.lp_columns")),
    ("epsrank.lp_feasible_ratio", "ratio", "higher", _feasible_ratio),
    ("epsrank.self_s", S, "lower", _self("epsrank.query")),
    ("epsrank.verify_s", S, "lower", _incl("epsrank.verify")),
    ("engine.exact_s", S, "lower", _incl("engine.exact")),
    ("engine.exact_calls", N, "lower", _calls("engine.exact")),
    ("engine.branches", N, "lower", _count("engine.branches")),
    ("engine.audit_s", S, "lower", _incl("engine.audit")),
    ("engine.audit_branches", N, "lower", _count("engine.audit_branches")),
    ("engine.error_profile_s", S, "lower", _incl("engine.error_profile")),
    ("engine.sample_s", S, "lower", _incl("engine.sample")),
    ("engine.samples", N, "lower", _calls("engine.sample")),
    ("engine.derive_seed_s", S, "lower", _incl("engine.derive_seed")),
    ("compilers.synth_s", S, "lower", _incl("compilers.synth")),
    ("compilers.circuit_s", S, "lower", _incl("compilers.circuit")),
    ("compilers.ot_s", S, "lower", _incl("compilers.ot")),
    ("compilers.normalize_s", S, "lower", _incl("compilers.normalize")),
    ("compilers.boxes_out", N, "lower", _count("compilers.boxes_out")),
    ("library.build_s", S, "lower", _incl("library.build")),
    ("correlations.rt_s", S, "lower", _incl("correlations.rt")),
    ("correlations.trials", N, "lower", _count("correlations.trials")),
]
LAYERS = ("cli", "serialize", "protocols", "truthtable", "gf2", "epsrank", "engine",
          "compilers", "library", "correlations")
METRICS += [(f"{layer}.errors", N, "lower", _count(f"{layer}.errors"))
            for layer in LAYERS]

# Work counts that must repeat exactly for the same seed.
WORK_COUNTS = ("gf2.rank_batch_matrices", "gf2.rank_calls", "gf2.factorize_calls",
               "epsrank.queries", "epsrank.lp_solves", "epsrank.lp_columns",
               "engine.exact_calls", "engine.branches", "engine.audit_branches",
               "engine.samples", "compilers.boxes_out", "correlations.trials",
               "serialize.bytes")


def layer_metrics(ctx: dict) -> dict[str, float]:
    return {name: fn(ctx) for name, _unit, _better, fn in METRICS}
