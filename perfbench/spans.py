"""Per-layer spans around randchain's public functions, from outside the program.

Each traced function is replaced by a wrapper at every binding of the
same object in every randchain module (``chain.count_below_many`` and
``tridiag.count_below_many`` are one layer), so internal calls through
a module global are seen as well.  A wrapper records its call, the
work count of its arguments and its self time: its duration minus the
time covered by traced calls made beneath it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

import numpy as np

# "module.function" -> (layer key, work count of the bound arguments or None)
TRACED = {
    "tridiag.count_below": ("tridiag.sturm", lambda a: a["t"].n),
    "tridiag.count_below_many": ("tridiag.sturm", lambda a: a["t"].n * int(np.size(a["xs"]))),
    "tridiag.eigenvalues": (
        "tridiag.eigenvalues", lambda a: a["t"].n if a["ranks"] is None else int(np.size(a["ranks"]))),
    "chain.realize": ("chain.realize", None),
    "chain.anderson_hopping": ("chain.anderson_hopping", None),
    "chain.frequency_matrix": ("chain.frequency_matrix", None),
    "chain.empirical_idos": ("chain.empirical_idos", None),
    "schmidt.node_count": ("schmidt.node_count", lambda a: int(np.size(a["masses"]))),
    "schmidt.mc_stationary": ("schmidt.mc_stationary", lambda a: a["n_samples"] + a["burn_in"]),
    "schmidt.omega_type2_mc": ("schmidt.omega_type2_mc", lambda a: a["n"] + a["burn_in"]),
    "schmidt.density_iteration": ("schmidt.density_iteration", lambda a: a["n_iter"]),
    "lyapunov.transfer_lyapunov": (
        "lyapunov.transfer_lyapunov",
        lambda a: a["n_blocks"] * (a["n_steps"] // a["n_blocks"] + a["burn_in"])),
    "lyapunov.band_edge_collapse": ("lyapunov.band_edge_collapse", None),
    "exact.idos_exact": ("exact.idos_exact", None),
    "exact.dos_exact": ("exact.dos_exact", None),
    "exact.omega_exact": ("exact.omega_exact", None),
    "specfun.whittaker_msq": ("specfun.whittaker_msq", None),
    "specfun.whittaker_density_mass": ("specfun.whittaker_density_mass", None),
    "specfun.scaling_f": ("specfun.scaling_f", None),
    "betaens.sample_matrix": ("betaens.sample_matrix", None),
    "betaens.squared_spectrum": ("betaens.squared_spectrum", None),
    "betaens.con_density": ("betaens.con_density", None),
    "betaens.con_cdf_grid": ("betaens.con_cdf_grid", None),
    "cli.run": ("cli.run", None),
    "cli.write_csv": ("cli.write_csv", lambda a: len(a["columns"][0])),
}


class LayerStats:
    __slots__ = ("calls", "work", "self_s", "errors")

    def __init__(self):
        self.calls = 0
        self.work = 0
        self.self_s = 0.0
        self.errors = 0


class Tracer:
    """Installs and removes the wrappers; accumulates per-layer statistics."""

    def __init__(self):
        self.stats: dict[str, LayerStats] = {}
        self._stack: list[float] = []  # time covered by traced children of each open span
        self._patches: list[tuple[object, str, object, object]] = []
        owners = {q.split(".")[0]: importlib.import_module(f"randchain.{q.split('.')[0]}") for q in TRACED}
        modules = [m for n, m in sys.modules.items() if n.startswith("randchain.")]
        for qual, (key, work) in TRACED.items():
            mod_name, fn_name = qual.split(".")
            original = getattr(owners[mod_name], fn_name)
            wrapper = self._wrap(original, key, work)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, attr, original, wrapper))
            self.stats.setdefault(key, LayerStats())

    def _wrap(self, fn, key, work):
        sig = inspect.signature(fn)
        stack = self._stack
        stats = self.stats

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            st = stats[key]
            st.calls += 1
            if work is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                st.work += work(bound.arguments)
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                st.errors += 1
                raise
            finally:
                dt = time.perf_counter() - t0
                st.self_s += dt - stack.pop()
                if stack:
                    stack[-1] += dt

        return traced

    def install(self) -> None:
        for mod, attr, _, wrapper in self._patches:
            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original, _ in self._patches:
            setattr(mod, attr, original)

    def snapshot(self) -> dict:
        return {k: {"calls": st.calls, "work": st.work, "self_s": st.self_s, "errors": st.errors}
                for k, st in self.stats.items()}


def _ratio(num: float, den: float, scale: float) -> float:
    return scale * num / den if den else 0.0


def layer_metrics(stats: dict, rounds: int, import_s: float, traced_wall_s: float, overhead_pct: float) -> dict:
    """Per-layer metrics per traced round, in the units BENCHMARK.json names.

    `traced_wall_s` is the mean wall time of a traced round, against which
    the self times are accounted; `overhead_pct` compares traced rounds
    with untraced ones.  A layer the workload does not exercise reads 0.
    """

    def g(key, field):
        return stats[key][field] / rounds

    m = {}

    def put(name, value, unit):
        m[name] = {"value": value, "unit": unit}

    st, eg = "tridiag.sturm", "tridiag.eigenvalues"
    put("tridiag.sturm.calls", g(st, "calls"), "count")
    put("tridiag.sturm.lane_sites", g(st, "work"), "count")
    put("tridiag.sturm.self_s", g(st, "self_s"), "s")
    put("tridiag.sturm.ns_per_lane_site", _ratio(g(st, "self_s"), g(st, "work"), 1e9), "ns")
    put("tridiag.eigenvalues.calls", g(eg, "calls"), "count")
    put("tridiag.eigenvalues.eigs", g(eg, "work"), "count")
    put("tridiag.eigenvalues.self_s", g(eg, "self_s"), "s")
    put("tridiag.eigenvalues.us_per_eig", _ratio(g(eg, "self_s"), g(eg, "work"), 1e6), "us")
    put("chain.realize.self_s", g("chain.realize", "self_s"), "s")
    put("chain.anderson_hopping.self_s", g("chain.anderson_hopping", "self_s"), "s")
    put("chain.frequency_matrix.self_s", g("chain.frequency_matrix", "self_s"), "s")
    put("chain.empirical_idos.calls", g("chain.empirical_idos", "calls"), "count")
    put("chain.empirical_idos.self_s", g("chain.empirical_idos", "self_s"), "s")
    nc, mc, o2, di = ("schmidt.node_count", "schmidt.mc_stationary", "schmidt.omega_type2_mc",
                      "schmidt.density_iteration")
    put("schmidt.node_count.masses", g(nc, "work"), "count")
    put("schmidt.node_count.ns_per_mass", _ratio(g(nc, "self_s"), g(nc, "work"), 1e9), "ns")
    put("schmidt.mc_stationary.steps", g(mc, "work"), "count")
    put("schmidt.mc_stationary.ns_per_step", _ratio(g(mc, "self_s"), g(mc, "work"), 1e9), "ns")
    put("schmidt.omega_type2_mc.ns_per_step", _ratio(g(o2, "self_s"), g(o2, "work"), 1e9), "ns")
    put("schmidt.density_iteration.ms_per_iter", _ratio(g(di, "self_s"), g(di, "work"), 1e3), "ms")
    tl = "lyapunov.transfer_lyapunov"
    put("lyapunov.transfer_lyapunov.calls", g(tl, "calls"), "count")
    put("lyapunov.transfer_lyapunov.lane_steps", g(tl, "work"), "count")
    put("lyapunov.transfer_lyapunov.self_s", g(tl, "self_s"), "s")
    put("lyapunov.transfer_lyapunov.ns_per_lane_step", _ratio(g(tl, "self_s"), g(tl, "work"), 1e9), "ns")
    put("lyapunov.band_edge_collapse.self_s", g("lyapunov.band_edge_collapse", "self_s"), "s")
    ie = "exact.idos_exact"
    put("exact.idos_exact.calls", g(ie, "calls"), "count")
    put("exact.idos_exact.errors", g(ie, "errors"), "count")
    put("exact.idos_exact.ms_per_point", _ratio(g(ie, "self_s"), g(ie, "calls"), 1e3), "ms")
    for key in ("exact.dos_exact", "exact.omega_exact"):
        put(f"{key}.ms_per_point", _ratio(g(key, "self_s"), g(key, "calls"), 1e3), "ms")
    wm = "specfun.whittaker_msq"
    put("specfun.whittaker_msq.calls", g(wm, "calls"), "count")
    put("specfun.whittaker_msq.ms_per_call", _ratio(g(wm, "self_s"), g(wm, "calls"), 1e3), "ms")
    put("specfun.whittaker_msq.self_s", g(wm, "self_s"), "s")
    put("specfun.whittaker_density_mass.self_s", g("specfun.whittaker_density_mass", "self_s"), "s")
    put("specfun.scaling_f.calls", g("specfun.scaling_f", "calls"), "count")
    put("betaens.sample_matrix.self_s", g("betaens.sample_matrix", "self_s"), "s")
    put("betaens.squared_spectrum.calls", g("betaens.squared_spectrum", "calls"), "count")
    put("betaens.squared_spectrum.self_s", g("betaens.squared_spectrum", "self_s"), "s")
    put("betaens.con_density.calls", g("betaens.con_density", "calls"), "count")
    put("betaens.con_cdf_grid.self_s", g("betaens.con_cdf_grid", "self_s"), "s")
    put("cli.run.calls", g("cli.run", "calls"), "count")
    put("cli.run.self_s", g("cli.run", "self_s"), "s")
    put("cli.write_csv.rows", g("cli.write_csv", "work"), "count")
    put("cli.write_csv.self_s", g("cli.write_csv", "self_s"), "s")
    put("import.randchain_s", import_s, "s")
    total_self = sum(v["self_s"] for v in stats.values()) / rounds
    put("trace.accounted_share", _ratio(total_self, traced_wall_s, 1.0), "ratio")
    put("trace.overhead_pct", overhead_pct, "%")
    return m
