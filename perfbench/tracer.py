"""Span tracer for the apdim layers, installed from outside the package.

Each traced function is replaced by a wrapper in every loaded ``apdim``
module that holds it, because ``engine`` looks up ``ch.*``, ``planning.*``,
``wifi.*``, ``zf.*`` and its own globals at call time and ``channel`` imports
``crossing_counts`` by name. A target that the package no longer defines is
recorded as absent instead of failing the run.

A span's self time is its duration minus the time its child spans (on the
same thread) cover. Layer oracles run after a span closes; their time is
excluded from that span and from every enclosing one.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
from collections import defaultdict
from time import perf_counter_ns

import numpy as np

# Traced targets: (module, attribute path). The evaluators' methods are not
# reported; tracing them makes pool busy time cover a whole snapshot.
TARGETS = (
    ("geometry", "crossing_counts"),
    ("channel", "average_gains"),
    ("channel", "draw_fading"),
    ("channel", "draw_symmetric_fading"),
    ("channel", "delayed_csit"),
    ("engine", "drop_users"),
    ("engine", "associate"),
    ("engine", "select_served"),
    ("engine", "run_snapshots"),
    ("engine", "evaluate_deployment"),
    ("engine", "WifiSnapshotEvaluator.evaluate"),
    ("engine", "StaticSnapshotEvaluator.evaluate"),
    ("engine", "ZfSnapshotEvaluator.evaluate"),
    ("planning", "assign_channels"),
    ("planning", "search_k_star"),
    ("static_cellular", "static_rates"),
    ("wifi", "build_contention_graph"),
    ("wifi", "sample_ssi"),
    ("wifi", "wifi_rates"),
    ("zf", "build_beamformer"),
    ("zf", "allocate_power"),
    ("zf", "zf_rates_erroneous"),
    ("results", "write_result_csv"),
    ("results", "write_manifest"),
)

INVERSION_TOL = 1e-8  # ||H_hat W - I||, entrywise max, as zf.build_beamformer documents
LOAD_RTOL = 1e-6  # antenna load <= Pt (1 + 1e-6)
KKT_TOL = 1e-6  # stationarity residual of a converged PAPC solve


class _Shard:
    """One thread's open spans and totals; merged when the invocation ends."""

    def __init__(self):
        self.stack: list = []
        self.calls = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.total_ns = defaultdict(int)
        self.counters = defaultdict(float)
        self.newton_steps: list[int] = []
        self.graph = None  # last contention graph built on this thread


class Tracer:
    """Collects per-span call counts, self and inclusive times, and layer counters."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._main = threading.main_thread()
        self._shards: list[_Shard] = []
        self.absent: list[str] = []

    def shard(self) -> _Shard:
        shard = getattr(self._local, "shard", None)
        if shard is None:
            shard = self._local.shard = _Shard()
            with self._lock:
                self._shards.append(shard)
        return shard

    # -- spans -------------------------------------------------------------

    def wrap(self, name: str, fn, label=None, observe=None):
        """Wrap ``fn`` in a span named ``name`` (or ``label(arguments)``).

        ``observe(arguments, result, exc, shard)`` runs after the span closes
        and updates counters and check failures; its time is charged to no
        span. An observer that cannot run counts as a check failure.
        """
        sig = inspect.signature(fn)
        needs_args = label is not None or observe is not None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            arguments = None
            if needs_args:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                arguments = bound.arguments
            shard = self.shard()
            frame = [label(arguments) if label is not None else name, 0, 0]  # span, child, oracle
            shard.stack.append(frame)
            start = perf_counter_ns()
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                end = perf_counter_ns()
                shard.stack.pop()
                oracle_ns = 0
                if observe is not None:
                    try:
                        observe(arguments, result, exc, shard)
                    except Exception:  # noqa: BLE001 - a check that cannot run fails
                        shard.counters[f"{name}.check_failures"] += 1
                        shard.counters["trace.observer_errors"] += 1
                    oracle_ns = perf_counter_ns() - end
                self._close(shard, frame, end - start, oracle_ns)

        return wrapper

    def _close(self, shard: _Shard, frame: list, elapsed_ns: int, oracle_ns: int) -> None:
        span, child_ns, inner_oracle_ns = frame
        inclusive = elapsed_ns - inner_oracle_ns
        parent = shard.stack[-1] if shard.stack else None
        if parent is not None:
            parent[1] += elapsed_ns + oracle_ns
            parent[2] += inner_oracle_ns + oracle_ns
        shard.calls[span] += 1
        shard.self_ns[span] += elapsed_ns - child_ns
        shard.total_ns[span] += inclusive
        # Snapshot work: what run_snapshots runs serially, or a top-level span
        # on a pool worker thread.
        if (parent is not None and parent[0] == "engine.run_snapshots") or (
            parent is None and threading.current_thread() is not self._main
        ):
            shard.counters["pool.busy_ns"] += inclusive

    # -- installation --------------------------------------------------------

    def install(self, package) -> None:
        """Swap every target in the loaded ``package`` modules for its wrapper."""
        prefix = package.__name__
        hooks = _hooks(getattr(sys.modules.get(f"{prefix}.wifi"), "validate_active_set", None))
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == prefix or n.startswith(prefix + "."))
        ]
        for mod_name, path in TARGETS:
            name = f"{mod_name}.{path}"
            owner = sys.modules.get(f"{prefix}.{mod_name}")
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if not callable(original):
                self.absent.append(name)
                continue
            label, observe = hooks.get(name, (None, None))
            wrapped = self.wrap(name, original, label, observe)
            if outer:
                setattr(owner, attr, wrapped)
            else:
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapped)

    # -- report ----------------------------------------------------------------

    def report(self) -> dict:
        """Raw numbers of one invocation: spans, counters and absent targets."""
        calls, self_ns, total_ns, counters = (defaultdict(int) for _ in range(4))
        newton: list[int] = []
        maxima = {"zf.allocate_power.kkt_residual_max", "pool.capacity_threads"}
        for sh in self._shards:
            for k, v in sh.calls.items():
                calls[k] += v
                self_ns[k] += sh.self_ns[k]
                total_ns[k] += sh.total_ns[k]
            for k, v in sh.counters.items():
                counters[k] = max(counters[k], v) if k in maxima else counters[k] + v
            newton.extend(sh.newton_steps)
        return {
            "spans": {
                k: {"calls": calls[k], "self_s": self_ns[k] / 1e9, "total_s": total_ns[k] / 1e9}
                for k in calls
            },
            "counters": dict(counters),
            "newton_steps": newton,
            "absent": self.absent,
        }


def _hooks(validate_active_set) -> dict:
    """Span labels and observers (layer counters and oracles) per target."""

    def gains(a, result, exc, sh):
        if result is not None:
            sh.counters["channel.average_gains.pairs"] += int(np.asarray(result).size)

    def snapshots(a, result, exc, sh):
        sh.counters["pool.capacity_threads"] = max(sh.counters["pool.capacity_threads"], int(a["threads"]))

    def k_search(a, result, exc, sh):
        if result is not None:
            sh.counters["planning.k_evaluated"] += len(result.records)

    def contention(a, result, exc, sh):
        sh.graph = result

    def ssi(a, result, exc, sh):
        # Checked against the graph of the matching build_contention_graph
        # call, i.e. the last one on this thread.
        if result is None:
            return
        graph = sh.graph
        sh.counters["wifi.active"] += sum(len(x) for x in result.per_channel)
        sh.counters["wifi.participating"] += sum(len(m) for m in graph.members)
        try:
            validate_active_set(graph, result)
        except AssertionError:
            sh.counters["wifi.sample_ssi.check_failures"] += 1

    def beamformer(a, result, exc, sh):
        if exc is not None:
            sh.counters["zf.build_beamformer.singular"] += 1
            return
        h = np.asarray(a["h_hat"])
        if not np.abs(h @ result.w - np.eye(h.shape[0])).max() <= INVERSION_TOL:
            sh.counters["zf.build_beamformer.check_failures"] += 1

    def power(a, result, exc, sh):
        if result is None:
            return
        sh.newton_steps.append(int(result.newton_iterations))
        sh.counters["zf.allocate_power.converged"] += bool(result.converged)
        kkt = float(result.kkt_residual)
        c_max = sh.counters["zf.allocate_power.kkt_residual_max"]
        sh.counters["zf.allocate_power.kkt_residual_max"] = max(c_max, kkt)
        load = (np.abs(a["beamformer"].w) ** 2) @ np.asarray(result.p_mw)
        overloaded = not load.max() <= a["pt_mw"] * (1.0 + LOAD_RTOL)
        kkt_violated = bool(result.converged) and not kkt <= KKT_TOL
        if overloaded or kkt_violated:
            sh.counters["zf.allocate_power.check_failures"] += 1

    return {
        "channel.average_gains": (None, gains),
        "engine.run_snapshots": (None, snapshots),
        "engine.evaluate_deployment": (lambda a: f"engine.evaluate_deployment.{a['system']}", None),
        "planning.search_k_star": (None, k_search),
        "wifi.build_contention_graph": (None, contention),
        "wifi.sample_ssi": (None, ssi),
        "zf.build_beamformer": (None, beamformer),
        "zf.allocate_power": (None, power),
    }
