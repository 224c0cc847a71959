"""Spans around coisocap's public functions, recorded from outside.

``install`` replaces each public function listed in ``LAYERS`` by a wrapper,
in its home module and in every coisocap module that imported it by name,
so nested library calls become child spans.  A span is (name, parent,
operation id, cold flag, start ns, end ns), kept in one flat in-memory
array and written out when the process ends.  Self time is a span's
duration minus the durations of its direct children.
"""
from __future__ import annotations

import json
import math
import sys
import time
from array import array

# layer (= coisocap module) -> traced public functions
LAYERS = {
    "cli": ("build_parser", "run"),
    "expr": ("parse_product", "parse_area", "format_product"),
    "spectra": ("product_spectrum", "minimal_action", "split_min_action", "spectrum_sum",
                "spectrum_of_atom", "assumption_notes"),
    "bounds": ("energy_bounds", "capacity_bounds", "squeeze_bounds", "width_energy_bound"),
    "kfun": ("keq", "kk", "big_k", "big_k_table", "keq_naive", "kk_naive",
             "square_cost_naive", "four_square", "sqrt_bound_witness"),
    "verify": ("run_suite",),
}
# Calls whose search result is cached on a key; the first call per key is cold.
KEYED = ("keq", "kk", "big_k")
FIELDS = ("name", "parent", "op", "cold", "start_ns", "end_ns")
WIDTH = len(FIELDS)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.buf = array("q")
        self.stack = [-1]
        self.op = [0]
        self.seen: set = set()
        self.originals: dict = {}

    def begin_op(self, op_id: int) -> None:
        """Start an operation; a deadline that interrupted the previous one
        may have left the stack unbalanced."""
        self.op[0] = op_id
        del self.stack[1:]

    def wrap(self, qualname: str, fn):
        nid = len(self.names)
        self.names.append(qualname)
        short = qualname.split(".", 1)[1]
        keyed = short in KEYED
        buf, stack, op, seen, clock = self.buf, self.stack, self.op, self.seen, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            cold = -1
            if keyed:
                try:
                    key = (short, args[0], math.floor(args[1]) if len(args) > 1 else None)
                    cold = key not in seen
                    seen.add(key)
                except (TypeError, IndexError, ValueError):
                    pass
            # One extend per span keeps the record whole if a signal handler
            # raises between two statements here.
            buf.extend((nid, stack[-1], op[0], cold, clock(), 0))
            base = len(buf) - WIDTH
            stack.append(base)
            try:
                return fn(*args, **kwargs)
            finally:
                buf[base + 5] = clock()
                stack.pop()

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", short)
        return wrapper

    def dump(self, path) -> None:
        """Write every span: one JSON header line, then the raw int64 array."""
        header = {"names": self.names, "fields": FIELDS, "count": len(self.buf) // WIDTH}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            fh.write(self.buf.tobytes())


def install() -> Tracer:
    """Import coisocap and wrap its public functions; returns the tracer."""
    import coisocap.cli  # noqa: F401  (imports every layer)

    tracer = Tracer()
    modules = [m for name, m in sys.modules.items()
               if name == "coisocap" or name.startswith("coisocap.")]
    for layer, names in LAYERS.items():
        home = sys.modules[f"coisocap.{layer}"]
        for name in names:
            orig = getattr(home, name)
            wrapped = tracer.wrap(f"{layer}.{name}", orig)
            tracer.originals[f"{layer}.{name}"] = orig
            for mod in modules:
                if getattr(mod, name, None) is orig:
                    setattr(mod, name, wrapped)
    return tracer


def summarize(tracer: Tracer) -> dict:
    """Per-layer self time, call counts and the latency series the
    benchmark reports, from the spans recorded so far."""
    buf = tracer.buf
    names = tracer.names
    layer_of = [n.split(".", 1)[0] for n in names]
    nid, par, ops, cold = buf[0::WIDTH], buf[1::WIDTH], buf[2::WIDTH], buf[3::WIDTH]
    start, end = buf[4::WIDTH], buf[5::WIDTH]
    count = len(nid)
    # A span a deadline cut before its end was stored reads 0: drop it.
    dur = [e - s if e else 0 for s, e in zip(start, end)]
    child = [0] * count
    for i in range(count):
        p = par[i]
        if p >= 0:
            child[p // WIDTH] += dur[i]

    layer_self: dict[str, int] = {}
    counts: dict[str, int] = {}
    total_ns: dict[str, int] = {}
    cli_self_by_op: dict[int, int] = {}
    series: dict[str, list[float]] = {k: [] for k in (
        "cli.build_parser", "cli.self", "expr.parse_product", "spectra.call", "bounds.self",
        "kfun.keq_cold", "kfun.kk_cold", "kfun.big_k")}
    kfun_top_ns = 0
    for i in range(count):
        name = names[nid[i]]
        layer = layer_of[nid[i]]
        d = dur[i]
        self_ns = d - child[i]
        layer_self[layer] = layer_self.get(layer, 0) + self_ns
        counts[name] = counts.get(name, 0) + 1
        total_ns[name] = total_ns.get(name, 0) + d
        p = par[i]
        parent_layer = layer_of[nid[p // WIDTH]] if p >= 0 else None
        if layer == "cli":
            cli_self_by_op[ops[i]] = cli_self_by_op.get(ops[i], 0) + self_ns
            if name == "cli.build_parser":
                series["cli.build_parser"].append(d / 1e3)
        elif name == "expr.parse_product":
            series["expr.parse_product"].append(d / 1e3)
        elif layer == "spectra" and parent_layer != "spectra":
            series["spectra.call"].append(d / 1e3)
        elif layer == "bounds":
            series["bounds.self"].append(self_ns / 1e3)
        elif layer == "kfun":
            if parent_layer != "kfun":
                kfun_top_ns += d
            if name == "kfun.big_k":
                series["kfun.big_k"].append(d / 1e3)
            elif cold[i] == 1 and name in ("kfun.keq", "kfun.kk"):
                series[name + "_cold"].append(d / 1e3)
    series["cli.self"] = [v / 1e3 for v in cli_self_by_op.values()]
    keyed = sum(counts.get(f"kfun.{k}", 0) for k in KEYED)
    misses = tracer.originals["kfun.big_k_table"].cache_info().misses
    return {
        "layer_self_ns": layer_self,
        "counts": counts,
        "total_ns": total_ns,
        "series_us": series,
        "kfun_calls": keyed,
        "kfun_distinct": len(tracer.seen),
        "kfun_top_ns": kfun_top_ns,
        "big_k_table_misses": misses,
    }
