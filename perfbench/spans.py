"""Outside-in tracing of the clusterdilog layers.

The tracer wraps, from outside the package, every public function of
each module at every place it is bound (``qident`` imports ``multiply``,
``invert``, ``power`` and ``psi_series`` by name, and the package
re-exports most names), plus the arithmetic methods of the coefficient
and torus classes.  Each call records a span: name, start, end and the
index of the span that was open when it started.  A few wrapped calls
also run a counter hook before or after their span; the hook's time is
recorded against the enclosing span and taken out of it and of every
span above it, so span times hold program work only.  Spans stay in memory
until the pass ends; `Tracer.finish_pass` turns them into per-pass
aggregates (calls, self time, outermost total time, counters).

Layers are the modules.  The trivial predicates ``QCoefficient.is_zero``
and ``Poly.q_divisible`` are left unwrapped because they are called
hundreds of thousands of times per pass; their time counts as self time
of whichever span called them.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import json
import time

LAYERS = ("exchange", "ratfunc", "torus", "qident", "dilog", "phib",
          "saddle", "search", "fixtures", "cli")

# span names that the per-layer metrics cite by a short name
RENAMED = {
    "ratfunc.Poly.__mul__": "ratfunc.poly_mul",
    "ratfunc.QCoefficient.__add__": "ratfunc.qcoef_add",
    "ratfunc.QCoefficient.__mul__": "ratfunc.qcoef_mul",
    "qident.verify_tropical_identity": "qident.verify_tropical",
    "qident.verify_universal_identity": "qident.verify_universal",
    "qident.verify_dual_pair": "qident.verify_dual",
    "dilog.verify_classical_identity": "dilog.classical",
    "phib.phib": "phib",
}

METHODS = {
    "ratfunc": {
        "Poly": ("__mul__",),
        "QCoefficient": ("__add__", "__sub__", "__mul__", "__neg__",
                         "__truediv__", "__eq__", "mul_q_power",
                         "scale_int", "inverse", "canonical", "evaluate"),
        "RationalQ": ("__add__", "__sub__", "__mul__", "__neg__",
                      "__truediv__", "mul_q_power", "scale_int", "inverse"),
        "ExactField": ("psi_coefficient",),
        "RationalPointField": ("psi_coefficient",),
    },
    "torus": {
        "TorusElement": ("scale", "scale_q_power", "__neg__", "__eq__",
                         "is_zero", "constant_coefficient", "degree_floor",
                         "evaluate_commutative"),
    },
}


class Counters:
    """Counts gathered by the hooks of a few wrapped calls."""

    def __init__(self):
        self.reset()

    def reset(self):
        self.operand_bits = 0
        self.num_bits_max = 0
        self.pairs_attempted = 0
        self.pairs_kept = 0
        self.terms_out = 0


class Tracer:
    """Span recorder.  `install` wraps the package once; afterwards every
    call into a wrapped name records a span into the current pass."""

    def __init__(self):
        self.names = []          # span name table
        self.name_ids = {}
        self.span_name = []      # per span: name id
        self.span_parent = []    # per span: parent span index or -1
        self.span_start = []
        self.span_end = []
        self.span_hook = []      # per span: time of hooks run directly in it
        self.stack = [-1]
        self.counters = Counters()
        self.installed = False

    # ---- wrapping -----------------------------------------------------

    def _nid(self, name):
        nid = self.name_ids.get(name)
        if nid is None:
            nid = len(self.names)
            self.names.append(name)
            self.name_ids[name] = nid
        return nid

    def _wrap(self, name, fn, pre=None, post=None):
        nid = self._nid(RENAMED.get(name, name))
        sname, sparent = self.span_name, self.span_parent
        sstart, send, stack = self.span_start, self.span_end, self.stack
        shook = self.span_hook
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            if pre is not None:
                h0 = clock()
                pre(args)
                if parent >= 0:
                    shook[parent] += clock() - h0
            i = len(sname)
            sname.append(nid)
            sparent.append(parent)
            sstart.append(0.0)
            send.append(0.0)
            shook.append(0.0)
            stack.append(i)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                send[i] = clock()
                sstart[i] = t0
                stack.pop()
            if post is not None:
                h0 = clock()
                post(result)
                if parent >= 0:
                    shook[parent] += clock() - h0
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _hooks(self, name):
        c = self.counters
        if name == "ratfunc.Poly.__mul__":
            def pre(args):
                c.operand_bits += (args[0].val.bit_length()
                                   + args[1].val.bit_length())
            return pre, None
        if name in ("ratfunc.QCoefficient.__add__",
                    "ratfunc.QCoefficient.__mul__"):
            def post(result):
                bits = result.num.val.bit_length()
                if bits > c.num_bits_max:
                    c.num_bits_max = bits
            return None, post
        if name == "torus.multiply":
            def pre(args):
                a, b = args[0], args[1]
                N = a.order
                ha = [0] * (N + 1)
                hb = [0] * (N + 1)
                for d, v in a.terms.items():
                    if not v.is_zero():
                        ha[sum(d)] += 1
                for d, v in b.terms.items():
                    if not v.is_zero():
                        hb[sum(d)] += 1
                c.pairs_attempted += sum(ha) * len(b.terms)
                c.pairs_kept += sum(x * sum(hb[:N + 1 - i])
                                    for i, x in enumerate(ha) if x)

            def post(result):
                c.terms_out += len(result.terms)
            return pre, post
        return None, None

    def install(self):
        """Wrap the package in place.  Irreversible for this process."""
        if self.installed:
            return
        package = importlib.import_module("clusterdilog")
        mods = {layer: importlib.import_module(f"clusterdilog.{layer}")
                for layer in LAYERS}
        sites = [package, *mods.values()]
        for layer, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                name = f"{layer}.{attr}"
                wrapped = self._wrap(name, obj, *self._hooks(name))
                for site in sites:
                    for key, val in list(vars(site).items()):
                        if val is obj:
                            setattr(site, key, wrapped)
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    raw = inspect.getattr_static(cls, meth)
                    name = f"{layer}.{cls_name}.{meth}"
                    if isinstance(raw, staticmethod):
                        wrapped = staticmethod(
                            self._wrap(name, raw.__func__, *self._hooks(name)))
                    else:
                        wrapped = self._wrap(name, raw, *self._hooks(name))
                    setattr(cls, meth, wrapped)
        self.installed = True

    # ---- aggregation --------------------------------------------------

    def clear(self):
        for buf in (self.span_name, self.span_parent, self.span_start,
                    self.span_end, self.span_hook):
            del buf[:]
        self.counters.reset()

    def finish_pass(self) -> dict:
        """Aggregate the spans recorded since the last `clear`.

        For every span name: calls, total (outermost spans of that name
        only, so recursion is not counted twice) and self time (span
        minus its children), all without the time of the counter hooks.
        For every layer: self time and total time
        of spans with no enclosing span of the same layer.
        """
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        n = len(names)
        layer_of = [nm.split(".")[0] for nm in self.names]
        # hook time inside a span and its descendants (a parent always
        # precedes its children) is benchmark work: take it out
        hook = list(self.span_hook)
        for i in range(n - 1, -1, -1):
            if parents[i] >= 0:
                hook[parents[i]] += hook[i]
        dur = [ends[i] - starts[i] - hook[i] for i in range(n)]
        child = [0.0] * n
        # ancestor sets are interned: chain id -> (names, layers) above a span
        chain_ids = {}
        chain_names = [frozenset()]
        chain_layers = [frozenset()]
        anc = [0] * n
        calls, total, self_t = {}, {}, {}
        layer_self, layer_total = {}, {}
        poly_mul_id = self.name_ids.get("ratfunc.poly_mul")
        qcoef_add_id = self.name_ids.get("ratfunc.qcoef_add")
        lifted = 0
        for i in range(n):
            p = parents[i]
            nm = names[i]
            if p >= 0:
                child[p] += dur[i]
                key = (anc[p], names[p])
                cid = chain_ids.get(key)
                if cid is None:
                    cid = len(chain_names)
                    chain_ids[key] = cid
                    chain_names.append(chain_names[anc[p]] | {names[p]})
                    chain_layers.append(chain_layers[anc[p]]
                                        | {layer_of[names[p]]})
                anc[i] = cid
            calls[nm] = calls.get(nm, 0) + 1
            if nm not in chain_names[anc[i]]:
                total[nm] = total.get(nm, 0.0) + dur[i]
            lay = layer_of[nm]
            if lay not in chain_layers[anc[i]]:
                layer_total[lay] = layer_total.get(lay, 0.0) + dur[i]
            if nm == poly_mul_id and qcoef_add_id in chain_names[anc[i]]:
                lifted += 1
        for i in range(n):
            nm = names[i]
            s = dur[i] - child[i]
            self_t[nm] = self_t.get(nm, 0.0) + s
            lay = layer_of[nm]
            layer_self[lay] = layer_self.get(lay, 0.0) + s
        c = self.counters
        out = {"spans": n, "lifted_poly_mul": lifted,
               "operand_bits": c.operand_bits, "num_bits_max": c.num_bits_max,
               "pairs_attempted": c.pairs_attempted,
               "pairs_kept": c.pairs_kept, "terms_out": c.terms_out,
               "layer_self": layer_self, "layer_total": layer_total}
        out["calls"] = {self.names[k]: v for k, v in calls.items()}
        out["total"] = {self.names[k]: v for k, v in total.items()}
        out["self"] = {self.names[k]: v for k, v in self_t.items()}
        return out

    def write_spans(self, path):
        """Write the spans currently held (one pass) as gzipped JSON
        columns: name table, name id, parent index, start, end, and the
        time of hooks run directly inside the span (s)."""
        doc = {"names": self.names, "name": self.span_name,
               "parent": self.span_parent,
               "start": self.span_start, "end": self.span_end,
               "hook": self.span_hook}
        with gzip.open(path, "wt") as fh:
            json.dump(doc, fh)
