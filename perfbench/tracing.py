"""Per-layer spans and counts, recorded from outside the package.

`Tracer.install` replaces every public function of each layer module, and
the public methods of its public classes, with a wrapper that records a
span: name, start, end, parent span and job id.  A function is replaced in
every module that binds it, because each module calls what it imported
under its own name (`division.certificate_for_exponent`, `series.is_in_zp`,
the deferred `verify.verify_plan` in `build_plan` ...).  The arithmetic
dunders of `TruncatedSeries` are replaced on the class.  `uninstall` puts
every original back; the untraced run never installs anything.

Spans are kept in compact arrays and written out when the traced pass
ends.  Self time is a span's duration minus the time its child spans cover.
Counts are taken at the same boundaries; bookkeeping done after a call
returns runs in a span of its own (`perfbench.hook`), so no layer is
charged for it.
"""

from __future__ import annotations

import functools
import inspect
import time
from array import array
from collections import Counter, defaultdict

LAYERS = ("valgroup", "series", "fields", "tate", "builder", "division", "verify", "cli")
HOOK = "perfbench.hook"

#: TruncatedSeries dunders that are part of the series layer's work.
SERIES_DUNDERS = ("__init__", "__add__", "__neg__", "__sub__", "__mul__", "__pow__", "__eq__")

# metric group -> (span names whose self time it sums, span name it counts calls of)
_S = "series.TruncatedSeries."
GROUPS = {
    "series.mul": ([_S + "__mul__", _S + "__pow__"], _S + "__mul__"),
    "series.add": ([_S + "__add__", _S + "__sub__", _S + "__neg__"], _S + "__add__"),
    "series.frobenius": ([_S + "frobenius"], _S + "frobenius"),
    "series.invert": ([_S + "invert"], _S + "invert"),
    "series.construct": ([_S + "__init__", _S + "zero", _S + "monomial", _S + "one"],
                         _S + "__init__"),
    "series.text": (["series.render_series", "series.parse_series"], None),
    "tate.apply": (["tate.SubstitutionMap.apply"], "tate.SubstitutionMap.apply"),
    "builder.build_plan": (["builder.build_plan"], "builder.build_plan"),
    "builder.adapted": (["builder.build_adapted", "builder.certificate_for_exponent",
                         "builder.ensure_stage"], "builder.build_adapted"),
    "builder.witness": (["builder.kernel_witness", "builder.plan_summary"], None),
    "builder.serialize": (["builder.plan_to_doc", "builder.certificate_to_doc",
                           "builder.dump_doc"], None),
    "division.run": (["division.run_division"], None),
    "division.serialize": (["division.trace_to_doc"], None),
    "verify.plan": (["verify.verify_plan"], "verify.verify_plan"),
    "verify.certificate": (["verify.verify_certificate"], "verify.verify_certificate"),
    "verify.trace": (["verify.verify_trace"], "verify.verify_trace"),
}
TOP_VERIFY = {"verify.verify_plan", "verify.verify_certificate", "verify.verify_trace",
              "verify.verify_document"}

class Tracer:
    def __init__(self, modules: dict):
        self.modules = modules  # short name -> module, every module of the package
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.job_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.job = -1
        self.counts = Counter()
        self.peaks = Counter()
        self._certs_seen = {}
        self._patches = []

    # -- spans --------------------------------------------------------------

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, name, fn, before=None, after=None):
        nid = self._id(name)
        hook_id = self._id(HOOK)
        names, parents, jobs, starts, ends = self.name, self.parent, self.job_of, self.start, self.end
        stack, clock = self.stack, time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            jobs.append(tracer.job)
            ends.append(0.0)
            state = before(args) if before else None
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if after:
                h = len(names)
                names.append(hook_id)
                parents.append(stack[-1])
                jobs.append(tracer.job)
                starts.append(clock())
                ends.append(0.0)
                after(args, result, state, idx)
                ends[h] = clock()
            return result

        wrapper.__perfbench_original__ = fn
        return wrapper

    # -- counts at layer boundaries -------------------------------------------

    def _hooks(self, name):
        counts, peaks = self.counts, self.peaks
        if name == _S + "__mul__":
            def before(args):
                if hasattr(args[1], "terms"):
                    counts["series.mul.term_pairs"] += len(args[0].terms) * len(args[1].terms)
            return before, None
        if name == _S + "__init__":
            def after(args, result, state, idx):
                terms = args[0].terms
                peaks["series.peak_terms"] = max(peaks["series.peak_terms"], len(terms))
                bits = max((e.denominator.bit_length() for exps in terms for e in exps),
                           default=0)
                peaks["series.peak_den_bits"] = max(peaks["series.peak_den_bits"], bits)
            return None, after
        if name == "series.render_series":
            def after(args, result, state, idx):
                counts["series.text.bytes"] += len(result.encode())
            return None, after
        if name == "series.parse_series":
            def before(args):
                counts["series.text.bytes"] += len(args[1].encode())
            return before, None
        if name == "tate.SubstitutionMap.apply":
            def before(args):
                counts["tate.apply.terms_in"] += len(args[1].terms)
            return before, None
        if name == "builder.build_adapted":
            def after(args, result, state, idx):
                key = id(result)
                if key in self._certs_seen:
                    counts["builder.adapted.hits"] += 1
                self._certs_seen[key] = result  # a live reference keeps the id unique
            return None, after
        if name == "builder.ensure_stage":
            def before(args):
                return len(args[0].stages)

            def after(args, result, state, idx):
                counts["builder.stages_appended"] += len(args[0].stages) - state
            return before, after
        if name == "division.run_division":
            def after(args, result, state, idx):
                counts["division.steps"] += len(result.steps)
                counts["division.band_terms"] += sum(len(s.band.terms) for s in result.steps)
            return None, after
        if name in TOP_VERIFY:
            def after(args, result, state, idx):
                up = self.parent[idx]
                while up >= 0:
                    if self.names[self.name[up]] in TOP_VERIFY:
                        return
                    up = self.parent[up]
                counts["verify.checks"] += len(result.findings)
            return None, after
        return None, None

    # -- install / uninstall --------------------------------------------------

    def _targets(self):
        """(owner, attribute, span name) for every function to wrap."""
        found = []
        for layer in LAYERS:
            mod = self.modules[layer]
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    found.append((None, obj, f"{layer}.{attr}"))
                elif inspect.isclass(obj):
                    for meth, member in vars(obj).items():
                        dunder = meth in SERIES_DUNDERS and attr == "TruncatedSeries"
                        dunder |= meth == "__init__" and attr == "SubstitutionMap"
                        if meth.startswith("_") and not dunder:
                            continue
                        if inspect.isfunction(member) or isinstance(member, classmethod):
                            found.append((obj, meth, f"{layer}.{attr}.{meth}"))
        return found

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for owner, member, name in self._targets():
            if owner is None:
                wrappers[id(member)] = (member, self._wrap(name, member, *self._hooks(name)))
                continue
            raw = vars(owner)[member]
            if isinstance(raw, classmethod):
                new = classmethod(self._wrap(name, raw.__func__, *self._hooks(name)))
            else:
                new = self._wrap(name, raw, *self._hooks(name))
            self._patches.append((owner, member, raw))
            setattr(owner, member, new)
        for mod in self.modules.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[id(obj)][1])

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    @staticmethod
    def installed_anywhere(modules: dict) -> bool:
        """True if any wrapper of this module is bound in the package."""
        for mod in modules.values():
            for obj in vars(mod).values():
                if hasattr(obj, "__perfbench_original__"):
                    return True
                if inspect.isclass(obj):
                    for member in vars(obj).values():
                        member = getattr(member, "__func__", member)
                        if hasattr(member, "__perfbench_original__"):
                            return True
        return False

    # -- results ----------------------------------------------------------------

    def exact_counts(self) -> dict:
        """Every count that must repeat for the same jobs: calls per span
        name, term pairs, bytes, band terms, stages appended, checks, peaks."""
        calls = Counter(self.names[i] for i in self.name)
        out = {f"calls.{k}": v for k, v in calls.items() if k != HOOK}
        out.update(self.counts)
        out.update(self.peaks)
        return out

    def self_times(self):
        """(self seconds, inclusive seconds) per span name."""
        n = len(self.name)
        child = [0.0] * n
        start, end, parent = self.start, self.end, self.parent
        for i in range(n):
            up = parent[i]
            if up >= 0:
                child[up] += end[i] - start[i]
        own, incl = defaultdict(float), defaultdict(float)
        in_build = 0.0
        build = self._ids.get("builder.build_plan", -2)
        verify_plan = self._ids.get("verify.verify_plan", -2)
        for i in range(n):
            name = self.name[i]
            dur = end[i] - start[i]
            own[self.names[name]] += dur - child[i]
            incl[self.names[name]] += dur
            if name == verify_plan and parent[i] >= 0 and self.name[parent[i]] == build:
                in_build += dur - child[i]
        return own, incl, in_build

    def metrics(self, jobs: int, trace_bytes: int) -> dict:
        own, incl, in_build = self.self_times()
        calls = Counter(self.names[i] for i in self.name)
        counts, peaks = self.counts, self.peaks
        per = 1.0 / jobs
        out = {}

        def layer_sum(table, layer):
            return sum(v for k, v in table.items() if k.split(".", 1)[0] == layer)

        for layer in ("valgroup", "fields", "cli"):
            count_name = "commands_per_job" if layer == "cli" else "calls_per_job"
            value = calls["cli.main"] if layer == "cli" else layer_sum(calls, layer)
            out[f"{layer}.{count_name}"] = value * per
            out[f"{layer}.self_ms_per_job"] = layer_sum(own, layer) * 1e3 * per
        for layer in ("series", "tate", "builder", "division", "verify"):
            out[f"{layer}.self_ms_per_job"] = layer_sum(own, layer) * 1e3 * per
        for group, (members, counted) in GROUPS.items():
            out[f"{group}.self_ms_per_job"] = sum(own[m] for m in members) * 1e3 * per
            if counted:
                out[f"{group}.calls_per_job"] = calls[counted] * per
        adapted = calls["builder.build_adapted"]
        steps = counts["division.steps"]
        out.update({
            "series.mul.term_pairs_per_job": counts["series.mul.term_pairs"] * per,
            "series.text.bytes_per_job": counts["series.text.bytes"] * per,
            "series.peak_terms": peaks["series.peak_terms"],
            "series.peak_den_bits": peaks["series.peak_den_bits"],
            "tate.apply.terms_in_per_job": counts["tate.apply.terms_in"] * per,
            "tate.submap.built_per_job": calls["tate.SubstitutionMap.__init__"] * per,
            "builder.adapted.cache_hit_ratio":
                counts["builder.adapted.hits"] / adapted if adapted else 0.0,
            "builder.stages_appended_per_job": counts["builder.stages_appended"] * per,
            "division.ms_per_step":
                incl["division.run_division"] * 1e3 / steps if steps else 0.0,
            "division.steps_per_job": steps * per,
            "division.band_terms_per_job": counts["division.band_terms"] * per,
            "division.trace_bytes_per_job": trace_bytes * per,
            "verify.plan.in_build.self_ms_per_job": in_build * 1e3 * per,
            "verify.checks_per_job": counts["verify.checks"] * per,
            "trace.spans_per_job": sum(v for k, v in calls.items() if k != HOOK) * per,
        })
        return out

    def write(self, directory):
        """The spans as raw arrays, one file per field, plus the names.

        Span i has name names[name[i]], parent span parent[i] (-1 for a
        root), job job[i], and perf_counter start[i] and end[i] in seconds.
        """
        directory.mkdir(parents=True, exist_ok=True)
        (directory / "names.txt").write_text("\n".join(self.names) + "\n")
        for field, data in (("name.i32", self.name), ("parent.i32", self.parent),
                            ("job.i32", self.job_of), ("start.f64", self.start),
                            ("end.f64", self.end)):
            with open(directory / field, "wb") as fh:
                data.tofile(fh)
