"""Span tracer that wraps frobjet's layer functions at run time.

Nothing in ``src/`` knows about it.  :meth:`Tracer.install` replaces each
function in :data:`LAYERS` by a recorder: module-level functions are rebound
in every module that holds them (``from ... import`` copies the binding), and
methods are rebound on their class under every name that refers to them
(``TowerElement.__rmul__`` is ``__mul__``).  :meth:`Tracer.remove` puts the
originals back.

Each call becomes a span (id, parent id, layer, start, end).  Self time is a
span's duration minus the durations of its direct children; it is summed
per layer as the spans close, over all calls.  The first SPAN_LIMIT spans
are also kept in memory and written out as JSON by :meth:`dump`.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import time

# metric prefix -> (module, function or Class.method)
LAYERS = {
    "crystal.kedlaya_frobenius": ("frobjet.crystal", "kedlaya_frobenius"),
    "crystal.count_points_ap": ("frobjet.crystal", "count_points_ap"),
    "crystal.crystalline_classes": ("frobjet.crystal", "crystalline_classes"),
    "polyutils.ser_mul": ("frobjet.polyutils", "ser_mul"),
    "polyutils.ser_inv": ("frobjet.polyutils", "ser_inv"),
    "polyutils.pdivmod_monic": ("frobjet.polyutils", "pdivmod_monic"),
    "polyutils.hensel_lift_factor": ("frobjet.polyutils",
                                     "hensel_lift_factor"),
    "polyutils.modinv": ("frobjet.polyutils", "modinv"),
    "formal.formal_log": ("frobjet.formal", "formal_log"),
    "formal.curve_w_series": ("frobjet.formal", "curve_w_series"),
    "formal.formal_group_law": ("frobjet.formal", "formal_group_law"),
    "formal.compose_log_with_law": ("frobjet.formal", "compose_log_with_law"),
    "formal.psi_series": ("frobjet.formal", "psi_series"),
    "jets.phi_endomorphism": ("frobjet.jets", "phi_endomorphism"),
    "jets.mul": ("frobjet.jets", "JetElement.__mul__"),
    "characters.asd_check": ("frobjet.characters", "asd_check"),
    "characters.gm_character_eval": ("frobjet.characters",
                                     "gm_character_eval"),
    "characters.pairing": ("frobjet.characters", "pairing"),
    "characters.kernel_dimension": ("frobjet.characters", "kernel_dimension"),
    "characters.reciprocity_check": ("frobjet.characters",
                                     "reciprocity_check"),
    "tower.mul": ("frobjet.tower", "TowerElement.__mul__"),
    "tower.pow": ("frobjet.tower", "TowerElement.__pow__"),
    "tower.inverse": ("frobjet.tower", "TowerElement.inverse"),
    "tower.valuation": ("frobjet.tower", "valuation"),
    "tower.apply_automorphism": ("frobjet.tower", "apply_automorphism"),
    "tower.build_tower": ("frobjet.tower", "build_tower"),
    "linalg.padic_nullspace": ("frobjet.linalg", "padic_nullspace"),
    "symbols.gamma_matrix": ("frobjet.symbols", "gamma_matrix"),
    "symbols.pmatrix_rank_minors": ("frobjet.symbols", "pmatrix_rank_minors"),
    "sertate.st_mul": ("frobjet.sertate", "STSeries.__mul__"),
    "sertate.psi_series_form": ("frobjet.sertate", "psi_series_form"),
    "sertate.serre_operator": ("frobjet.sertate", "serre_operator"),
    "sertate.verify_identity": ("frobjet.sertate", "verify_identity"),
}

# the per-layer metrics BENCHMARK.json lists, in its order
METRICS = (
    "crystal.kedlaya_frobenius.calls", "crystal.kedlaya_frobenius.self_s",
    "crystal.count_points_ap.self_s", "crystal.crystalline_classes.self_s",
    "polyutils.ser_mul.calls", "polyutils.ser_mul.self_s",
    "polyutils.ser_mul.terms",
    "polyutils.ser_inv.calls", "polyutils.ser_inv.self_s",
    "polyutils.pdivmod_monic.calls", "polyutils.pdivmod_monic.self_s",
    "polyutils.hensel_lift_factor.self_s", "polyutils.modinv.calls",
    "formal.formal_log.self_s", "formal.curve_w_series.self_s",
    "formal.formal_group_law.self_s", "formal.compose_log_with_law.self_s",
    "formal.psi_series.self_s",
    "jets.phi_endomorphism.calls", "jets.phi_endomorphism.self_s",
    "jets.mul.calls", "jets.mul.self_s",
    "characters.asd_check.self_s",
    "characters.gm_character_eval.calls",
    "characters.gm_character_eval.self_s",
    "characters.pairing.calls", "characters.pairing.self_s",
    "characters.kernel_dimension.self_s",
    "characters.reciprocity_check.self_s",
    "tower.mul.calls", "tower.mul.self_s",
    "tower.pow.calls", "tower.pow.self_s",
    "tower.inverse.calls", "tower.inverse.self_s",
    "tower.valuation.calls", "tower.valuation.self_s",
    "tower.apply_automorphism.calls", "tower.apply_automorphism.self_s",
    "tower.build_tower.self_s",
    "linalg.padic_nullspace.self_s",
    "symbols.gamma_matrix.self_s", "symbols.pmatrix_rank_minors.self_s",
    "sertate.st_mul.calls", "sertate.st_mul.self_s",
    "sertate.psi_series_form.self_s", "sertate.serre_operator.self_s",
    "sertate.verify_identity.self_s",
)

UNITS = {"calls": "count", "terms": "count", "self_s": "s"}

# spans kept for the JSON file; about 5 MB of JSON at this size
SPAN_LIMIT = 100_000


class Tracer:
    """Records spans for the layers in :data:`LAYERS` once installed.

    Spans that the benchmark opens itself (:meth:`span`, used for set-up and
    for each job) are recorded the same way, so every layer span has a
    parent and a job's self time is the part spent outside the layers.
    """

    def __init__(self):
        self.names = list(LAYERS)
        self.index = {name: i for i, name in enumerate(self.names)}
        self.calls = [0] * len(self.names)
        self.self_s = [0.0] * len(self.names)
        self.ser_mul_terms = 0
        self.spans = []
        self.dropped = 0
        self._stack = []
        self._ids = itertools.count()
        self._undo = []

    # -- recording ---------------------------------------------------------

    def _name_index(self, name: str) -> int:
        if name not in self.index:
            self.index[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
        return self.index[name]

    def _enter(self):
        frame = [next(self._ids), 0.0, time.perf_counter()]
        parent = self._stack[-1][0] if self._stack else -1
        self._stack.append(frame)
        return frame, parent

    def _exit(self, idx, frame, parent):
        end = time.perf_counter()
        self._stack.pop()
        duration = end - frame[2]
        self.calls[idx] += 1
        self.self_s[idx] += duration - frame[1]
        if self._stack:
            self._stack[-1][1] += duration
        if len(self.spans) < SPAN_LIMIT:
            self.spans.append((frame[0], parent, idx, frame[2], end))
        else:
            self.dropped += 1

    def span(self, name: str):
        """Context manager for a span opened by the benchmark itself."""
        return _Span(self, self._name_index(name))

    def _wrap(self, idx: int, fn):
        enter, exit_ = self._enter, self._exit

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame, parent = enter()
            try:
                return fn(*args, **kwargs)
            finally:
                exit_(idx, frame, parent)
        return traced

    def _wrap_ser_mul(self, idx: int, fn):
        traced = self._wrap(idx, fn)

        @functools.wraps(fn)
        def counted(a, b, mod, n):
            self.ser_mul_terms += min(len(a), n) + min(len(b), n)
            return traced(a, b, mod, n)
        return counted

    # -- patching ----------------------------------------------------------

    def install(self, extra_modules=()):
        """Wrap every layer function; ``extra_modules`` are rebound too."""
        modules = [m for name, m in list(sys.modules.items())
                   if name == "frobjet" or name.startswith("frobjet.")]
        modules += list(extra_modules)
        for name, (modname, attr) in LAYERS.items():
            idx = self.index[name]
            module = importlib.import_module(modname)
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[meth]
                wrapper = self._wrap(idx, original)
                targets = [owner]
            else:
                original = getattr(module, attr)
                wrap = (self._wrap_ser_mul if name == "polyutils.ser_mul"
                        else self._wrap)
                wrapper = wrap(idx, original)
                targets = modules
            for target in targets:
                for key, value in list(vars(target).items()):
                    if value is original:
                        setattr(target, key, wrapper)
                        self._undo.append((target, key, original))

    def remove(self):
        for target, key, original in reversed(self._undo):
            setattr(target, key, original)
        self._undo.clear()

    # -- results -----------------------------------------------------------

    def snapshot(self) -> dict:
        """Cumulative calls, self seconds and ser_mul input terms."""
        return {"calls": list(self.calls), "self_s": list(self.self_s),
                "ser_mul_terms": self.ser_mul_terms}

    def layer_metrics(self, setup: dict, after: dict, rounds: int) -> dict:
        """Per-layer figures for one set-up plus one round of jobs.

        ``setup`` is the snapshot taken when set-up ended and ``after`` the
        one taken after ``rounds`` timed rounds.  Timed figures are divided
        by ``rounds``, so counts are exact whenever every round does the
        same work.
        """
        def one_pass(field, i):
            s = setup[field] if i is None else setup[field][i]
            a = after[field] if i is None else after[field][i]
            return s + (a - s) / rounds

        out = {}
        for metric in METRICS:
            layer, field = metric.rsplit(".", 1)
            if field == "terms":
                value = one_pass("ser_mul_terms", None)
            else:
                value = one_pass(field, self.index[layer])
            if UNITS[field] == "count" and value == int(value):
                value = int(value)
            out[metric] = {"value": value, "unit": UNITS[field]}
        return out

    def dump(self, path: str, extra: dict):
        """Write the kept spans and the per-layer totals as JSON."""
        doc = dict(extra)
        doc.update({
            "names": self.names,
            "span_fields": ["id", "parent", "name", "start_s", "end_s"],
            "spans": self.spans,
            "spans_dropped": self.dropped,
            "totals": {name: {"calls": self.calls[i],
                              "self_s": self.self_s[i]}
                       for i, name in enumerate(self.names)},
        })
        with open(path, "w") as fh:
            json.dump(doc, fh)


class _Span:
    __slots__ = ("tracer", "idx", "frame", "parent")

    def __init__(self, tracer: Tracer, idx: int):
        self.tracer, self.idx = tracer, idx

    def __enter__(self):
        self.frame, self.parent = self.tracer._enter()
        return self

    def __exit__(self, *exc):
        self.tracer._exit(self.idx, self.frame, self.parent)
        return False

