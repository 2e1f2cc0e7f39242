"""Spans and counters recorded around drg's public functions, from outside.

The benchmark does not change drg. To trace a pass it replaces each traced
function by a wrapper at every place the function object is bound: the
defining module and every ``drg`` module that imported it by name (for
example ``drg.checks.max_clique`` as well as ``drg.graph.max_clique``).
Methods are replaced on their class.

A span records its duration, and its self time: the duration minus the time
covered by spans it encloses. The inclusive total of a name counts only its
outermost span, so recursive or nested calls of one layer are not counted
twice. ``PermGroup.elements`` is a generator; it is counted (calls and
elements yielded) but not timed, because its time is spent by whoever
iterates it.

``perm`` gets no span: its functions run millions of times per pass and a
wrapper would measure itself.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

# (module, attribute, span name, result hook name or None)
FUNCTION_SPANS = [
    ("drg.catalog", "catalog_load", "catalog.load", None),
    ("drg.group", "blocks_and_primitivity", "group.blocks", None),
    ("drg.group", "close_subgroup", "group.close_subgroup", None),
    ("drg.group", "coset_action", "group.coset_action", None),
    ("drg.graph", "derangement_set", "graph.derangement_set", None),
    ("drg.graph", "max_clique", "graph.max_clique", "clique"),
    ("drg.graph", "max_intersecting_family", "graph.max_intersecting_family", "coclique"),
    ("drg.graph", "find_k_clique", "graph.find_k_clique", "k_clique"),
    ("drg.graph", "density_bounds", "graph.density_bounds", None),
    ("drg.graph", "validate_clique", "graph.validate", "validate_call"),
    ("drg.graph", "validate_coclique", "graph.validate", "validate_call"),
    ("drg.graph", "clique_coclique_audit", "graph.validate", None),
    ("drg.semireg", "is_elusive", "semireg.is_elusive", None),
    ("drg.semireg", "max_semiregular_order", "semireg.max_semiregular", "semiregular"),
    ("drg.semireg", "validate_semiregular", "semireg.validate", None),
    ("drg.numth", "factorize", "numth.factorize", None),
    ("drg.numth", "primitive_prime_divisors", "numth.ppd", None),
    ("drg.oracles", "closure_order", "oracles.closure_order", None),
    ("drg.oracles", "exhaustive_max_clique", "oracles.max_clique", None),
    ("drg.oracles", "exhaustive_max_coclique", "oracles.max_coclique", None),
    ("drg.oracles", "exhaustive_max_semiregular", "oracles.max_semiregular", None),
    ("drg.checks", "analyze", "checks.analyze", None),
    ("drg.checks", "quick_k_clique", "checks.quick_k_clique", None),
]

# modules whose every public module-level function is one span, "constructions"
LAYER_MODULES = [("drg.constructions", "constructions"), ("drg.fields", "constructions")]


class Tracer:
    def __init__(self):
        self.inclusive: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.edges: Counter = Counter()  # (parent span, child span) -> openings
        self._stack: list[list] = []  # per open span: [time covered by children, name]
        self._depth: Counter = Counter()
        self._restore: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    # -- spans ---------------------------------------------------------------

    def _wrap(self, fn, name: str, hook):
        tracer = self
        stack = self._stack
        depth = self._depth
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.calls[name] += 1
            if stack:
                tracer.edges[stack[-1][1], name] += 1
            depth[name] += 1
            frame = [0.0, name]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                depth[name] -= 1
                tracer.self_time[name] += duration - frame[0]
                if not depth[name]:
                    tracer.inclusive[name] += duration
                if stack:
                    stack[-1][0] += duration
            if hook is not None:
                hook(tracer, result)
            return result

        return wrapper

    def _replace_everywhere(self, original, replacement) -> None:
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "drg" or mod_name.startswith("drg.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._restore.append((module, attr, original))

    def _replace_method(self, cls, attr: str, replacement) -> None:
        self._restore.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, replacement)

    def install(self) -> None:
        """Wrap every traced function at every import site (drg must be imported)."""
        for mod_name, attr, name, hook_name in FUNCTION_SPANS:
            module = sys.modules.get(mod_name)
            original = getattr(module, attr, None) if module else None
            if original is None:
                self.missing.append(f"{mod_name}.{attr}")
                continue
            hook = _HOOKS[hook_name] if hook_name else None
            self._replace_everywhere(original, self._wrap(original, name, hook))
        for mod_name, name in LAYER_MODULES:
            module = sys.modules[mod_name]
            for attr, value in list(vars(module).items()):
                if (callable(value) and not isinstance(value, type) and not attr.startswith("_")
                        and getattr(value, "__module__", None) == mod_name):
                    self._replace_everywhere(value, self._wrap(value, name, None))
        self._install_group_methods()

    def _install_group_methods(self) -> None:
        from drg.group import PermGroup

        tracer = self
        elements = PermGroup.__dict__["elements"]

        @functools.wraps(elements)
        def counted_elements(group, *args, **kwargs):
            tracer.counts["group.enumerations"] += 1
            yielded = 0
            try:
                for p in elements(group, *args, **kwargs):
                    yielded += 1
                    yield p
            finally:
                tracer.counts["group.elements_yielded"] += yielded

        self._replace_method(PermGroup, "elements", counted_elements)
        self._replace_method(PermGroup, "element_images",
                             self._wrap(PermGroup.__dict__["element_images"],
                                        "group.element_images", None))
        build = PermGroup.__dict__.get("_build_chain")
        if build is None:
            self.missing.append("drg.group.PermGroup._build_chain")
            return
        traced_build = self._wrap(build, "group.chain", None)

        @functools.wraps(build)
        def build_chain(group):
            # only a build is a span; the method returns at once when built
            if getattr(group, "_chain", None) is not None:
                return build(group)
            return traced_build(group)

        self._replace_method(PermGroup, "_build_chain", build_chain)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def unwrapped_sites(self) -> list[str]:
        """Import sites still bound to an original traced function (should be none)."""
        originals = {id(orig) for owner, _, orig in self._restore if not isinstance(owner, type)}
        out = []
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "drg" or mod_name.startswith("drg.")):
                continue
            for attr, value in vars(module).items():
                if id(value) in originals:
                    out.append(f"{mod_name}.{attr}")
        return out


def _hook_clique(tracer: Tracer, result) -> None:
    tracer.counts["graph.max_clique_nodes"] += result.nodes
    tracer.counts["graph.optimal"] += bool(result.optimal)


def _hook_coclique(tracer: Tracer, result) -> None:
    tracer.counts["graph.max_intersecting_family_nodes"] += result.nodes
    tracer.counts["graph.optimal"] += bool(result.optimal)


def _hook_k_clique(tracer: Tracer, result) -> None:
    tracer.counts["graph.find_k_clique_nodes"] += result.nodes


def _hook_semiregular(tracer: Tracer, result) -> None:
    tracer.counts["semireg.extension_nodes"] += result.nodes
    tracer.counts["semireg.semiregular_elements"] += result.semiregular_element_count
    tracer.counts["semireg.closed"] += bool(result.optimal)


def _hook_validate_call(tracer: Tracer, result) -> None:
    tracer.counts["graph.validate_calls"] += 1


_HOOKS = {
    "clique": _hook_clique,
    "coclique": _hook_coclique,
    "k_clique": _hook_k_clique,
    "semiregular": _hook_semiregular,
    "validate_call": _hook_validate_call,
}


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metric values from one traced pass, by name, with units."""
    inc, own, calls, counts = tracer.inclusive, tracer.self_time, tracer.calls, tracer.counts
    graph_searches = calls["graph.max_clique"] + calls["graph.max_intersecting_family"]
    # a quick call answered by the greedy layer opened no find_k_clique span
    quick_exact = tracer.edges["checks.quick_k_clique", "graph.find_k_clique"]
    return {
        "catalog.load_s": (inc["catalog.load"], "s"),
        "group.chain_s": (inc["group.chain"], "s"),
        "group.blocks_s": (inc["group.blocks"], "s"),
        "group.enumerations": (counts["group.enumerations"], "count"),
        "group.elements_yielded": (counts["group.elements_yielded"], "count"),
        "group.element_images_s": (inc["group.element_images"], "s"),
        "group.close_subgroup_s": (inc["group.close_subgroup"], "s"),
        "group.close_subgroup_calls": (calls["group.close_subgroup"], "count"),
        "group.coset_action_s": (inc["group.coset_action"], "s"),
        "checks.analyze_self_s": (own["checks.analyze"], "s"),
        "checks.quick_k_clique_s": (inc["checks.quick_k_clique"], "s"),
        "checks.greedy_hit_share": (
            _share(calls["checks.quick_k_clique"] - quick_exact,
                   calls["checks.quick_k_clique"]), "ratio"),
        "semireg.is_elusive_s": (inc["semireg.is_elusive"], "s"),
        "semireg.max_semiregular_self_s": (own["semireg.max_semiregular"], "s"),
        "semireg.extension_nodes": (counts["semireg.extension_nodes"], "count"),
        "semireg.semiregular_elements": (counts["semireg.semiregular_elements"], "count"),
        "semireg.closed_share": (
            _share(counts["semireg.closed"], calls["semireg.max_semiregular"]), "ratio"),
        "semireg.validate_s": (inc["semireg.validate"], "s"),
        "graph.max_clique_self_s": (own["graph.max_clique"], "s"),
        "graph.max_intersecting_family_self_s": (own["graph.max_intersecting_family"], "s"),
        "graph.max_clique_nodes": (counts["graph.max_clique_nodes"], "count"),
        "graph.max_intersecting_family_nodes": (counts["graph.max_intersecting_family_nodes"],
                                                "count"),
        "graph.find_k_clique_self_s": (own["graph.find_k_clique"], "s"),
        "graph.find_k_clique_nodes": (counts["graph.find_k_clique_nodes"], "count"),
        "graph.derangement_set_s": (inc["graph.derangement_set"], "s"),
        "graph.density_bounds_s": (inc["graph.density_bounds"], "s"),
        "graph.optimal_share": (_share(counts["graph.optimal"], graph_searches), "ratio"),
        "graph.validate_s": (inc["graph.validate"], "s"),
        "graph.validate_calls": (counts["graph.validate_calls"], "count"),
        "constructions.s": (inc["constructions"], "s"),
        "numth.factorize_s": (inc["numth.factorize"], "s"),
        "numth.factorize_calls": (calls["numth.factorize"], "count"),
        "numth.ppd_s": (inc["numth.ppd"], "s"),
        "numth.ppd_calls": (calls["numth.ppd"], "count"),
        "oracles.max_clique_s": (inc["oracles.max_clique"], "s"),
        "oracles.max_coclique_s": (inc["oracles.max_coclique"], "s"),
        "oracles.max_semiregular_s": (inc["oracles.max_semiregular"], "s"),
        "oracles.closure_order_s": (inc["oracles.closure_order"], "s"),
    }
