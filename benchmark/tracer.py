"""Per-layer tracing, done entirely from the benchmark's side.

The tracer wraps named functions and methods of the isocensus layers at the
places where they are looked up: a class attribute for methods, and every
module global bound to the same function object for module functions (so
`homs.kth_root`, imported by name from `ffield`, is wrapped as well).  A
name that no longer exists is recorded as absent instead of raising, so a
refactor that removes a helper does not break the benchmark.

Every wrapped call pushes a frame on one stack, which yields per-layer self
time (a call's duration minus the time of the wrapped calls it made).  Hot
leaves keep only aggregate counts and times; entries into public layer
functions and the experiment cells are also recorded as spans (name, start,
end, parent span), kept in memory and returned by `spans()`.
"""

from __future__ import annotations

import importlib
import sys
import time

PACKAGE = "isocensus"

LAYERS = ("ffield", "matgroup", "homs", "census", "orderform", "experiments")

# (layer, module, attribute path, record a span)
TARGETS = (
    ("ffield", "ffield", "AmbientField.mul", False),
    ("ffield", "ffield", "AmbientField.add", False),
    ("ffield", "ffield", "AmbientField.inv", False),
    ("ffield", "ffield", "AmbientField.frobenius", False),
    ("ffield", "ffield", "kth_root", False),
    ("matgroup", "matgroup", "Matrix.__mul__", False),
    ("matgroup", "matgroup", "FiniteGroup.mult", False),
    ("matgroup", "matgroup", "FiniteGroup.closure_ids", False),
    ("matgroup", "matgroup", "rational_points", True),
    ("matgroup", "matgroup", "from_generators", True),
    ("matgroup", "matgroup", "direct_product", True),
    ("matgroup", "matgroup", "fixed_subgroup", True),
    ("homs", "homs", "lang_map", False),
    ("homs", "homs", "power_isogeny", True),
    ("homs", "homs", "kernel_points", True),
    ("homs", "homs", "image_ids", True),
    ("homs", "homs", "image_of_rational", True),
    ("homs", "homs", "check_image_index", True),
    ("homs", "homs", "cokernel", True),
    ("homs", "homs", "verify_mu", True),
    ("homs", "homs", "quotient_by_central", True),
    ("homs", "homs", "fiber_product", True),
    ("homs", "homs", "induced_isogeny_reaches", True),
    ("census", "census", "index_k_subgroups", True),
    ("census", "census", "_bfs_program", True),
    ("census", "census", "small_generating_set", True),
    ("census", "census", "subgroup_lattice_oracle", True),
    ("census", "census", "quotient_group", True),
    ("census", "census", "subgroup_as_group", True),
    ("census", "census", "is_subgroup", True),
    ("census", "census", "is_normal", True),
    ("census", "census", "normal_core", True),
    ("census", "census", "center", True),
    ("census", "census", "derived_subgroup", True),
    ("census", "census", "invariant_factors_abelian", True),
    ("census", "census", "run_census", True),
    ("census", "census", "reached_by", True),
    ("orderform", "orderform", "closed_order", False),
    ("orderform", "orderform", "bn_order", False),
    ("orderform", "orderform", "center_order", False),
    ("experiments", "experiments", "Runner.run", True),
    ("experiments", "experiments", "Runner._run_e12_cell", True),
    ("experiments", "experiments", "Runner.group", False),
)

# Every `apply` an Isogeny subclass defines is counted as one name.
APPLY = "homs.Isogeny.apply"
# The group operation called by FiniteGroup.mult, i.e. a product-cache miss.
GROUP_OP = "matgroup.FiniteGroup.op"
# (child, parent): calls of child made directly by parent are also counted.
EDGES = (
    (GROUP_OP, "matgroup.FiniteGroup.mult"),
    ("matgroup.FiniteGroup.mult", "homs.verify_mu"),
    ("matgroup.rational_points", "experiments.Runner.group"),
)

MAX_SPANS = 200_000


class Tracer:
    """Wraps the layer entry points while installed; see the module doc."""

    def __init__(self):
        self.stats: dict[str, list] = {}      # name -> [calls, inclusive s]
        self.edges: dict[tuple[str, str], list] = {e: [0] for e in EDGES}
        self.self_s = {layer: 0.0 for layer in LAYERS}
        self.absent: list[str] = []
        self._spans: list[list] = []
        self.dropped_spans = 0
        self._stack: list[list] = []          # [child s, name, span id]
        self._patches: list[tuple] = []       # (owner, attribute, original)
        self._installed = False

    # -- installation ---------------------------------------------------------

    def install(self) -> "Tracer":
        if self._installed:
            raise RuntimeError("tracer already installed")
        self._installed = True
        modules = {}
        for layer, mod, path, span in TARGETS:
            name = f"{mod}.{path}"
            try:
                module = modules.get(mod) or importlib.import_module(
                    f"{PACKAGE}.{mod}")
            except ImportError:
                self.absent.append(name)
                continue
            modules[mod] = module
            owner, attr = module, path
            if "." in path:
                cls_name, attr = path.split(".", 1)
                owner = getattr(module, cls_name, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.absent.append(name)
                continue
            wrapped = self._wrap(original, name, layer, span)
            if owner is module:
                self._rebind_everywhere(original, wrapped)
            else:
                self._patch(owner, attr, wrapped)
        self._wrap_isogeny_apply(modules.get("homs"))
        self._wrap_group_op(modules.get("matgroup"))
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        self._installed = False

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _rebind_everywhere(self, original, wrapped) -> None:
        """Replace every module global bound to `original`."""
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == PACKAGE
                                      or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attr, wrapped)

    def _wrap_isogeny_apply(self, homs) -> None:
        base = getattr(homs, "Isogeny", None) if homs is not None else None
        if base is None:
            self.absent.append(APPLY)
            return
        for cls in vars(homs).values():
            if isinstance(cls, type) and issubclass(cls, base) \
                    and "apply" in cls.__dict__:
                self._patch(cls, "apply",
                            self._wrap(cls.__dict__["apply"], APPLY, "homs", False))

    def _wrap_group_op(self, matgroup) -> None:
        """Wrap each new group's operation so product-cache misses count."""
        cls = getattr(matgroup, "FiniteGroup", None) if matgroup is not None else None
        if cls is None:
            self.absent.append(GROUP_OP)
            return
        init = cls.__dict__["__init__"]
        tracer = self

        def traced_init(group, *args, **kwargs):
            init(group, *args, **kwargs)
            op = getattr(group, "op", None)
            if op is not None:
                group.op = tracer._wrap(op, GROUP_OP, "matgroup", False)

        self._patch(cls, "__init__", traced_init)

    # -- the wrapper ------------------------------------------------------------

    def _wrap(self, fn, name: str, layer: str, span: bool):
        stat = self.stats.setdefault(name, [0, 0.0])
        edges = [(parent, self.edges[child, parent])
                 for child, parent in EDGES if child == name]
        stack, self_s, spans = self._stack, self.self_s, self._spans
        program = layer in self_s
        perf = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            if edges and parent is not None:
                for parent_name, counter in edges:
                    if parent[1] == parent_name:
                        counter[0] += 1
            span_id = parent[2] if parent is not None else -1
            recorded = span and len(spans) < MAX_SPANS
            if recorded:
                spans.append([span_id, name, 0.0, 0.0])
                span_id = len(spans) - 1
            elif span:
                tracer.dropped_spans += 1
            frame = [0.0, name, span_id]
            stack.append(frame)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                stack.pop()
                stat[0] += 1
                stat[1] += dt
                if program:
                    self_s[layer] += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
                if recorded:
                    spans[span_id][2] = t0
                    spans[span_id][3] = t0 + dt

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def span(self, name: str):
        """Wrap a callable of the benchmark itself (a sweep cell) as a span.

        Its own time belongs to no layer of the program, so no self_s has it.
        """
        return lambda fn: self._wrap(fn, name, "bench", True)

    # -- results ------------------------------------------------------------------

    def calls(self, name: str) -> int:
        return self.stats.get(name, [0, 0.0])[0]

    def seconds(self, name: str) -> float:
        return self.stats.get(name, [0, 0.0])[1]

    def edge(self, child: str, parent: str) -> int:
        return self.edges[child, parent][0]

    def spans(self) -> list[list]:
        """[parent span index or -1, name, start s, end s] per span."""
        return self._spans
