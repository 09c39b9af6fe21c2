"""The project rule pack: RPR100-RPR106.

Each rule enforces an invariant the reproduction's headline claims rest
on (see docs/ANALYSIS.md for the catalog with full rationale):

* RPR100 — unused imports (the lint.py F401 detector, folded in and
  fixed: string constants only count as uses inside ``__all__`` or when
  they are parseable string annotations).
* RPR101 — determinism: scheduler/search/core code must draw randomness
  from the seeded ``spawn_rng`` substreams and must not consult wall
  clocks or entropy sources inside the search; ``min``/``max`` over a
  set breaks tie-making reproducibility.
* RPR102 — picklability: nothing unpicklable (lambdas, nested
  functions, ``self``-bound methods) may cross the process boundary via
  ``ProcessPoolExecutor.submit`` or ``SearchSpec`` fields.
* RPR103 — async-safety: ``async def`` bodies in the daemon must never
  call blocking primitives (``time.sleep``, ``subprocess.run``, ...).
* RPR104 — float equality: evaluation/energy quantities compare with
  tolerance helpers, never bare ``==`` (exact sentinel comparisons
  against the literals 0.0 / 1.0 / -1.0 are allowed).
* RPR105 — API hygiene: public functions in ``repro.core``,
  ``repro.schedulers`` and ``repro.remap`` carry docstrings and no
  mutable default args.
* RPR106 — telemetry hygiene: metric names declared through
  ``repro.telemetry`` registries are snake_case with the conventional
  unit/kind suffixes (counters ``*_total``, histograms ``*_seconds`` /
  ``*_bytes``), and label values never interpolate runtime data
  (f-strings), which would mint unbounded label cardinality.
"""

from __future__ import annotations

import ast
import re

from repro.analysis.engine import Checker, CheckerContext, register

__all__ = [
    "UnusedImportChecker",
    "DeterminismChecker",
    "PicklabilityChecker",
    "AsyncSafetyChecker",
    "FloatEqualityChecker",
    "ApiHygieneChecker",
    "TelemetryHygieneChecker",
]


def dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def enclosing_function(parents: list[ast.AST]) -> ast.AST | None:
    """The innermost enclosing function node, if any."""
    for node in reversed(parents):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return node
    return None


def _has_docstring(node: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    return bool(
        node.body
        and isinstance(node.body[0], ast.Expr)
        and isinstance(node.body[0].value, ast.Constant)
        and isinstance(node.body[0].value.value, str)
    )


@register
class UnusedImportChecker(Checker):
    """RPR100: imports that no code in the module actually uses."""

    rule = "RPR100"
    name = "unused-import"
    rationale = "dead imports hide real dependencies and slow cold start"
    scopes = None  # applies everywhere, including tests/tools/benchmarks

    def start_module(self, ctx: CheckerContext) -> None:
        #: bound name -> (import node, original dotted name)
        self._imports: dict[str, tuple[ast.AST, str]] = {}
        self._used: set[str] = set()

    def applies_to(self, ctx: CheckerContext) -> bool:
        # __init__.py re-exports names by design.
        return not ctx.path.endswith("__init__.py")

    def _harvest_annotation(self, node: ast.AST) -> None:
        """Names inside a (possibly string) annotation count as uses."""
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                parsed = ast.parse(node.value, mode="eval")
            except SyntaxError:
                return
            for sub in ast.walk(parsed):
                if isinstance(sub, ast.Name):
                    self._used.add(sub.id)
        else:
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name):
                    self._used.add(sub.id)
                elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                    # Nested string annotation, e.g. list["Node"].
                    self._harvest_annotation(sub)

    def visit(self, node: ast.AST, parents: list[ast.AST], ctx: CheckerContext) -> None:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                self._imports.setdefault(bound, (node, alias.name))
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__" or any(a.name == "*" for a in node.names):
                return
            for alias in node.names:
                bound = alias.asname or alias.name
                self._imports.setdefault(bound, (node, alias.name))
        elif isinstance(node, ast.Name):
            self._used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # The old tools/lint.py counted EVERY string constant as a
            # use, so any docstring mentioning an import name masked a
            # real F401.  Strings only count inside ``__all__``.
            for parent in reversed(parents):
                if isinstance(parent, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                    targets = (
                        parent.targets
                        if isinstance(parent, ast.Assign)
                        else [parent.target]
                    )
                    if any(
                        isinstance(t, ast.Name) and t.id == "__all__" for t in targets
                    ):
                        self._used.add(node.value)
                    break
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in [
                *args.posonlyargs,
                *args.args,
                *args.kwonlyargs,
                *filter(None, [args.vararg, args.kwarg]),
            ]:
                if arg.annotation is not None:
                    self._harvest_annotation(arg.annotation)
            if node.returns is not None:
                self._harvest_annotation(node.returns)
        elif isinstance(node, ast.AnnAssign):
            self._harvest_annotation(node.annotation)

    def finish_module(self, ctx: CheckerContext) -> None:
        for bound, (node, original) in sorted(self._imports.items()):
            if bound not in self._used:
                ctx.report(node, self.rule, f"unused import {original!r}")


@register
class DeterminismChecker(Checker):
    """RPR101: unseeded entropy or unordered tie-breaking in the search."""

    rule = "RPR101"
    name = "determinism"
    rationale = "S_M must evaluate identically every run (paper eqs. 5-8)"
    scopes = ("repro.schedulers", "repro.search", "repro.core", "repro.remap", "repro.fleet")

    #: Calls that consult wall clocks or OS entropy.
    BANNED_CALLS = {
        "time.time": "use time.perf_counter/monotonic for timing, never for decisions",
        "os.urandom": "use the seeded spawn_rng substream instead",
        "uuid.uuid4": "use the seeded spawn_rng substream instead",
        "np.random.default_rng": "use repro._util.spawn_rng(seed, *key) instead",
        "numpy.random.default_rng": "use repro._util.spawn_rng(seed, *key) instead",
        "np.random.seed": "global numpy seeding is forbidden; thread a seeded Rng",
        "numpy.random.seed": "global numpy seeding is forbidden; thread a seeded Rng",
    }

    def visit(self, node: ast.AST, parents: list[ast.AST], ctx: CheckerContext) -> None:
        if not isinstance(node, ast.Call):
            return
        dotted = dotted_name(node.func)
        if dotted is None:
            return
        root = dotted.split(".", 1)[0]
        hint = self.BANNED_CALLS.get(dotted)
        if hint is not None:
            ctx.report(node, self.rule, f"call to {dotted}() is nondeterministic; {hint}")
        elif root in ("random", "secrets"):
            ctx.report(
                node,
                self.rule,
                f"call to {dotted}() bypasses the seeded RNG; "
                "use the threaded repro._rng.Rng from spawn_rng",
            )
        elif dotted in ("min", "max") and node.args:
            first = node.args[0]
            is_set = isinstance(first, (ast.Set, ast.SetComp)) or (
                isinstance(first, ast.Call)
                and isinstance(first.func, ast.Name)
                and first.func.id in ("set", "frozenset")
            )
            if is_set:
                ctx.report(
                    node,
                    self.rule,
                    f"{dotted}() over an unordered set makes tie-breaking depend on "
                    "iteration order; reduce over sorted(...) instead",
                )


@register
class PicklabilityChecker(Checker):
    """RPR102: unpicklable callables shipped to worker processes."""

    rule = "RPR102"
    name = "picklability"
    rationale = "SearchSpec and pool tasks must survive pickling to workers"
    scopes = ("repro.schedulers", "repro.search")

    def start_module(self, ctx: CheckerContext) -> None:
        self._nested_cache: dict[int, set[str]] = {}

    def _nested_function_names(self, func: ast.AST) -> set[str]:
        """Names of functions defined inside *func* (any depth)."""
        cached = self._nested_cache.get(id(func))
        if cached is not None:
            return cached
        names = {
            sub.name
            for sub in ast.walk(func)
            if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)) and sub is not func
        }
        self._nested_cache[id(func)] = names
        return names

    def _flag_argument(
        self,
        arg: ast.AST,
        parents: list[ast.AST],
        ctx: CheckerContext,
        target: str,
        *,
        flag_self_attr: bool = True,
    ) -> None:
        if isinstance(arg, ast.Lambda):
            ctx.report(
                arg,
                self.rule,
                f"lambda passed to {target} cannot be pickled into a worker "
                "process; use a module-level function",
            )
            return
        enclosing = enclosing_function(parents)
        if (
            isinstance(arg, ast.Name)
            and enclosing is not None
            and arg.id in self._nested_function_names(enclosing)
        ):
            ctx.report(
                arg,
                self.rule,
                f"locally-defined function {arg.id!r} passed to {target} cannot "
                "be pickled into a worker process; move it to module level",
            )
            return
        if (
            flag_self_attr
            and isinstance(arg, ast.Attribute)
            and isinstance(arg.value, ast.Name)
            and arg.value.id == "self"
        ):
            ctx.report(
                arg,
                self.rule,
                f"bound method self.{arg.attr} passed to {target} drags the whole "
                "instance through pickle; pass a module-level function and data",
            )

    def visit(self, node: ast.AST, parents: list[ast.AST], ctx: CheckerContext) -> None:
        if not isinstance(node, ast.Call):
            return
        func = node.func
        # executor.submit(fn, ...) / executor.map(fn, ...): the first
        # positional argument crosses the process boundary.
        if isinstance(func, ast.Attribute) and func.attr in ("submit", "map") and node.args:
            self._flag_argument(node.args[0], parents, ctx, f"executor.{func.attr}()")
        # SearchSpec(...) / SearchSpec.from_evaluator(...): every field
        # is pickled; the constraint keyword is the classic offender.
        # self.<attr> is NOT flagged here — spec fields routinely carry
        # plain data attributes, which pickle fine; only statically
        # certain offenders (lambdas, nested functions) are reported.
        dotted = dotted_name(func) or ""
        if dotted == "SearchSpec" or dotted.endswith("SearchSpec.from_evaluator"):
            for arg in node.args:
                self._flag_argument(arg, parents, ctx, dotted, flag_self_attr=False)
            for kw in node.keywords:
                if kw.arg is not None:
                    self._flag_argument(
                        kw.value, parents, ctx, f"{dotted}({kw.arg}=...)", flag_self_attr=False
                    )


@register
class AsyncSafetyChecker(Checker):
    """RPR103: blocking calls inside ``async def`` bodies."""

    rule = "RPR103"
    name = "async-safety"
    rationale = "one blocked event loop stalls every daemon client"
    scopes = ("repro.server", "repro.fleet")

    BLOCKING_CALLS = {
        "time.sleep": "await asyncio.sleep(...) instead",
        "subprocess.run": "use asyncio.create_subprocess_exec or a worker thread",
        "subprocess.call": "use asyncio.create_subprocess_exec or a worker thread",
        "subprocess.check_call": "use asyncio.create_subprocess_exec or a worker thread",
        "subprocess.check_output": "use asyncio.create_subprocess_exec or a worker thread",
        "subprocess.Popen": "use asyncio.create_subprocess_exec or a worker thread",
        "os.system": "use asyncio.create_subprocess_exec or a worker thread",
        "socket.create_connection": "use asyncio.open_connection instead",
        "urllib.request.urlopen": "blocking network I/O; run it in an executor",
        "requests.get": "blocking network I/O; run it in an executor",
        "requests.post": "blocking network I/O; run it in an executor",
    }

    def visit(self, node: ast.AST, parents: list[ast.AST], ctx: CheckerContext) -> None:
        if not isinstance(node, ast.Call):
            return
        if not isinstance(enclosing_function(parents), ast.AsyncFunctionDef):
            return
        dotted = dotted_name(node.func)
        if dotted is None:
            return
        hint = self.BLOCKING_CALLS.get(dotted)
        if hint is not None:
            ctx.report(
                node,
                self.rule,
                f"blocking call {dotted}() inside async def stalls the event loop; {hint}",
            )
        elif dotted == "open":
            ctx.report(
                node,
                self.rule,
                "blocking file I/O via open() inside async def; "
                "run it in an executor (loop.run_in_executor)",
            )


@register
class FloatEqualityChecker(Checker):
    """RPR104: bare ``==`` between float-valued evaluation quantities."""

    rule = "RPR104"
    name = "float-equality"
    rationale = "energy/latency arithmetic differs in the last ulp across paths"
    scopes = ("repro.core", "repro.schedulers", "repro.search", "repro.remap")

    #: Exact comparisons against these literals are accepted sentinels
    #: (e.g. ``noise == 0.0`` meaning "feature disabled").
    SENTINELS = (0.0, 1.0, -1.0)

    #: Identifier endings that mark a float evaluation quantity.
    FLOATY_SUFFIXES = ("energy", "cost", "delta", "_time", "_s", "latency")
    FLOATY_NAMES = {
        "energy",
        "cost",
        "delta",
        "predicted",
        "predicted_time",
        "execution_time",
        "best_energy",
        "wall_time_s",
    }
    FLOATY_CALLS = {"predict", "evaluate", "energy", "cost"}

    def _is_sentinel(self, node: ast.AST) -> bool:
        return (
            isinstance(node, ast.Constant)
            and isinstance(node.value, float)
            and node.value in self.SENTINELS
        )

    def _is_floaty(self, node: ast.AST) -> bool:
        if isinstance(node, ast.Constant):
            return isinstance(node.value, float)
        ident: str | None = None
        if isinstance(node, ast.Name):
            ident = node.id
        elif isinstance(node, ast.Attribute):
            ident = node.attr
        if ident is not None:
            lowered = ident.lower()
            return lowered in self.FLOATY_NAMES or lowered.endswith(self.FLOATY_SUFFIXES)
        if isinstance(node, ast.Call):
            dotted = dotted_name(node.func) or ""
            return dotted.rsplit(".", 1)[-1] in self.FLOATY_CALLS
        if isinstance(node, ast.BinOp):
            return self._is_floaty(node.left) or self._is_floaty(node.right)
        return False

    def visit(self, node: ast.AST, parents: list[ast.AST], ctx: CheckerContext) -> None:
        if not isinstance(node, ast.Compare):
            return
        sides = [node.left, *node.comparators]
        for op, left, right in zip(node.ops, sides, sides[1:], strict=False):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            pair = (left, right)
            if any(self._is_sentinel(side) for side in pair):
                continue
            floaty = sum(1 for side in pair if self._is_floaty(side))
            nonsentinel_literal = any(
                isinstance(side, ast.Constant) and isinstance(side.value, float)
                for side in pair
            )
            if floaty >= 2 or (floaty == 1 and nonsentinel_literal):
                ctx.report(
                    node,
                    self.rule,
                    "bare == between float evaluation quantities; use "
                    "math.isclose / a tolerance helper (exact 0.0/1.0 "
                    "sentinel checks are exempt)",
                )


@register
class ApiHygieneChecker(Checker):
    """RPR105: public API functions need docstrings and safe defaults."""

    rule = "RPR105"
    name = "api-hygiene"
    rationale = "the core/scheduler surface is the paper-facing contract"
    scopes = ("repro.core", "repro.schedulers", "repro.remap")

    def visit(self, node: ast.AST, parents: list[ast.AST], ctx: CheckerContext) -> None:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return
        # Mutable default arguments trip every function, public or not.
        for default in [*node.args.defaults, *filter(None, node.args.kw_defaults)]:
            mutable = isinstance(default, (ast.List, ast.Dict, ast.Set)) or (
                isinstance(default, ast.Call)
                and isinstance(default.func, ast.Name)
                and default.func.id in ("list", "dict", "set")
            )
            if mutable:
                ctx.report(
                    default,
                    self.rule,
                    f"mutable default argument in {node.name}(); default to None "
                    "and create the container inside the body",
                )
        if node.name.startswith("_"):
            return
        # Docstrings are required on the public module/class-level
        # surface only — nested helpers are implementation detail.
        parent = parents[-1] if parents else None
        if not isinstance(parent, (ast.Module, ast.ClassDef)):
            return
        if not _has_docstring(node):
            where = f"{parent.name}.{node.name}" if isinstance(parent, ast.ClassDef) else node.name
            ctx.report(node, self.rule, f"public function {where}() is missing a docstring")


@register
class TelemetryHygieneChecker(Checker):
    """RPR106: metric naming conventions and bounded label cardinality."""

    rule = "RPR106"
    name = "telemetry-hygiene"
    rationale = "inconsistent names and unbounded labels make metrics unusable"

    #: Metric declaration methods on a registry, keyed by required suffix
    #: rule.  Counters must count (``*_total``); histograms must name
    #: their unit; gauges are instantaneous so ``*_total`` is a lie.
    DECLARATIONS = ("counter", "gauge", "histogram")
    HISTOGRAM_SUFFIXES = ("_seconds", "_bytes")
    #: Methods that take ``**labels``; their keyword values must not be
    #: interpolated from runtime data.
    LABELED_UPDATES = ("inc", "dec", "set", "observe", "labels")

    _NAME_RE = re.compile(r"^[a-z][a-z0-9_]*$")

    def visit(self, node: ast.AST, parents: list[ast.AST], ctx: CheckerContext) -> None:
        if not isinstance(node, ast.Call) or not isinstance(node.func, ast.Attribute):
            return
        method = node.func.attr
        if method in self.DECLARATIONS:
            self._check_declaration(node, method, ctx)
        if method in self.LABELED_UPDATES:
            self._check_label_values(node, method, ctx)

    def _metric_name(self, node: ast.Call) -> str | None:
        """The declared metric name, when statically known."""
        candidates = list(node.args[:1]) + [kw.value for kw in node.keywords if kw.arg == "name"]
        for arg in candidates:
            if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                return arg.value
        return None

    def _check_declaration(self, node: ast.Call, kind: str, ctx: CheckerContext) -> None:
        name = self._metric_name(node)
        if name is None:
            return
        if not self._NAME_RE.match(name):
            ctx.report(
                node,
                self.rule,
                f"metric name {name!r} is not snake_case ([a-z][a-z0-9_]*)",
            )
            return
        if kind == "counter" and not name.endswith("_total"):
            ctx.report(
                node,
                self.rule,
                f"counter {name!r} must end in '_total' (it only ever increases)",
            )
        elif kind == "histogram" and not name.endswith(self.HISTOGRAM_SUFFIXES):
            ctx.report(
                node,
                self.rule,
                f"histogram {name!r} must name its unit "
                f"(suffix one of {', '.join(self.HISTOGRAM_SUFFIXES)})",
            )
        elif kind == "gauge" and name.endswith("_total"):
            ctx.report(
                node,
                self.rule,
                f"gauge {name!r} must not end in '_total'; "
                "an instantaneous reading is not a running count",
            )

    def _check_label_values(self, node: ast.Call, method: str, ctx: CheckerContext) -> None:
        for kw in node.keywords:
            if kw.arg is None:
                continue
            value = kw.value
            dynamic = isinstance(value, ast.JoinedStr) or (
                isinstance(value, ast.Call)
                and isinstance(value.func, ast.Attribute)
                and value.func.attr == "format"
            )
            if dynamic:
                ctx.report(
                    value,
                    self.rule,
                    f"label {kw.arg}={{interpolated string}} passed to .{method}(); "
                    "interpolating runtime data into label values mints unbounded "
                    "cardinality — use a fixed label set (e.g. a route template)",
                )
