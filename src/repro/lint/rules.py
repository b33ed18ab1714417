"""The reprolint ruleset: the repo's contracts as machine-checked rules.

=======  ==================================================================
rule     contract
=======  ==================================================================
RPL001   one scheduler: no executor/pool construction outside
         ``runtime/scheduler.py`` (the PR-5 single-pool rule)
RPL002   seed contract: no RNG construction outside the sanctioned entry
         points (``immunity/montecarlo.py``, ``study/spec.py``) — every
         other surface accepts ``SeedLike``
RPL004   execution blindness: ``jobs``/``workers``/``chunk_size`` never
         flow into a ``*fingerprint`` call
RPL005   atomic writes: no direct file writes under ``runtime/`` outside
         the ``_write_atomic`` helper and the segment log's segment
         opener ``_SegmentLog._segment``
RPL006   no mutable default arguments
RPL007   registry consistency: every ``StudyResult`` subclass declares a
         ``study_name`` (the ``from_json`` dispatch key), and every study
         the registry defines has a result class carrying that name
RPL008   no bare ``except:`` and no ``except Exception: pass``
RPL009   one concurrency surface: no ``threading`` primitive construction
         (``Thread``/``Lock``/``Condition``/...) outside
         ``runtime/scheduler.py`` and ``service/jobs.py``
RPL010   clock confinement: wall-clock/monotonic reads only inside the
         ``obs/`` package — everything else takes time through
         ``repro.obs.clock``
=======  ==================================================================

Rules resolve dotted names through each module's import aliases
(:meth:`~repro.lint.engine.ModuleInfo.resolve`), so ``np.random.
default_rng``, ``numpy.random.default_rng`` and ``from numpy.random
import default_rng as rng`` all hit the same check.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Sequence, Set

from .engine import Finding, ModuleInfo, Rule, register

#: The execution-selection parameters the determinism contract makes
#: result-invariant; they must never reach a content address (RPL004).
EXECUTION_IDENTIFIERS = frozenset({"jobs", "workers", "chunk_size"})

_EXECUTOR_NAMES = frozenset({"ProcessPoolExecutor", "ThreadPoolExecutor"})
_POOL_ATTRS = frozenset({"Pool", "Process"})


@register
class SingleSchedulerRule(Rule):
    """RPL001 — executor/pool construction only in ``runtime/scheduler.py``.

    Flags imports of, references to, and calls of
    ``ProcessPoolExecutor``/``ThreadPoolExecutor`` and
    ``multiprocessing`` pools anywhere else: every parallel code path
    must lower onto :func:`repro.runtime.scheduler.run_tasks`, the
    repo's one pool implementation.
    """

    id = "RPL001"
    summary = ("no executor/pool construction outside runtime/scheduler.py "
               "(single-scheduler rule)")
    ALLOWED = ("runtime/scheduler.py",)

    def check_module(self, module: ModuleInfo) -> Iterator[Finding]:
        if module.in_module(*self.ALLOWED):
            return
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ImportFrom):
                base = (node.module or "").split(".", 1)[0]
                for alias in node.names:
                    if (node.module == "concurrent.futures"
                            and alias.name in _EXECUTOR_NAMES) or (
                            base == "multiprocessing"
                            and alias.name in _POOL_ATTRS):
                        yield module.finding(
                            self, node,
                            f"import of {alias.name} outside the runtime "
                            "scheduler — route parallel work through "
                            "repro.runtime.scheduler.run_tasks",
                        )
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".", 1)[0] == "multiprocessing":
                        yield module.finding(
                            self, node,
                            f"import of {alias.name} outside the runtime "
                            "scheduler — route parallel work through "
                            "repro.runtime.scheduler.run_tasks",
                        )
            elif isinstance(node, ast.Name) and node.id in _EXECUTOR_NAMES:
                yield module.finding(
                    self, node,
                    f"reference to {node.id} outside the runtime scheduler "
                    "— the repo has exactly one pool implementation",
                )
            elif isinstance(node, ast.Attribute) \
                    and node.attr in _EXECUTOR_NAMES:
                yield module.finding(
                    self, node,
                    f"reference to {node.attr} outside the runtime scheduler "
                    "— the repo has exactly one pool implementation",
                )
            elif isinstance(node, ast.Call):
                canonical = module.resolve(node.func) or ""
                if canonical.startswith("multiprocessing.") \
                        and canonical.rsplit(".", 1)[-1] in _POOL_ATTRS:
                    yield module.finding(
                        self, node,
                        f"{canonical}() outside the runtime scheduler — "
                        "route parallel work through run_tasks",
                    )


@register
class SeedContractRule(Rule):
    """RPL002 — RNG construction only in the seed-contract entry points.

    ``numpy.random`` generator construction and legacy global draws, and
    stdlib ``random`` usage, are confined to ``immunity/montecarlo.py``
    and ``study/spec.py``; every other surface must accept ``SeedLike``
    and delegate.  ``numpy.random.SeedSequence`` construction is seed
    *plumbing*, not RNG construction, and stays allowed everywhere.
    """

    id = "RPL002"
    summary = ("no RNG construction outside immunity/montecarlo.py and "
               "study/spec.py (SeedLike contract)")
    ALLOWED = ("immunity/montecarlo.py", "study/spec.py")

    def check_module(self, module: ModuleInfo) -> Iterator[Finding]:
        if module.in_module(*self.ALLOWED):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            canonical = module.resolve(node.func)
            if canonical is None:
                continue
            if canonical.startswith("numpy.random.") \
                    and canonical != "numpy.random.SeedSequence":
                yield module.finding(
                    self, node,
                    f"{canonical}() constructs an RNG outside the seed-"
                    "contract entry points — accept SeedLike and delegate "
                    "to montecarlo/spec seeding",
                )
            elif canonical.startswith("random.") \
                    and self._names_stdlib_random(module, node.func):
                yield module.finding(
                    self, node,
                    f"stdlib {canonical}() bypasses the SeedLike contract "
                    "— use the sanctioned numpy seeding entry points",
                )

    @staticmethod
    def _names_stdlib_random(module: ModuleInfo, func: ast.AST) -> bool:
        """True only when the chain's root really is an imported name —
        a local variable that happens to be called ``random`` is not the
        stdlib module."""
        node = func
        while isinstance(node, ast.Attribute):
            node = node.value
        return isinstance(node, ast.Name) and module.is_imported(node.id)


@register
class ExecutionBlindRule(Rule):
    """RPL004 — execution parameters never reach a fingerprint call.

    ``jobs``/``workers``/``chunk_size`` select *how* a study
    executes, never *what* it computes; if one flows into a
    ``*fingerprint(...)`` argument, identical work would hash to
    different addresses under different scheduling.
    """

    id = "RPL004"
    summary = ("jobs/workers/chunk_size must not flow into "
               "fingerprint calls (execution-blind addresses)")

    def check_module(self, module: ModuleInfo) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            canonical = module.resolve(node.func) or ""
            target = canonical.rsplit(".", 1)[-1]
            if not target.endswith("fingerprint"):
                continue
            offenders: Set[str] = set()
            for keyword in node.keywords:
                if keyword.arg in EXECUTION_IDENTIFIERS:
                    offenders.add(keyword.arg)
            subtrees = list(node.args) + [kw.value for kw in node.keywords]
            for subtree in subtrees:
                for child in ast.walk(subtree):
                    if isinstance(child, ast.Name) \
                            and child.id in EXECUTION_IDENTIFIERS:
                        offenders.add(child.id)
            for name in sorted(offenders):
                yield module.finding(
                    self, node,
                    f"execution parameter {name!r} flows into {target}() — "
                    "content addresses must be execution-blind",
                )


@register
class AtomicWriteRule(Rule):
    """RPL005 — no direct file writes under ``runtime/``.

    The cache's crash-safety story is temp-file + ``os.replace`` in
    ``_write_atomic``, and whole records appended to a segment that
    ``_SegmentLog._segment`` opens; a stray ``open(..., "w")``,
    ``write_text`` or writing ``os.open`` under ``runtime/`` can leave
    readers half an entry.  The helper is sanctioned by its name (a
    function or method), the segment opener only as that method.
    """

    id = "RPL005"
    summary = ("no direct file writes under runtime/ outside the "
               "_write_atomic helper and _SegmentLog._segment")
    SANCTIONED = frozenset({"_write_atomic", "_SegmentLog._segment"})
    _WRITE_MODES = set("wax+")
    _WRITE_FLAGS = frozenset({"O_WRONLY", "O_RDWR", "O_APPEND", "O_CREAT",
                              "O_TRUNC"})

    def check_module(self, module: ModuleInfo) -> Iterator[Finding]:
        if not module.under("runtime"):
            return
        yield from self._scan(module, module.tree, (), sanctioned=False)

    def _scan(self, module: ModuleInfo, node: ast.AST, scope: tuple,
              sanctioned: bool) -> Iterator[Finding]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef,
                                  ast.AsyncFunctionDef)):
                inner = scope + (child.name,)
                yield from self._scan(
                    module, child, inner,
                    sanctioned or child.name in self.SANCTIONED
                    or ".".join(inner) in self.SANCTIONED,
                )
                continue
            if isinstance(child, ast.Call) and not sanctioned:
                finding = self._check_call(module, child)
                if finding is not None:
                    yield finding
            yield from self._scan(module, child, scope, sanctioned)

    def _check_call(self, module: ModuleInfo, node: ast.Call):
        canonical = module.resolve(node.func) or ""
        if isinstance(node.func, ast.Attribute) \
                and node.func.attr in ("write_text", "write_bytes"):
            return module.finding(
                self, node,
                f".{node.func.attr}() under runtime/ — write through the "
                "atomic temp-file + os.replace helper",
            )
        if canonical == "os.open":
            written = sorted(self._WRITE_FLAGS & self._flag_names(node))
            if not written:
                return None
            return module.finding(
                self, node,
                f"os.open(..., {'|'.join(written)}) under runtime/ — write "
                "through the atomic temp-file + os.replace helper",
            )
        if canonical not in ("open", "os.fdopen"):
            return None
        mode = self._mode_argument(node)
        if mode is not None and self._WRITE_MODES & set(mode):
            return module.finding(
                self, node,
                f"{canonical}(..., {mode!r}) under runtime/ — write through "
                "the atomic temp-file + os.replace helper",
            )
        return None

    @staticmethod
    def _flag_names(node: ast.Call) -> Set[str]:
        """The names an ``os.open`` call's flags expression mentions
        (``os.O_WRONLY | O_CREAT`` -> ``{"os", "O_WRONLY", "O_CREAT"}``)."""
        flags = node.args[1:2] + [keyword.value for keyword in node.keywords
                                  if keyword.arg == "flags"]
        return {sub.attr if isinstance(sub, ast.Attribute) else sub.id
                for expression in flags for sub in ast.walk(expression)
                if isinstance(sub, (ast.Attribute, ast.Name))}

    @staticmethod
    def _mode_argument(node: ast.Call):
        for keyword in node.keywords:
            if keyword.arg == "mode":
                value = keyword.value
                break
        else:
            if len(node.args) < 2:
                return None
            value = node.args[1]
        if isinstance(value, ast.Constant) and isinstance(value.value, str):
            return value.value
        return None


@register
class MutableDefaultRule(Rule):
    """RPL006 — no mutable default arguments.

    A ``def f(x=[])`` default is created once and shared across every
    call; state leaks between invocations, which is exactly the kind of
    hidden coupling a bit-identity codebase cannot afford.
    """

    id = "RPL006"
    summary = "no mutable default arguments"
    _LITERALS = (ast.List, ast.Dict, ast.Set,
                 ast.ListComp, ast.DictComp, ast.SetComp)
    _FACTORIES = frozenset({"list", "dict", "set", "bytearray"})

    def check_module(self, module: ModuleInfo) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.Lambda)):
                continue
            defaults = list(node.args.defaults) + [
                default for default in node.args.kw_defaults
                if default is not None
            ]
            label = getattr(node, "name", "<lambda>")
            for default in defaults:
                reason = self._mutable(default)
                if reason:
                    yield Finding(
                        rule=self.id,
                        path=module.rel,
                        line=default.lineno,
                        col=default.col_offset + 1,
                        message=f"mutable default argument ({reason}) on "
                                f"{label}() — default to None and build "
                                "inside the function",
                    )

    def _mutable(self, node: ast.AST) -> str:
        if isinstance(node, self._LITERALS):
            return type(node).__name__.lower().replace("comp", " comprehension")
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id in self._FACTORIES:
            return f"{node.func.id}()"
        return ""


@register
class ResultDispatchRule(Rule):
    """RPL007 — study registry and result dispatch stay consistent.

    Cross-module: a ``StudyResult`` subclass that forgets its
    ``study_name`` never registers in the ``from_json`` dispatch, so its
    envelopes silently fail to decode; and a study the registry defines
    whose name no result class carries would serialize results that
    nothing can round-trip.
    """

    id = "RPL007"
    summary = ("every StudyResult subclass declares a study_name and every "
               "registered study has a result class (from_json dispatch)")
    REGISTRY = ("study/registry.py",)
    BASE = "StudyResult"

    def check_project(self,
                      modules: Sequence[ModuleInfo]) -> Iterator[Finding]:
        declared: Set[str] = set()
        for module in modules:
            for node in ast.walk(module.tree):
                if not isinstance(node, ast.ClassDef) \
                        or node.name == self.BASE \
                        or not self._subclasses_result(module, node):
                    continue
                name = self._study_name(node)
                if name:
                    declared.add(name)
                else:
                    yield module.finding(
                        self, node,
                        f"class {node.name} subclasses StudyResult but "
                        "declares no study_name — it will never register "
                        "in the from_json dispatch",
                    )
        for module in modules:
            if not module.in_module(*self.REGISTRY):
                continue
            for node in ast.walk(module.tree):
                registered = self._registered_study(module, node)
                if registered and registered not in declared:
                    yield module.finding(
                        self, node,
                        f"study {registered!r} is registered but no "
                        "StudyResult subclass carries study_name="
                        f"{registered!r} — its envelopes cannot decode",
                    )

    def _subclasses_result(self, module: ModuleInfo,
                           node: ast.ClassDef) -> bool:
        for base in node.bases:
            canonical = module.resolve(base) or ""
            if canonical.rsplit(".", 1)[-1] == self.BASE:
                return True
        return False

    @staticmethod
    def _study_name(node: ast.ClassDef) -> str:
        for statement in node.body:
            target = None
            value = None
            if isinstance(statement, ast.AnnAssign) \
                    and isinstance(statement.target, ast.Name):
                target, value = statement.target.id, statement.value
            elif isinstance(statement, ast.Assign) \
                    and len(statement.targets) == 1 \
                    and isinstance(statement.targets[0], ast.Name):
                target, value = statement.targets[0].id, statement.value
            if target == "study_name" and isinstance(value, ast.Constant) \
                    and isinstance(value.value, str) and value.value:
                return value.value
        return ""

    @staticmethod
    def _registered_study(module: ModuleInfo, node: ast.AST) -> str:
        if not isinstance(node, ast.Call):
            return ""
        canonical = module.resolve(node.func) or ""
        if canonical.rsplit(".", 1)[-1] != "StudyDefinition":
            return ""
        if node.args and isinstance(node.args[0], ast.Constant) \
                and isinstance(node.args[0].value, str):
            return node.args[0].value
        for keyword in node.keywords:
            if keyword.arg == "name" \
                    and isinstance(keyword.value, ast.Constant) \
                    and isinstance(keyword.value.value, str):
                return keyword.value.value
        return ""


@register
class NoSilentExceptRule(Rule):
    """RPL008 — no bare ``except:`` and no pass-only broad handlers.

    A bare ``except:`` swallows ``KeyboardInterrupt``/``SystemExit``; an
    ``except Exception: pass`` silently discards real failures.  Broad
    handlers with a real body (evict-and-degrade paths) stay legal.
    """

    id = "RPL008"
    summary = "no bare except: and no 'except Exception: pass'"
    _BROAD = frozenset({"Exception", "BaseException"})

    def check_module(self, module: ModuleInfo) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield module.finding(
                    self, node,
                    "bare except: swallows KeyboardInterrupt/SystemExit — "
                    "name the exception",
                )
            elif self._is_broad(module, node.type) \
                    and self._body_is_silent(node.body):
                name = (module.resolve(node.type) or "Exception")
                yield module.finding(
                    self, node,
                    f"except {name.rsplit('.', 1)[-1]}: pass silently "
                    "discards failures — handle, log or re-raise",
                )

    def _is_broad(self, module: ModuleInfo, node: ast.AST) -> bool:
        canonical = module.resolve(node) or ""
        return canonical.rsplit(".", 1)[-1] in self._BROAD

    @staticmethod
    def _body_is_silent(body: List[ast.stmt]) -> bool:
        for statement in body:
            if isinstance(statement, ast.Pass):
                continue
            if isinstance(statement, ast.Expr) \
                    and isinstance(statement.value, ast.Constant) \
                    and statement.value.value is Ellipsis:
                continue
            return False
        return True


@register
class SingleConcurrencySurfaceRule(Rule):
    """RPL009 — thread/lock construction only in the sanctioned modules.

    The sibling of RPL001 for raw :mod:`threading`: worker threads live
    in ``service/jobs.py``, and every lock in the codebase is minted by
    :func:`repro.runtime.scheduler.make_lock`, so a grep for concurrency
    machinery always lands on exactly two modules.  Flags construction
    calls of the primitive classes (``Thread``, ``Lock``, ``RLock``,
    ``Condition``, ``Event``, ``Semaphore``, ``BoundedSemaphore``,
    ``Barrier``, ``Timer``) and ``from threading import <primitive>``
    anywhere else; ``import threading`` alone stays legal (type
    annotations, ``current_thread`` introspection).
    """

    id = "RPL009"
    summary = ("no threading primitive construction outside "
               "runtime/scheduler.py and service/jobs.py "
               "(single concurrency surface)")
    ALLOWED = ("runtime/scheduler.py", "service/jobs.py")
    _PRIMITIVES = frozenset({
        "Thread", "Lock", "RLock", "Condition", "Event", "Semaphore",
        "BoundedSemaphore", "Barrier", "Timer",
    })

    def check_module(self, module: ModuleInfo) -> Iterator[Finding]:
        if module.in_module(*self.ALLOWED):
            return
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ImportFrom):
                if node.module != "threading":
                    continue
                for alias in node.names:
                    if alias.name in self._PRIMITIVES:
                        yield module.finding(
                            self, node,
                            f"import of threading.{alias.name} outside the "
                            "concurrency surface — spawn workers in "
                            "service/jobs.py, mint locks with "
                            "runtime.scheduler.make_lock()",
                        )
            elif isinstance(node, ast.Call):
                canonical = module.resolve(node.func) or ""
                prefix, _, target = canonical.rpartition(".")
                if prefix == "threading" and target in self._PRIMITIVES:
                    yield module.finding(
                        self, node,
                        f"{canonical}() constructed outside the concurrency "
                        "surface — spawn workers in service/jobs.py, mint "
                        "locks with runtime.scheduler.make_lock()",
                    )


@register
class ClockConfinementRule(Rule):
    """RPL010 — clocks are read only inside ``repro/obs``.

    The observability layer's hard contract is that tracing is
    observation-only; the enforceable half of that is *where time can be
    read at all*.  Every ``time.time``/``time.monotonic``/
    ``time.perf_counter``/``datetime.now``-family call outside the
    ``obs/`` package is flagged — instrumented layers take their
    timestamps through :mod:`repro.obs.clock` (or record them via
    :mod:`repro.obs.trace` spans), so no numeric path can branch on a
    clock without tripping this rule.  That includes the fingerprint and
    canonical-serialization modules, whose content addresses must be
    stable across runs.
    """

    id = "RPL010"
    summary = ("wall-clock/monotonic reads only inside the obs/ package "
               "(read time through repro.obs.clock)")
    CLOCKS = frozenset({
        "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
        "time.perf_counter", "time.perf_counter_ns", "time.localtime",
        "time.gmtime", "datetime.datetime.now", "datetime.datetime.utcnow",
        "datetime.datetime.today", "datetime.date.today",
    })

    def check_module(self, module: ModuleInfo) -> Iterator[Finding]:
        if module.under("obs"):
            return
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                canonical = module.resolve(node.func)
                if canonical in self.CLOCKS:
                    yield module.finding(
                        self, node,
                        f"{canonical}() outside repro/obs — read clocks "
                        "through repro.obs.clock (or record spans via "
                        "repro.obs.trace)",
                    )
