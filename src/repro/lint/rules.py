"""The domain rule catalog (see ``docs/static-analysis.md``).

Determinism (DET)
    DET001  legacy NumPy global-state RNG (``np.random.seed`` & friends)
    DET002  stdlib ``random`` module in library code
    DET003  wall-clock time used as a seed
    DET004  ``np.random.default_rng()`` with no seed (OS entropy)

Dtype discipline (DTY)
    DTY001  array constructor without explicit ``dtype=`` in hot modules
    DTY002  float32 outside the declared fp32 allowlist

Autodiff contracts (ADF)
    ADF001  tape op registered without a local VJP closure
    ADF002  differentiable kernel without a gradcheck cross-reference
    ADF003  VJP tests ``.requires_grad`` instead of the sweep's check

Conventions (CNV)
    CNV001  telemetry metric/span naming (+ cross-file kind consistency)
    CNV002  fault-site string not in ``resilience.faults.KNOWN_SITES``
    CNV003  broad exception handler that can swallow KeyboardInterrupt

Backend dispatch (BKD)
    BKD001  raw ``np.`` hot-path call in a backend-dispatched module

Every rule yields violations anchored to the offending line so a
``# lint: ignore[ID] — reason`` suppression sits next to the code it
justifies.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from .engine import LintConfig, SourceFile, rule

__all__: list[str] = []

# legacy np.random.* functions that mutate or read hidden global state
LEGACY_NP_RANDOM = frozenset({
    "seed", "rand", "randn", "randint", "random", "random_sample", "ranf",
    "sample", "choice", "shuffle", "permutation", "uniform", "normal",
    "standard_normal", "binomial", "poisson", "exponential", "beta",
    "gamma", "get_state", "set_state",
})

# np.random attributes that are explicitly fine (the Generator API)
GENERATOR_API = frozenset({"default_rng", "Generator", "SeedSequence",
                           "PCG64", "BitGenerator", "Philox", "SFC64"})

TIME_SOURCES = frozenset({"time", "time_ns", "perf_counter",
                          "perf_counter_ns", "monotonic", "monotonic_ns"})

SEED_SINKS = frozenset({"seed", "default_rng", "SeedSequence", "spawn_rngs",
                        "seed_everything", "make_rng", "arm", "arm_faults"})

CONSTRUCTORS_NEEDING_DTYPE = frozenset({"empty", "zeros", "ones", "full"})

METRIC_METHODS = frozenset({"counter", "gauge", "histogram", "series"})
METRIC_NAME_RE = re.compile(r"^[a-z0-9_]+(\.[a-z0-9_]+)+$")
SPAN_NAME_RE = re.compile(r"^[a-z0-9_]+([/.][a-z0-9_]+)*$")

FAULT_METHODS = frozenset({"fire", "raise_if"})

# array-namespace functions the backend registry dispatches: a raw np.*
# call to one of these inside a backend-dispatched module bypasses the
# seam and would silently stay on the host under a device backend
BACKEND_DISPATCHED = frozenset({
    "exp", "log", "sqrt", "tanh", "sin", "cos", "where", "clip",
    "matmul", "einsum", "outer", "maximum", "minimum", "concatenate",
    "stack", "split", "bincount", "sign", "abs", "dot",
})

# ufunc `.at` scatter calls with a dedicated backend primitive
BACKEND_SCATTER_AT = {"add": "index_add", "maximum": "index_max"}

# modules refactored to dispatch through repro.backend: everything under
# autodiff/ plus the specific gns/nn hot files (engine, network, mlp)
BACKEND_HOT_FILES = ("nn/mlp.py", "gns/network.py", "gns/engine.py")


def _attr_chain(node: ast.AST) -> list[str]:
    """``np.random.seed`` -> ``["np", "random", "seed"]`` (or [])."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        parts.reverse()
        return parts
    return []


def _is_numpy_root(name: str) -> bool:
    return name in ("np", "numpy")


def _loc(node: ast.AST) -> tuple[int, int]:
    return node.lineno, node.col_offset


def _has_kwarg(call: ast.Call, name: str) -> bool:
    return any(kw.arg == name for kw in call.keywords)


def _walk_calls(tree: ast.AST) -> Iterator[ast.Call]:
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            yield node


# ----------------------------------------------------------------------
# DET — determinism
# ----------------------------------------------------------------------

@rule("DET001", "numpy-global-rng")
def det001(source: SourceFile, config: LintConfig):
    """Legacy ``np.random.*`` calls draw from (or mutate) NumPy's hidden
    global state, so two call sites silently couple their streams and a
    resumed run cannot replay them. Route RNG through an explicit
    ``np.random.Generator`` from :mod:`repro.utils.seeding`."""
    for call in _walk_calls(source.tree):
        chain = _attr_chain(call.func)
        if (len(chain) == 3 and _is_numpy_root(chain[0])
                and chain[1] == "random" and chain[2] in LEGACY_NP_RANDOM):
            yield (*_loc(call), f"legacy global-state RNG "
                   f"'{'.'.join(chain)}' — use an explicit Generator from "
                   f"repro.utils.seeding")


@rule("DET002", "stdlib-random")
def det002(source: SourceFile, config: LintConfig):
    """The stdlib ``random`` module is a process-global PRNG with no
    place in seeded numerical code; nothing downstream can replay it."""
    for node in ast.walk(source.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "random":
                    yield (*_loc(node), "stdlib 'random' import — use "
                           "numpy Generators from repro.utils.seeding")
        elif isinstance(node, ast.ImportFrom):
            if node.module == "random" and node.level == 0:
                yield (*_loc(node), "stdlib 'random' import — use "
                       "numpy Generators from repro.utils.seeding")


@rule("DET003", "time-seed")
def det003(source: SourceFile, config: LintConfig):
    """Seeding from the wall clock makes every run unrepeatable —
    the exact failure mode the bitwise kill-and-resume tests exist to
    prevent."""
    for call in _walk_calls(source.tree):
        chain = _attr_chain(call.func)
        if not chain or chain[-1] not in SEED_SINKS:
            continue
        args = list(call.args) + [kw.value for kw in call.keywords]
        for arg in args:
            if isinstance(arg, ast.Call):
                sub = _attr_chain(arg.func)
                if sub and sub[-1] in TIME_SOURCES and (
                        len(sub) == 1 or sub[0] == "time"):
                    yield (*_loc(call), f"seed derived from wall clock "
                           f"('{'.'.join(sub)}') — pass an explicit seed")


@rule("DET004", "unseeded-generator")
def det004(source: SourceFile, config: LintConfig):
    """``np.random.default_rng()`` with no arguments pulls OS entropy;
    the resulting stream can never be replayed. Always pass a seed or a
    spawned ``SeedSequence``."""
    for call in _walk_calls(source.tree):
        chain = _attr_chain(call.func)
        if not chain or chain[-1] != "default_rng":
            continue
        if len(chain) == 3 and not (_is_numpy_root(chain[0])
                                    and chain[1] == "random"):
            continue
        if not call.args and not call.keywords:
            yield (*_loc(call), "default_rng() without a seed draws OS "
                   "entropy — pass a seed or SeedSequence")


# ----------------------------------------------------------------------
# DTY — dtype discipline
# ----------------------------------------------------------------------

def _in_hot_module(rel: str, config: LintConfig) -> bool:
    parts = rel.replace("\\", "/").split("/")
    return any(hot in parts for hot in config.hot_modules)


@rule("DTY001", "constructor-dtype")
def dty001(source: SourceFile, config: LintConfig):
    """In the hot modules every allocation states its dtype. Implicit
    float64 is *today's* default; under the planned fp32 inference mode
    and pluggable backends an unannotated constructor is where silent
    promotion starts."""
    if not _in_hot_module(source.rel, config):
        return
    for call in _walk_calls(source.tree):
        chain = _attr_chain(call.func)
        if (len(chain) == 2 and _is_numpy_root(chain[0])
                and chain[1] in CONSTRUCTORS_NEEDING_DTYPE
                and not _has_kwarg(call, "dtype")):
            yield (*_loc(call), f"np.{chain[1]} without explicit dtype= in "
                   f"a hot module — state the dtype (float64 unless in the "
                   f"fp32 allowlist)")


@rule("DTY002", "float32-outside-allowlist")
def dty002(source: SourceFile, config: LintConfig):
    """float32 is allowed only where the fp32 inference mode declares it
    (file pragma ``# repro-lint: fp32-ok`` or the config allowlist);
    anywhere else it silently halves precision of f64-bitwise paths."""
    if "fp32-ok" in source.pragmas:
        return
    if any(source.rel.endswith(sfx) for sfx in config.fp32_allowlist):
        return
    for node in ast.walk(source.tree):
        if isinstance(node, ast.Attribute) and node.attr in ("float32",
                                                             "single"):
            chain = _attr_chain(node)
            if chain and _is_numpy_root(chain[0]):
                yield (*_loc(node), "float32 outside the fp32 allowlist — "
                       "add '# repro-lint: fp32-ok' if this file is part "
                       "of the fp32 inference mode")
        elif (isinstance(node, ast.Constant) and node.value == "float32"):
            yield (*_loc(node), "float32 dtype string outside the fp32 "
                   "allowlist")


# ----------------------------------------------------------------------
# ADF — autodiff contracts
# ----------------------------------------------------------------------

def _is_make_call(call: ast.Call) -> bool:
    chain = _attr_chain(call.func)
    return bool(chain) and chain[-1] == "_make"


def _local_defs(fn: ast.AST) -> set[str]:
    names = set()
    for node in ast.walk(fn):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names.add(node.name)
    return names


def _vjp_argument(call: ast.Call) -> ast.AST | None:
    """The backward argument of a ``Tensor._make`` call, if any."""
    if len(call.args) >= 3:
        return call.args[2]
    for kw in call.keywords:
        if kw.arg == "backward_fn":
            return kw.value
    return None


def _in_autodiff(source: SourceFile) -> bool:
    return "autodiff" in source.rel.replace("\\", "/").split("/")


@rule("ADF001", "vjp-complete", scope="project")
def adf001(sources, ref_sources, config: LintConfig):
    """Every tape op registered through ``Tensor._make`` must pass a VJP
    closure defined in the same scope. A missing or dangling backward
    argument means a primitive exists whose gradient silently never
    flows — the inverse problem would converge to garbage."""
    for source in sources:
        if not _in_autodiff(source):
            continue
        for fn in ast.walk(source.tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            local = _local_defs(fn)
            for call in _walk_calls(fn):
                if not _is_make_call(call):
                    continue
                backward_arg = _vjp_argument(call)
                if backward_arg is None:
                    yield (source, *_loc(call),
                           "tape op registered without a VJP argument")
                elif isinstance(backward_arg, ast.Name):
                    if backward_arg.id not in local:
                        yield (source, *_loc(call),
                               f"VJP '{backward_arg.id}' is not defined in "
                               f"the registering scope")
                # Lambda / attribute VJPs are accepted as-is


def _vjp_functions(tree: ast.AST) -> list[ast.AST]:
    """Functions that run inside a backward sweep: every closure or
    lambda registered as a VJP through ``Tensor._make``, and every
    function that receives the sweep's gradient mapping as ``grads``."""
    found: dict[int, ast.AST] = {}
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.Lambda)):
            continue
        args = fn.args
        if "grads" in {a.arg for a in args.posonlyargs + args.args
                       + args.kwonlyargs}:
            found[id(fn)] = fn
        if isinstance(fn, ast.Lambda):
            continue
        local = {node.name: node for node in ast.walk(fn)
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                 and node is not fn}
        for call in _walk_calls(fn):
            arg = _vjp_argument(call) if _is_make_call(call) else None
            if isinstance(arg, ast.Lambda):
                found[id(arg)] = arg
            elif isinstance(arg, ast.Name) and arg.id in local:
                found[id(local[arg.id])] = local[arg.id]
    return list(found.values())


@rule("ADF003", "vjp-pruning")
def adf003(source: SourceFile, config: LintConfig):
    """A VJP under ``autodiff/`` decides which parents to differentiate
    with the sweep's ``grads.wants(t)``, never ``t.requires_grad``:
    ``backward(inputs=...)`` prunes parents that still require grad
    (the GNS weights during an inversion), and a VJP that tests the
    flag computes the pruned weight GEMMs anyway."""
    if not _in_autodiff(source):
        return
    for fn in _vjp_functions(source.tree):
        for node in ast.walk(fn):
            if (isinstance(node, ast.Attribute)
                    and node.attr == "requires_grad"
                    and isinstance(node.ctx, ast.Load)):
                yield (*_loc(node), "VJP tests '.requires_grad' — ask the "
                       "sweep with 'grads.wants(t)' so backward(inputs=...) "
                       "pruning holds")


def _tape_op_names(sources) -> dict[str, tuple[SourceFile, int]]:
    """Public differentiable kernels in fused.py / scatter.py: functions
    that register a tape node directly, or that call one that does."""
    direct: dict[str, tuple[SourceFile, int]] = {}
    composed: dict[str, tuple[SourceFile, int, set[str]]] = {}
    for source in sources:
        rel = source.rel.replace("\\", "/")
        if not (rel.endswith("autodiff/fused.py")
                or rel.endswith("autodiff/scatter.py")):
            continue
        for fn in source.tree.body:
            if not isinstance(fn, ast.FunctionDef) or fn.name.startswith("_"):
                continue
            calls = {(_attr_chain(c.func) or ["?"])[-1]
                     for c in _walk_calls(fn)}
            if "_make" in calls or "backward" in _local_defs(fn):
                direct[fn.name] = (source, fn.lineno)
            else:
                composed[fn.name] = (source, fn.lineno, calls)
    for name, (source, lineno, calls) in composed.items():
        if calls & set(direct):
            direct[name] = (source, lineno)
    return direct


@rule("ADF002", "gradcheck-coverage", scope="project")
def adf002(sources, ref_sources, config: LintConfig):
    """Every differentiable kernel in ``autodiff/fused.py`` and
    ``autodiff/scatter.py`` must be exercised by at least one test
    (static cross-reference against the test corpus): hand-written VJPs
    are exactly the gradients nothing else double-checks."""
    kernels = _tape_op_names(sources)
    if not kernels:
        return
    referenced: set[str] = set()
    for ref in ref_sources:
        if ref.tree is None:
            continue
        for node in ast.walk(ref.tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    for name, (source, lineno) in sorted(kernels.items()):
        if name not in referenced:
            yield (source, lineno, 0,
                   f"differentiable kernel '{name}' has no gradcheck "
                   f"cross-reference in the test corpus")


# ----------------------------------------------------------------------
# CNV — conventions
# ----------------------------------------------------------------------

@rule("CNV001", "telemetry-naming", scope="project")
def cnv001(sources, ref_sources, config: LintConfig):
    """Metric names are lowercase dotted paths (``pool.respawns``),
    span names lowercase slash/dot paths (``mpm/p2g``); one name must
    keep one metric kind everywhere, or the telemetry summary would
    merge incompatible payloads."""
    kinds: dict[str, tuple[str, SourceFile, int]] = {}
    for source in sources:
        for call in _walk_calls(source.tree):
            chain = _attr_chain(call.func)
            if not chain:
                continue
            method = chain[-1]
            if not call.args or not isinstance(call.args[0], ast.Constant):
                continue
            name = call.args[0].value
            if not isinstance(name, str):
                continue
            if method in METRIC_METHODS and len(chain) >= 2:
                if not METRIC_NAME_RE.match(name):
                    yield (source, *_loc(call),
                           f"metric name '{name}' is not a lowercase "
                           f"dotted path (e.g. 'pool.respawns')")
                    continue
                prev = kinds.get(name)
                if prev is None:
                    kinds[name] = (method, source, call.lineno)
                elif prev[0] != method:
                    yield (source, *_loc(call),
                           f"metric '{name}' registered as {method} here "
                           f"but as {prev[0]} at {prev[1].rel}:{prev[2]}")
            elif method == "span":
                if not SPAN_NAME_RE.match(name):
                    yield (source, *_loc(call),
                           f"span name '{name}' is not a lowercase "
                           f"slash path (e.g. 'mpm/p2g')")


def _known_fault_sites(sources) -> set[str] | None:
    for source in sources:
        if not source.rel.replace("\\", "/").endswith("resilience/faults.py"):
            continue
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Assign):
                continue
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
            if "KNOWN_SITES" not in targets:
                continue
            sites = set()
            for const in ast.walk(node.value):
                if isinstance(const, ast.Constant) and isinstance(const.value,
                                                                  str):
                    sites.add(const.value)
            return sites
    return None


@rule("CNV002", "fault-site-exists", scope="project")
def cnv002(sources, ref_sources, config: LintConfig):
    """Fault-site strings passed to ``fire()``/``raise_if()`` must exist
    in ``resilience.faults.KNOWN_SITES`` — a typo'd site is a chaos test
    that silently never fires."""
    known = _known_fault_sites(sources)
    if known is None:
        return  # corpus does not include the faults module
    for source in sources:
        for call in _walk_calls(source.tree):
            chain = _attr_chain(call.func)
            if not chain or chain[-1] not in FAULT_METHODS or len(chain) < 2:
                continue
            if not call.args or not isinstance(call.args[0], ast.Constant):
                continue
            site = call.args[0].value
            if isinstance(site, str) and site not in known:
                yield (source, *_loc(call),
                       f"fault site '{site}' is not declared in "
                       f"resilience.faults.KNOWN_SITES")


def _handler_reraises(handler: ast.ExceptHandler) -> bool:
    for node in ast.walk(handler):
        if isinstance(node, ast.Raise):
            return True
    return False


def _catches(handler: ast.ExceptHandler, names: set[str]) -> bool:
    t = handler.type
    types = t.elts if isinstance(t, ast.Tuple) else [t] if t else []
    for node in types:
        chain = _attr_chain(node)
        if chain and chain[-1] in names:
            return True
    return False


# ----------------------------------------------------------------------
# BKD — backend dispatch
# ----------------------------------------------------------------------

def _backend_dispatched_file(rel: str) -> bool:
    rel = rel.replace("\\", "/")
    parts = rel.split("/")
    # the backend package itself is the NumPy implementation, not a caller
    if "backend" in parts:
        return False
    if "autodiff" in parts:
        return True
    return any(rel.endswith(sfx) for sfx in BACKEND_HOT_FILES)


@rule("BKD001", "backend-dispatch")
def bkd001(source: SourceFile, config: LintConfig):
    """Hot modules refactored onto the array-backend registry must route
    dispatched operations through the active backend (``xp =
    active_xp()`` / a pinned handle), not call ``np.*`` directly — a raw
    call silently stays on the host under a device backend and splits
    the forward/backward namespaces. The NumPy reference kernels
    themselves opt out with ``# repro-lint: backend-kernels``; host-only
    code (guards, IO, index bookkeeping) uses a targeted
    ``# lint: ignore[BKD001]``."""
    if "backend-kernels" in source.pragmas:
        return
    if not _backend_dispatched_file(source.rel):
        return
    for call in _walk_calls(source.tree):
        chain = _attr_chain(call.func)
        if not chain or not _is_numpy_root(chain[0]):
            continue
        if len(chain) == 2 and chain[1] in BACKEND_DISPATCHED:
            yield (*_loc(call), f"raw np.{chain[1]} in a backend-dispatched "
                   f"module — use the active backend's namespace "
                   f"(xp.{chain[1]}) or a pinned backend handle")
        elif (len(chain) == 3 and chain[2] == "at"
                and chain[1] in BACKEND_SCATTER_AT):
            yield (*_loc(call), f"raw np.{chain[1]}.at in a "
                   f"backend-dispatched module — use the backend's "
                   f"{BACKEND_SCATTER_AT[chain[1]]} primitive")


@rule("CNV003", "broad-except")
def cnv003(source: SourceFile, config: LintConfig):
    """A ``except Exception:`` that neither re-raises nor sits behind an
    explicit ``except (KeyboardInterrupt, SystemExit): raise`` handler
    swallows Ctrl-C in worker loops; a bare ``except:`` additionally
    eats SystemExit. Catch the specific failures the call site can
    actually produce."""
    for node in ast.walk(source.tree):
        if not isinstance(node, ast.Try):
            continue
        shielded = False
        for handler in node.handlers:
            if handler.type is None:
                yield (*_loc(handler), "bare 'except:' — name the "
                       "exception types this site can produce")
                continue
            if _catches(handler, {"KeyboardInterrupt", "SystemExit"}):
                if _handler_reraises(handler):
                    shielded = True
                continue
            if _catches(handler, {"Exception", "BaseException"}):
                if _handler_reraises(handler) or shielded:
                    continue
                yield (*_loc(handler), "broad 'except Exception' without "
                       "re-raise — narrow the types or add a preceding "
                       "'except (KeyboardInterrupt, SystemExit): raise'")
