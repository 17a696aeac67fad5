"""Pass and PassManager: registered, toggleable optimization passes.

The optimization stage of the synthesis pipeline is no longer a
hard-coded call sequence buried in the engine: each SPF transformation is
a registered :class:`Pass` with a canonical position (:attr:`Pass.order`),
and a :class:`PassManager` resolves which passes run for a given request
(``optimize=`` flag, explicitly requested opt-in passes, ``--disable-pass``
exclusions) into an immutable :class:`PassConfig`.

Determinism: passes execute in canonical ``(order, name)`` position, never
in registration order, so re-registering passes in any order produces
byte-identical inspectors (pinned by test).  The resolved config has a
stable :meth:`PassManager.fingerprint` which the synthesis cache folds
into its keys — disabling a pass can never be served a cached inspector
built with the full pipeline.

Observability: every pass run is wrapped in a ``pass.<name>`` span (child
of the ``synthesis.optimize`` stage span under tracing) and observed in
the ``repro_pass_seconds{pass}`` histogram, whose ``_count`` is the run
count; ``repro_pass_statements_changed`` counts removed or rewritten
statements.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

import repro.obs as obs

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.spf import Computation, SymbolTable

_PASS_SECONDS = obs.histogram(
    "repro_pass_seconds", "optimization pass wall time by pass"
)
_PASS_CHANGED = obs.counter(
    "repro_pass_statements_changed",
    "statements removed or rewritten by passes",
)

#: Canonical name of the opt-in Figure 3 rewrite (the ``binary_search=``
#: flag resolves to requesting this pass).
BINARY_SEARCH = "binary-search"


@dataclass
class PassContext:
    """Everything a pass may read or mutate.

    ``comp`` is transformed in place; ``returns`` is the live-out set DCE
    preserves; ``notes`` collects the human-readable decision log surfaced
    as ``SynthesizedConversion.notes``.
    """

    comp: "Computation"
    returns: tuple[str, ...]
    symtab: "SymbolTable"
    notes: list[str] = field(default_factory=list)
    #: Name of the permutation object, so passes can report its
    #: elimination without importing the synthesis layer.
    permutation_name: str = "P"


@dataclass(frozen=True)
class Pass:
    """One registered transformation over a :class:`Computation`.

    ``run`` mutates ``ctx.comp`` and returns how many statements it
    changed/removed/rewrote (0 for a no-op).  ``order`` fixes the pass's
    canonical position in the pipeline — lower runs earlier — independent
    of registration order.  ``opt_in`` passes only run when explicitly
    requested (e.g. the binary-search rewrite behind ``binary_search=``).
    """

    name: str
    description: str
    run: Callable[[PassContext], int]
    order: int = 100
    opt_in: bool = False

    def describe(self) -> dict:
        return {
            "name": self.name,
            "description": self.description,
            "order": self.order,
            "opt_in": self.opt_in,
        }


@dataclass(frozen=True)
class PassConfig:
    """A resolved, immutable pipeline: the passes that will run, in order."""

    enabled: tuple[str, ...]

    def __contains__(self, name: str) -> bool:
        return name in self.enabled


@dataclass(frozen=True)
class PassResult:
    """What one pass did to one computation."""

    name: str
    changed: int
    stmts_before: int
    stmts_after: int
    seconds: float


class PassManager:
    """Thread-safe registry + runner for optimization passes."""

    def __init__(self):
        self._lock = threading.RLock()
        self._passes: dict[str, Pass] = {}

    # -- registry ------------------------------------------------------
    def register(self, p: Pass, *, replace: bool = False) -> Pass:
        with self._lock:
            if p.name in self._passes and not replace:
                raise ValueError(
                    f"pass {p.name!r} is already registered "
                    "(pass replace=True to override)"
                )
            self._passes[p.name] = p
        return p

    def unregister(self, name: str) -> Pass | None:
        """Remove a pass (mainly for tests); returns it if present."""
        with self._lock:
            return self._passes.pop(name, None)

    def get(self, name: str) -> Pass:
        with self._lock:
            found = self._passes.get(name)
        if found is None:
            raise ValueError(f"unknown optimization pass {name!r}")
        return found

    def passes(self) -> tuple[Pass, ...]:
        """All registered passes in canonical ``(order, name)`` position."""
        with self._lock:
            registered = list(self._passes.values())
        return tuple(sorted(registered, key=lambda p: (p.order, p.name)))

    def names(self) -> tuple[str, ...]:
        return tuple(p.name for p in self.passes())

    # -- configuration -------------------------------------------------
    def config(
        self,
        *,
        optimize: bool = True,
        requested: Iterable[str] = (),
        disabled: Sequence[str] = (),
    ) -> PassConfig:
        """Resolve flags into the ordered tuple of passes that will run.

        ``optimize`` enables every non-opt-in pass; ``requested`` names
        opt-in passes to add; ``disabled`` removes passes by name (and
        validates them, so a CLI typo fails loudly instead of silently
        running the full pipeline).
        """
        known = {p.name for p in self.passes()}
        for name in list(requested) + list(disabled):
            if name not in known:
                raise ValueError(
                    f"unknown optimization pass {name!r}; "
                    f"registered passes: {', '.join(sorted(known))}"
                )
        requested_set = set(requested)
        disabled_set = set(disabled)
        enabled = tuple(
            p.name
            for p in self.passes()
            if p.name not in disabled_set
            and (p.name in requested_set if p.opt_in else optimize)
        )
        return PassConfig(enabled=enabled)

    def fingerprint(self, config: PassConfig) -> str:
        """Stable identity of a resolved pipeline, for cache keys."""
        return ",".join(config.enabled) if config.enabled else "none"

    # -- execution -----------------------------------------------------
    def run(
        self, ctx: PassContext, config: PassConfig
    ) -> list[PassResult]:
        """Run the configured passes over ``ctx.comp``, in order.

        Each pass gets a ``pass.<name>`` span (with before/after statement
        counts), one ``repro_pass_seconds`` observation, and adds what it
        changed to ``repro_pass_statements_changed``.
        """
        results: list[PassResult] = []
        for name in config.enabled:
            p = self.get(name)
            before = len(ctx.comp.stmts)
            start = time.perf_counter()
            with obs.span(f"pass.{name}", category="pass") as span:
                changed = int(p.run(ctx) or 0)
            elapsed = time.perf_counter() - start
            after = len(ctx.comp.stmts)
            _PASS_SECONDS.observe(elapsed, **{"pass": name})
            span.set(changed=changed, stmts_before=before, stmts_after=after)
            if changed:
                _PASS_CHANGED.inc(changed, **{"pass": name})
            results.append(
                PassResult(
                    name=name,
                    changed=changed,
                    stmts_before=before,
                    stmts_after=after,
                    seconds=elapsed,
                )
            )
        return results


#: The process-wide pass registry the synthesis engine runs.
PASSES = PassManager()
