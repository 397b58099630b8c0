"""The compile environment: what a design needs to become jobs.

A :class:`DesignEnv` carries everything about *how* a campaign runs that is
not part of the experimental design itself — grid scale, workload seed, the
baseline hardware configuration, telemetry riders and the simulator
backend.  Separating it from :class:`~repro.design.design.Design` is what
makes designs reusable: the same factorial declaration compiles to the
quick smoke matrix at ``scale=0.02`` and to the full evaluation at
``scale=1.0`` without being rewritten.

:func:`build_job` is the single job-construction path shared by the design
layer and :class:`~repro.harness.experiments.ExperimentContext` — both
produce byte-identical :class:`~repro.harness.jobs.SimJob` descriptions,
which is what keeps design-compiled campaigns and hand-driven experiments
in the same result-cache universe.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from ..harness.jobs import SimJob
from ..harness.validate import DEFAULT_BACKEND
from ..sim.config import GPUConfig
from ..workloads.patterns import DEFAULT_SEED
from ..workloads.suite import make_kernel


def build_job(*, names: str | Sequence[str], scale: float, seed: int,
              config: GPUConfig, warp: str | tuple = "gto",
              policy: tuple = ("rr",),
              scale_mults: Sequence[float] | None = None,
              timeline_window: int | None = None, trace: bool = False,
              backend: str = DEFAULT_BACKEND) -> SimJob:
    """The one true :class:`SimJob` constructor for declarative layers."""
    if isinstance(names, str):
        names = (names,)
    return SimJob(names=tuple(names), scale=scale, seed=seed,
                  scale_mults=(tuple(scale_mults)
                               if scale_mults is not None else None),
                  warp=warp, policy=policy, config=config,
                  timeline_window=timeline_window, trace=trace,
                  backend=backend)


@dataclass
class DesignEnv:
    """Scale/seed/hardware/rider bindings for one design compilation."""

    scale: float = 0.4
    seed: int = DEFAULT_SEED
    config: GPUConfig = field(default_factory=GPUConfig)
    timeline_window: int | None = None
    trace: bool = False
    backend: str = DEFAULT_BACKEND
    _occupancy: dict[tuple, int] = field(default_factory=dict, repr=False)

    def occupancy(self, name: str,
                  config: GPUConfig | None = None) -> int:
        """Resident-CTA limit of one suite kernel (memoised; used by
        nested factors such as static-limit sweeps)."""
        config = config if config is not None else self.config
        key = (name, config)
        cached = self._occupancy.get(key)
        if cached is None:
            kernel = make_kernel(name, scale=self.scale, seed=self.seed)
            cached = kernel.max_ctas_per_sm(config)
            self._occupancy[key] = cached
        return cached

    def job(self, names: str | Sequence[str], *,
            warp: str | tuple = "gto", policy: tuple = ("rr",),
            scale_mults: Sequence[float] | None = None,
            config: GPUConfig | None = None) -> SimJob:
        """One job under this environment (``config`` overrides the
        baseline hardware for per-cell hardware factors)."""
        return build_job(names=names, scale=self.scale, seed=self.seed,
                         config=config if config is not None else self.config,
                         warp=warp, policy=policy, scale_mults=scale_mults,
                         timeline_window=self.timeline_window,
                         trace=self.trace, backend=self.backend)

    def to_payload(self) -> dict:
        """JSON-compatible rendering (campaign manifests)."""
        from dataclasses import fields as dc_fields
        return {
            "scale": self.scale,
            "seed": self.seed,
            "config": {f.name: getattr(self.config, f.name)
                       for f in dc_fields(self.config)},
            "timeline_window": self.timeline_window,
            "trace": self.trace,
            "backend": self.backend,
        }

    @classmethod
    def from_payload(cls, data: dict) -> "DesignEnv":
        return cls(scale=data["scale"], seed=data["seed"],
                   config=GPUConfig(**data["config"]),
                   timeline_window=data.get("timeline_window"),
                   trace=bool(data.get("trace", False)),
                   backend=data.get("backend", DEFAULT_BACKEND))
