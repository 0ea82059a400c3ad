"""Random-number-generator discipline.

Every stochastic entry point in this library accepts either a seed (``int``),
an existing :class:`numpy.random.Generator`, or ``None`` (fresh entropy), and
normalises it through :func:`ensure_rng`.  Experiments therefore reproduce
exactly when given the same seed, and components never share hidden global
RNG state.

Seed derivation — the one documented scheme, used everywhere:

* the **scenario stream** (user placement + fleet capacities) consumes the
  root seed directly, so ``ScenarioSpec(seed=7).build()`` samples exactly
  what the historical ``paper_scenario(..., seed=7)`` call did;
* **sweeps** derive one child stream per repetition / sweep point with
  :func:`spawn_rngs`, so inserting a point never perturbs the others
  (:mod:`repro.sim.experiments`, :mod:`repro.sim.compare`);
* **named auxiliary streams** (e.g. the mission fault schedule) derive a
  child seed with :func:`derive_seed` keyed on a label path, so the faults
  are independent of the scenario draw yet fully reproducible from the one
  root seed (:mod:`repro.ops`, ``repro mission``).

Given the same root seed, every entry point — CLI, sweeps, batch runner,
dynamics engine — therefore reproduces the same runs bit-exactly.
"""

from __future__ import annotations

import zlib

import numpy as np

SeedLike = "int | np.random.Generator | None"


def ensure_rng(seed: "int | np.random.Generator | None" = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    ``seed`` may be an ``int`` (deterministic stream), an existing generator
    (returned unchanged, so callers can thread one RNG through a pipeline),
    or ``None`` (OS entropy).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def derive_seed(seed: "int | None", *labels: str) -> "int | None":
    """Derive a named child seed from a root seed, deterministically.

    The label path is hashed into a :class:`numpy.random.SeedSequence`
    spawn key, so ``derive_seed(7, "faults")`` and ``derive_seed(7,
    "relocation")`` yield independent streams while remaining exact
    functions of the root seed.  ``None`` stays ``None`` (fresh entropy
    everywhere — nothing to reproduce).  This is the scheme behind
    ``ScenarioSpec.derived_seed`` and the mission fault schedule; see the
    module docstring for the full derivation map.
    """
    if seed is None:
        return None
    if not labels:
        raise ValueError("derive_seed needs at least one label")
    key = tuple(zlib.crc32(label.encode("utf-8")) for label in labels)
    sequence = np.random.SeedSequence(int(seed), spawn_key=key)
    return int(sequence.generate_state(1, np.uint64)[0])


def spawn_rngs(seed: "int | np.random.Generator | None", count: int) -> list:
    """Derive ``count`` independent child generators from ``seed``.

    Used by parameter sweeps so that each sweep point gets its own stream and
    inserting a new point does not perturb the others.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    root = ensure_rng(seed)
    seeds = root.integers(0, 2**63 - 1, size=count, dtype=np.int64)
    return [np.random.default_rng(int(s)) for s in seeds]
