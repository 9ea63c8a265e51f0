"""Material-point (particle) state container."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["Particles"]


@dataclass
class Particles:
    """Struct-of-arrays particle state in d = 2 or 3 dimensions (the
    width of ``positions``).

    Stress is stored in tensor form ``(n, d, d)``. In 2-D (plane strain)
    a separate out-of-plane normal stress ``sigma_zz`` (needed by the
    Drucker–Prager invariants) rides along and defaults to zero; in 3-D
    the stress tensor holds σ_zz itself and ``sigma_zz`` is ``None``.
    """

    positions: np.ndarray                 # (n, d)
    velocities: np.ndarray                # (n, d)
    masses: np.ndarray                    # (n,)
    volumes: np.ndarray                   # (n,)
    stresses: np.ndarray                  # (n, d, d)
    sigma_zz: np.ndarray | None = None    # (n,) in 2-D, None in 3-D
    material_ids: np.ndarray = field(default=None)  # (n,) int
    initial_volumes: np.ndarray = field(default=None)  # (n,) reference V0

    def __post_init__(self):
        if self.positions.ndim != 2 or self.positions.shape[1] not in (2, 3):
            raise ValueError(f"positions must be (n, 2) or (n, 3), got "
                             f"{self.positions.shape}")
        n, d = self.positions.shape
        if self.material_ids is None:
            self.material_ids = np.zeros(n, dtype=np.int64)
        if self.initial_volumes is None:
            self.initial_volumes = self.volumes.copy()
        if self.sigma_zz is None and d == 2:
            self.sigma_zz = np.zeros(n, dtype=np.float64)
        if self.sigma_zz is not None and d == 3:
            raise ValueError("sigma_zz is the plane-strain out-of-plane "
                             "stress; 3-D stresses hold σ_zz")
        if self.velocities.shape != (n, d):
            raise ValueError(f"velocities must be {(n, d)}, got "
                             f"{self.velocities.shape}")
        for name in ("masses", "volumes", "sigma_zz", "material_ids",
                     "initial_volumes"):
            arr = getattr(self, name)
            if arr is not None and arr.shape != (n,):
                raise ValueError(f"{name} must be (n,), got {arr.shape}")
        if self.stresses.shape != (n, d, d):
            raise ValueError(f"stresses must be {(n, d, d)}, got "
                             f"{self.stresses.shape}")

    @property
    def count(self) -> int:
        return self.positions.shape[0]

    @property
    def dim(self) -> int:
        return self.positions.shape[1]

    @classmethod
    def from_block(cls, lower: tuple[float, ...], upper: tuple[float, ...],
                   spacing: float, density: float,
                   velocity: tuple[float, ...] | None = None,
                   jitter: float = 0.0,
                   rng: np.random.Generator | None = None) -> "Particles":
        """Fill an axis-aligned rectangle (box in 3-D) with a regular
        particle lattice.

        Parameters
        ----------
        spacing:
            Particle spacing; each particle carries ``spacing**d`` area
            (volume in 3-D).
        density:
            Mass density (per unit thickness in 2-D).
        velocity:
            Initial velocity of every particle (default at rest).
        jitter:
            Optional uniform perturbation as a fraction of spacing (breaks
            lattice artifacts in granular flows).
        """
        axes = [np.arange(lo + spacing / 2, hi, spacing)
                for lo, hi in zip(lower, upper)]
        pos = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")],
                       axis=1)
        if jitter > 0.0:
            rng = rng or np.random.default_rng(0)
            pos = pos + rng.uniform(-jitter, jitter, size=pos.shape) * spacing
        n, d = pos.shape
        # each dimension keeps the rounding it always had: s·s and s³
        cell = spacing * spacing if d == 2 else spacing ** 3
        vol = np.full(n, cell, dtype=np.float64)
        if velocity is None:
            velocity = (0.0,) * d
        return cls(
            positions=pos,
            velocities=np.tile(np.asarray(velocity, dtype=np.float64), (n, 1)),
            masses=vol * density,
            volumes=vol.copy(),
            stresses=np.zeros((n, d, d), dtype=np.float64),
        )

    def copy(self) -> "Particles":
        return Particles(
            positions=self.positions.copy(),
            velocities=self.velocities.copy(),
            masses=self.masses.copy(),
            volumes=self.volumes.copy(),
            stresses=self.stresses.copy(),
            sigma_zz=None if self.sigma_zz is None else self.sigma_zz.copy(),
            material_ids=self.material_ids.copy(),
            initial_volumes=self.initial_volumes.copy(),
        )

    def total_mass(self) -> float:
        return float(self.masses.sum())

    def total_momentum(self) -> np.ndarray:
        return (self.masses[:, None] * self.velocities).sum(axis=0)

    def kinetic_energy(self) -> float:
        return float(0.5 * (self.masses * (self.velocities ** 2).sum(axis=1)).sum())
