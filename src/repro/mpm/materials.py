"""Constitutive models for plane-strain MPM.

* :class:`LinearElastic` — isotropic Hookean solid.
* :class:`DruckerPrager` — elastic predictor / plastic corrector with a
  Drucker–Prager cone fitted to a Mohr–Coulomb friction angle (plane-strain
  fit), non-associated flow (zero dilatancy) and a tension cutoff. This is
  the granular model that generates the paper's column-collapse and
  box-flow datasets; the friction angle φ is the parameter recovered by the
  inverse problem in Section 5.

Sign convention: tension positive (so gravity-loaded soil has negative
mean stress).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Material", "LinearElastic", "DruckerPrager", "NewtonianFluid"]


@dataclass
class Material:
    """Base elastic material with Lamé constants from (E, ν)."""

    density: float
    youngs_modulus: float
    poisson_ratio: float

    @property
    def mu(self) -> float:
        """Shear modulus G."""
        return self.youngs_modulus / (2.0 * (1.0 + self.poisson_ratio))

    @property
    def lam(self) -> float:
        """First Lamé constant λ."""
        e, nu = self.youngs_modulus, self.poisson_ratio
        return e * nu / ((1.0 + nu) * (1.0 - 2.0 * nu))

    @property
    def bulk_modulus(self) -> float:
        return self.lam + 2.0 * self.mu / 3.0

    def wave_speed(self) -> float:
        """P-wave speed — sets the CFL-stable time step."""
        return float(np.sqrt((self.lam + 2.0 * self.mu) / self.density))

    def elastic_increment(self, strain_inc: np.ndarray,
                          dezz: np.ndarray | None = None
                          ) -> tuple[np.ndarray, np.ndarray]:
        """Hooke's law stress increment for in-plane strain increments.

        Parameters
        ----------
        strain_inc: ``(n, 2, 2)`` symmetric in-plane strain increments.
        dezz: out-of-plane normal strain increments (zero under plane strain).

        Returns
        -------
        (dsigma, dsigma_zz): in-plane ``(n, 2, 2)`` and out-of-plane ``(n,)``.
        """
        tr = strain_inc[:, 0, 0] + strain_inc[:, 1, 1]
        if dezz is not None:
            tr = tr + dezz
        eye = np.eye(2)
        dsig = self.lam * tr[:, None, None] * eye + 2.0 * self.mu * strain_inc
        dzz = self.lam * tr + (2.0 * self.mu * dezz if dezz is not None else 0.0)
        return dsig, dzz

    def update_stress(self, stresses, sigma_zz, strain_inc, spin_inc,
                      **kwargs):
        raise NotImplementedError  # pragma: no cover


def _jaumann_rotate(stresses: np.ndarray, spin_inc: np.ndarray) -> np.ndarray:
    """Objective (Jaumann) stress rotation: σ += W σ − σ W.

    The stacked ``@`` goes to BLAS dgemm, which may fuse a product into
    its sum (FMA). The spin ``W = 0.5 (L − Lᵀ) dt`` has an exactly zero
    diagonal, so each entry of ``W σ`` and ``σ W`` is one rounded product
    plus an exact zero, and fusing cannot change it; the compiled
    constitutive kernel (:mod:`repro.accel.cpu`) relies on that to give
    the same bits.
    """
    return stresses + spin_inc @ stresses - stresses @ spin_inc


@dataclass
class LinearElastic(Material):
    """Isotropic linear elasticity with Jaumann objective rate."""

    def update_stress(self, stresses: np.ndarray, sigma_zz: np.ndarray,
                      strain_inc: np.ndarray, spin_inc: np.ndarray,
                      **kwargs) -> tuple[np.ndarray, np.ndarray]:
        rotated = _jaumann_rotate(stresses, spin_inc)
        dsig, dzz = self.elastic_increment(strain_inc)
        return rotated + dsig, sigma_zz + dzz


@dataclass
class DruckerPrager(Material):
    """Drucker–Prager elastoplasticity (non-associated, tension cutoff).

    Parameters
    ----------
    friction_angle:
        Mohr–Coulomb friction angle φ in **degrees** — the material
        parameter the paper's inverse problem identifies.
    cohesion:
        Cohesion c (Pa); keep small but nonzero for numerical robustness
        of dry granular media.
    tension_cutoff:
        Maximum allowed mean stress (tension positive). Defaults to the
        cone apex.
    """

    friction_angle: float = 30.0
    cohesion: float = 0.0
    tension_cutoff: float | None = None

    def _cone(self) -> tuple[float, float]:
        """Plane-strain DP fit: q_f = α p + k with p = -I1/3 compression."""
        phi = np.deg2rad(self.friction_angle)
        t = np.tan(phi)
        denom = np.sqrt(9.0 + 12.0 * t * t)
        alpha = 3.0 * t / denom
        k = 3.0 * self.cohesion / denom
        return float(alpha), float(k)

    def yield_surface(self) -> tuple[float, float, float]:
        """``(α, k, p_cut)``: the cone of :meth:`_cone` and the cap on the
        mean stress p (tension positive), which is the cone apex ``k / α``
        (∞ when α = 0) or a lower ``tension_cutoff``. The NumPy update and
        the compiled kernel both take their constants from here."""
        alpha, k = self._cone()
        apex = k / alpha if alpha > 0 else np.inf
        p_cut = (apex if self.tension_cutoff is None
                 else min(self.tension_cutoff, apex))
        return alpha, k, p_cut

    def update_stress(self, stresses: np.ndarray, sigma_zz: np.ndarray,
                      strain_inc: np.ndarray, spin_inc: np.ndarray,
                      **kwargs) -> tuple[np.ndarray, np.ndarray]:
        # elastic predictor with objective rotation
        trial = _jaumann_rotate(stresses, spin_inc)
        dsig, dzz = self.elastic_increment(strain_inc)
        trial = trial + dsig
        szz = sigma_zz + dzz

        # invariants of the full 3-D stress (plane strain)
        i1 = trial[:, 0, 0] + trial[:, 1, 1] + szz
        p = i1 / 3.0                                  # mean stress, tension +
        # deviator components
        s00 = trial[:, 0, 0] - p
        s11 = trial[:, 1, 1] - p
        szz_dev = szz - p
        s01 = trial[:, 0, 1]
        j2 = 0.5 * (s00 ** 2 + s11 ** 2 + szz_dev ** 2) + s01 ** 2
        q = np.sqrt(np.maximum(j2, 1e-30))

        alpha, k, p_cut = self.yield_surface()
        # yield function in tension-positive convention:
        # f = sqrt(J2) + alpha * p - k   (p < 0 in compression strengthens)
        f = q + alpha * p - k

        # tension cutoff: project mean stress back to the cap
        tension = p > p_cut
        p_new = np.where(tension, p_cut, p)

        # shear failure: radial return of the deviator onto the cone
        q_allow = np.maximum(k - alpha * p_new, 0.0)
        yielding = (f > 0.0) | tension
        scale = np.where(yielding & (q > 1e-20), np.minimum(q_allow / q, 1.0), 1.0)

        s00 *= scale
        s11 *= scale
        s01 *= scale
        szz_dev *= scale

        out = np.empty_like(trial)
        out[:, 0, 0] = s00 + p_new
        out[:, 1, 1] = s11 + p_new
        out[:, 0, 1] = s01
        out[:, 1, 0] = s01
        szz_out = szz_dev + p_new
        return out, szz_out


@dataclass
class NewtonianFluid:
    """Weakly-compressible Newtonian fluid (Tait equation of state).

    The standard MPM water model: pressure from the volume ratio
    ``p = K ((V0/V)^γ − 1)`` (clamped non-negative — a free surface cannot
    sustain tension) plus a deviatoric viscous stress ``2 μ dev(ε̇)``.
    The stress is a *state* function of (J, ε̇), not an increment, so the
    solver passes the per-particle Jacobian and the time step.

    Parameters
    ----------
    density: rest density ρ0.
    bulk_modulus: K — keep well below real water's 2.2 GPa so the CFL
        step stays practical (standard weak-compressibility practice:
        choose K for <1% density variation at flow speeds of interest).
    viscosity: dynamic viscosity μ.
    gamma: Tait exponent (7 for water).
    """

    density: float
    bulk_modulus: float = 2e5
    viscosity: float = 1e-3
    gamma: float = 7.0

    def wave_speed(self) -> float:
        """Artificial sound speed √(γK/ρ) — sets the CFL step."""
        return float(np.sqrt(self.gamma * self.bulk_modulus / self.density))

    def update_stress(self, stresses: np.ndarray, sigma_zz: np.ndarray,
                      strain_inc: np.ndarray, spin_inc: np.ndarray,
                      jacobian: np.ndarray | None = None,
                      dt: float | None = None,
                      **kwargs) -> tuple[np.ndarray, np.ndarray]:
        if jacobian is None or dt is None:
            raise ValueError("NewtonianFluid needs jacobian and dt from the solver")
        j = np.maximum(jacobian, 1e-6)
        pressure = self.bulk_modulus * (j ** (-self.gamma) - 1.0)
        pressure = np.maximum(pressure, 0.0)   # tension cutoff (free surface)

        rate = strain_inc / dt
        tr = rate[:, 0, 0] + rate[:, 1, 1]
        dev = rate.copy()
        dev[:, 0, 0] -= tr / 2.0
        dev[:, 1, 1] -= tr / 2.0

        out = 2.0 * self.viscosity * dev
        out[:, 0, 0] -= pressure
        out[:, 1, 1] -= pressure
        return out, -pressure
