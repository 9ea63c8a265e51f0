"""Verlet-skin neighbor-list caching for rollout fast paths.

Rebuilding the radius graph every rollout step is wasted work when
particles move a fraction of the connectivity radius per frame. The
classic molecular-dynamics remedy is a *Verlet list*: search once with an
inflated radius ``r + skin`` and reuse the candidate pairs until any
particle has moved more than ``skin/2`` from its position at build time.

Exactness argument (triangle inequality): let ``d_i = ‖x_i − x_i^ref‖``
be particle *i*'s displacement since the last rebuild. For any pair with
current distance ``‖x_i − x_j‖ ≤ r``,

    ‖x_i^ref − x_j^ref‖ ≤ ‖x_i − x_j‖ + d_i + d_j ≤ r + skin

whenever ``max_i d_i ≤ skin/2``. So every true edge is among the cached
candidates, and filtering candidates by the *current* distance recovers
exactly the fresh radius graph. The filter preserves the candidates'
``lexsort((senders, receivers))`` order, so the returned arrays are
bitwise identical to a fresh :func:`repro.graph.radius_graph` call.
"""

from __future__ import annotations

import numpy as np

from .neighbors import radius_graph, radius_graph_periodic

__all__ = ["NeighborListCache"]


class NeighborListCache:
    """Cached fixed-radius neighbor queries with a Verlet skin.

    Parameters
    ----------
    radius:
        True connectivity radius; returned edges satisfy
        ``‖x_s − x_r‖ ≤ radius`` exactly.
    skin:
        Extra search margin. Larger skins survive more steps between
        rebuilds but filter more candidate pairs per query. Defaults to
        ``0.25 * radius`` — a good trade for GNS-scale per-step motion.
        ``skin=0`` degenerates to a fresh build every query (any motion
        triggers a rebuild), which is the reference behaviour.
    method:
        Neighbor-search backend passed to :func:`radius_graph`
        (``"kdtree"``, ``"celllist"``, ``"brute"``).
    box:
        Periodic cell size (scalar or per-dimension) for periodic
        domains; ``None`` (default) for bounded/open domains. Requires
        ``radius + skin < min(box)/2`` (minimum-image convention); the
        skin is shrunk automatically if it would violate this.
    """

    def __init__(self, radius: float, skin: float | None = None,
                 method: str = "kdtree",
                 box: np.ndarray | float | None = None):
        if radius <= 0:
            raise ValueError("radius must be positive")
        self.radius = float(radius)
        skin = 0.25 * self.radius if skin is None else float(skin)
        if skin < 0:
            raise ValueError("skin must be non-negative")
        self.box = None if box is None else np.atleast_1d(
            np.asarray(box, dtype=np.float64))
        if self.box is not None:
            limit = 0.5 * float(self.box.min())
            if self.radius >= limit:
                raise ValueError("radius must be < box/2 for periodic search")
            # keep the inflated search radius minimum-image-valid; walk
            # down ulps because radius + (limit - radius) can round up
            # to limit exactly
            skin = min(skin, limit - self.radius)
            while skin > 0.0 and self.radius + skin >= limit:
                skin = np.nextafter(skin, 0.0)
        self.skin = skin
        self.method = method
        # cached state
        self._ref_positions: np.ndarray | None = None
        self._candidates: tuple[np.ndarray, np.ndarray] | None = None
        # statistics
        self.builds = 0
        self.queries = 0

    # ------------------------------------------------------------------
    @property
    def hit_rate(self) -> float:
        """Fraction of queries served from the cached candidate list."""
        if self.queries == 0:
            return 0.0
        return 1.0 - self.builds / self.queries

    def stats(self) -> dict:
        return {"queries": self.queries, "builds": self.builds,
                "hit_rate": self.hit_rate, "skin": self.skin,
                "radius": self.radius}

    def invalidate(self) -> None:
        """Drop the cached candidate list (forces a rebuild next query)."""
        self._ref_positions = None
        self._candidates = None

    # ------------------------------------------------------------------
    def _needs_rebuild(self, pos: np.ndarray) -> bool:
        ref = self._ref_positions
        if ref is None or ref.shape != pos.shape:
            return True
        if self.skin == 0.0:
            return not np.array_equal(ref, pos)
        disp = pos - ref
        if self.box is not None:
            # minimum-image displacement: particles may have wrapped
            disp -= self.box * np.rint(disp / self.box)
        max_d2 = np.einsum("ij,ij->i", disp, disp).max()
        return max_d2 > (0.5 * self.skin) ** 2

    def _rebuild(self, pos: np.ndarray) -> None:
        search = self.radius + self.skin
        if self.box is not None:
            cand = radius_graph_periodic(pos, search, self.box)
        else:
            cand = radius_graph(pos, search, method=self.method)
        self._candidates = cand
        self._ref_positions = pos.copy()
        self.builds += 1

    def query(self, positions: np.ndarray
              ) -> tuple[np.ndarray, np.ndarray]:
        """Exact radius-graph edges at ``positions``.

        Returns ``(senders, receivers)`` sorted by receiver then sender —
        bitwise identical to a fresh :func:`radius_graph` call at the
        same positions.
        """
        pos = np.asarray(positions, dtype=np.float64)
        self.queries += 1
        if self._needs_rebuild(pos):
            self._rebuild(pos)
        cs, cr = self._candidates
        if self.skin == 0.0:
            # search radius == true radius: candidates are already exact
            return cs, cr
        rel = pos[cs] - pos[cr]
        if self.box is not None:
            rel -= self.box * np.rint(rel / self.box)
        dist2 = np.einsum("ij,ij->i", rel, rel)
        keep = dist2 <= self.radius * self.radius
        # a subset of a lexsorted list stays lexsorted, so no re-sort
        return cs[keep], cr[keep]
