"""Regular scalar grids with Freudenthal (simplicial) connectivity.

Vertices are addressed by a row-major linear id with x fastest:
``vid = x + nx * (y + ny * z)``.  All tie-breaking throughout the
package is done on the total order (value, vid), i.e. simulation of
simplicity, so scalar comparisons never need an epsilon.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DataError, UsageError

# Offsets whose nonzero entries are all +1 (and their negations) are exactly
# the edges of the Freudenthal triangulation of the cubical grid: 6 neighbors
# in 2D, 14 in 3D.  Offsets leaving the domain are clipped per vertex.
_POS_OFFSETS = [
    d for d in itertools.product((0, 1), repeat=3) if any(d)
]
_ALL_OFFSETS = _POS_OFFSETS + [tuple(-c for c in d) for d in _POS_OFFSETS]


def _coords(vid, dims: tuple[int, int, int]):
    """The (x, y, z) coordinates of a vertex id, or of each id in an int array."""
    nx, ny, _ = dims
    return vid % nx, (vid // nx) % ny, vid // (nx * ny)


@dataclass(frozen=True)
class ScalarGrid:
    """A 2D/3D regular grid of finite scalars (nz = 1 for 2D)."""

    dims: tuple[int, int, int]
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        nx, ny, nz = self.dims
        if nx < 1 or ny < 1 or nz < 1:
            raise UsageError(f"grid dims must be positive, got {self.dims}")
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.shape != (nx * ny * nz,):
            raise UsageError(
                f"value count {vals.size} does not match dims product {nx * ny * nz}"
            )
        finite = np.isfinite(vals)
        if not finite.all():
            bad = int(np.argmin(finite))
            raise DataError(f"non-finite scalar at linear vertex id {bad}")
        object.__setattr__(self, "values", vals)

    @property
    def n(self) -> int:
        return self.values.size

    def vid(self, x: int, y: int, z: int = 0) -> int:
        nx, ny, _ = self.dims
        return x + nx * (y + ny * z)

    def edges(self):
        """Yield every undirected stencil edge exactly once (u < v)."""
        nx, ny, nz = self.dims
        for z in range(nz):
            for y in range(ny):
                for x in range(nx):
                    u = x + nx * (y + ny * z)
                    for dx, dy, dz in _POS_OFFSETS:
                        px, py, pz = x + dx, y + dy, z + dz
                        if px < nx and py < ny and pz < nz:
                            yield u, px + nx * (py + ny * pz)


@dataclass(frozen=True)
class VertexOrder:
    """Strict total vertex order: rank by (value, vid) lexicographically."""

    rank_of: np.ndarray = field(repr=False)
    vertex_at: np.ndarray = field(repr=False)

    @property
    def n(self) -> int:
        return self.rank_of.size


def sos_order(grid: ScalarGrid) -> VertexOrder:
    """Total order under simulation of simplicity (ties broken by id)."""
    return value_order(grid.values)


def value_order(values: np.ndarray) -> VertexOrder:
    """The (value, position) order of ``values``, which is (value, id) for ids in order.

    One unstable sort by value, then ``_ties_by_position`` puts each run of
    equal values back in position order.
    """
    n = values.size
    vertex_at = np.argsort(values)
    _ties_by_position(vertex_at, values[vertex_at])
    rank_of = np.empty(n, dtype=np.int64)
    rank_of[vertex_at] = np.arange(n)
    return VertexOrder(rank_of=rank_of, vertex_at=vertex_at)


def _ties_by_position(vertex_at: np.ndarray, ordered: np.ndarray) -> None:
    """Sort ``vertex_at`` by id within each run of equal ``ordered`` values, in place.

    ±0.0 are equal.  One sort of ``run * n + id`` over the tied positions
    alone, whose remainders mod n are the ids.  Runs are counted from 1
    and number at most n / 2, so the keys stay below n**2 and within
    int64 up to 3e9 vertices.  A helper, so that its temporaries are
    freed before ``value_order`` builds the rank table.
    """
    n = vertex_at.size
    if n < 2:
        return
    tied = ordered[1:] == ordered[:-1]
    in_run = np.r_[tied, False] | np.r_[False, tied]
    run = np.cumsum(~np.r_[False, tied][in_run])
    vertex_at[in_run] = np.sort(run * n + vertex_at[in_run]) % n


_DTYPES = {
    (32, "little"): "<f4",
    (32, "big"): ">f4",
    (64, "little"): "<f8",
    (64, "big"): ">f8",
}


def load_raw(
    path: str | Path,
    dims: tuple[int, int, int],
    scalar_width: int = 32,
    byte_order: str = "little",
) -> ScalarGrid:
    """Load a header-less row-major IEEE binary volume."""
    if (scalar_width, byte_order) not in _DTYPES:
        raise UsageError(
            f"unsupported scalar width/byte order: {scalar_width}/{byte_order}"
        )
    path = Path(path)
    nx, ny, nz = dims
    expected = nx * ny * nz * (scalar_width // 8)
    try:
        actual = path.stat().st_size
        if actual != expected:
            raise DataError(
                f"{path}: expected {expected} bytes for dims {dims} at "
                f"{scalar_width}-bit, found {actual}"
            )
        raw = np.fromfile(path, dtype=_DTYPES[(scalar_width, byte_order)])
    except OSError as exc:
        raise DataError(f"cannot read input volume {path}: {exc.strerror}") from exc
    return ScalarGrid(dims=dims, values=raw.astype(np.float64))


def save_raw(
    grid: ScalarGrid,
    path: str | Path,
    scalar_width: int = 32,
    byte_order: str = "little",
) -> None:
    """Write a grid in the same header-less format ``load_raw`` reads."""
    if (scalar_width, byte_order) not in _DTYPES:
        raise UsageError(
            f"unsupported scalar width/byte order: {scalar_width}/{byte_order}"
        )
    grid.values.astype(_DTYPES[(scalar_width, byte_order)]).tofile(Path(path))


def synthetic_random(dims: tuple[int, int, int], seed: int) -> ScalarGrid:
    """Uniform random values in [0, 1), reproducible from the seed."""
    rng = np.random.default_rng(seed)
    n = dims[0] * dims[1] * dims[2]
    return ScalarGrid(dims=dims, values=rng.random(n))


def synthetic_gaussians(dims: tuple[int, int, int], seed: int) -> ScalarGrid:
    """Sum of six randomly placed Gaussian bumps, reproducible from the seed."""
    rng = np.random.default_rng(seed)
    nx, ny, nz = dims
    zz, yy, xx = np.meshgrid(
        np.arange(nz), np.arange(ny), np.arange(nx), indexing="ij"
    )
    vals = np.zeros((nz, ny, nx))
    scale = max(nx, ny, nz)
    for _ in range(6):
        cx, cy, cz = rng.random(3) * np.array([nx - 1, ny - 1, max(nz - 1, 1)])
        amp = rng.random() + 0.5
        width = (rng.random() * 0.2 + 0.05) * scale
        d2 = (xx - cx) ** 2 + (yy - cy) ** 2 + (zz - cz) ** 2
        vals += amp * np.exp(-d2 / (2.0 * width * width))
    return ScalarGrid(dims=dims, values=vals.ravel())


def synthetic_ramp(dims: tuple[int, int, int]) -> ScalarGrid:
    """Strictly monotone values (the linear id itself)."""
    n = dims[0] * dims[1] * dims[2]
    return ScalarGrid(dims=dims, values=np.arange(n, dtype=np.float64))
