"""Filter mosaics and coupling-matrix analysis for export.

Filters live in whitened coordinates; for display they are mapped back to
the raw pixel domain through the whitening inverse and tiled into a grid
with per-tile min-max scaling.
"""

import numpy as np

from .energy import phase_coupling_matrix
from .errors import DataError, ShapeError

GAP = 1              # mosaic pixels between tiles and around the grid
GAP_VALUE = 128.0    # gray level of those pixels


def pixel_tiles(filters, whitening):
    """Whitened-domain filters (rows of `filters`) as display tiles in the
    raw pixel domain, through the whitening inverse and without the mean:
    an array (n, ps, ps), or (n, ps, ps, 3) for colour."""
    ps = whitening.patch_size
    shape = (ps, ps, 3) if whitening.channels == 3 else (ps, ps)
    return (np.atleast_2d(filters) @ whitening.inverse.T).reshape((-1,) + shape)


def _scale_tile(tile):
    lo, hi = tile.min(), tile.max()
    if hi - lo < 1e-30:
        return np.zeros_like(tile)
    return (tile - lo) / (hi - lo) * 255.0


def mosaic(tiles, n_columns=None):
    """Tile equally-shaped images (a list or a stacked array) into one grid
    image with per-tile min-max scaling to 0..255."""
    if len(tiles) == 0:
        raise ShapeError("mosaic needs at least one tile")
    tiles = [np.asarray(t, dtype=np.float64) for t in tiles]
    shape = tiles[0].shape
    if any(t.shape != shape for t in tiles):
        raise ShapeError("mosaic tiles must share one shape")
    n = len(tiles)
    cols = n_columns or int(np.ceil(np.sqrt(n)))
    rows = int(np.ceil(n / cols))
    th, tw = shape[0], shape[1]
    out_shape = (rows * (th + GAP) + GAP, cols * (tw + GAP) + GAP) + shape[2:]
    out = np.full(out_shape, GAP_VALUE)
    for idx, tile in enumerate(tiles):
        r, c = divmod(idx, cols)
        y = GAP + r * (th + GAP)
        x = GAP + c * (tw + GAP)
        out[y:y + th, x:x + tw] = _scale_tile(tile)
    return out


def subspace_tiles(params, whitening, kind="amplitude"):
    """One tile per subspace: filter component C0 or C1, the per-pixel pair
    amplitude sqrt(c1^2 + c2^2), or the pair angle on a cyclic gray map.
    Every kind but C0 needs a second component (L >= 2)."""
    D, F, L = params.C.shape
    if L < 2 and kind != "C0":
        raise ShapeError(f"{kind} tiles need subspace dimension L >= 2, got L={L}")
    flat = pixel_tiles(params.C.reshape(D, F * L).T, whitening)
    c = flat.reshape((F, L) + flat.shape[1:])
    if kind == "C0":
        tiles = c[:, 0]
    elif kind == "C1":
        tiles = c[:, 1]
    elif kind == "amplitude":
        tiles = np.sqrt(c[:, 0] ** 2 + c[:, 1] ** 2)
    elif kind == "phase":
        # cyclic gray map: continuous across the +/- pi seam
        tiles = 0.5 * (1.0 + np.cos(np.arctan2(c[:, 1], c[:, 0])))
    else:
        raise ValueError(f"unknown subspace tile kind {kind!r}")
    return list(tiles)


def top_weighted_subspaces(weights, n=6):
    """Indices of the n largest-|weight| rows of one column."""
    order = np.argsort(-np.abs(weights))
    return [int(i) for i in order[:n]]


def top_coupled_entries(K, n=6):
    """Walk couplings (i < j) by descending |K[i, j]| and collect the
    distinct coordinate indices they touch, first-seen order, up to n."""
    upper = np.triu_indices(K.shape[0], k=1)
    order = np.argsort(-np.abs(K[upper]))
    seen = []
    for idx in order:
        for entry in (int(upper[0][idx]), int(upper[1][idx])):
            if entry not in seen:
                seen.append(entry)
            if len(seen) == n:
                return seen
    return seen


def ranked_offblock_pairs(K, subspace_dim):
    """Subspace pairs (f1, f2), f1 < f2, ranked by the largest |K| entry
    found in their off-diagonal block; duplicates collapse to the first
    (largest) occurrence."""
    L = subspace_dim
    n = K.shape[0] // L
    entries = []
    for u in range(K.shape[0]):
        for w in range(u + 1, K.shape[0]):
            fu, fw = u // L, w // L
            if fu != fw:
                entries.append((abs(K[u, w]), (fu, fw)))
    entries.sort(key=lambda e: -e[0])
    ranked, seen = [], set()
    for value, pair in entries:
        if pair not in seen:
            seen.add(pair)
            ranked.append((pair, value))
    return ranked


def group_tiles(params, whitening, kind, n_top=6, max_columns=32):
    """Rows of tiles for grouped exports, one row for each of the first
    `max_columns` columns of P, Q (flattened to (F*L, G)) or R.

    kind 'P': per pooling column, amplitude tiles of its top-|P| subspaces.
    kind 'Q': per phase factor, tiles of its top-|Q| (f, l) filter vectors.
    kind 'R': per coupling column, tiles of the filter vectors touched by
              the strongest couplings of its K (duplicates removed).
    """
    D, F, L = params.C.shape
    if kind == "P":
        picks = [top_weighted_subspaces(w, n_top) for w in params.P.T[:max_columns]]
    elif kind == "Q":
        picks = [top_weighted_subspaces(w, n_top)
                 for w in params.Q.reshape(F * L, -1).T[:max_columns]]
    elif kind == "R":
        picks = [top_coupled_entries(phase_coupling_matrix(h, params), n_top)
                 for h in np.eye(params.R.shape[1])[:max_columns]]
    else:
        raise ValueError(f"unknown group kind {kind!r}")
    tiles = (subspace_tiles(params, whitening, kind="amplitude") if kind == "P"
             else pixel_tiles(params.C.reshape(D, F * L).T, whitening))
    return [[tiles[i] for i in idx] for idx in picks]


def rows_to_mosaic(rows):
    """Lay out per-column tile rows as one mosaic (one row per column)."""
    flat = [tile for row in rows for tile in row]
    return mosaic(flat, n_columns=max(len(r) for r in rows))


# the mosaics `mpkrbm export` writes, one file each
EXPORT_TARGETS = ("C0", "C1", "W", "amplitude", "phase", "P", "Q", "R")


def export_mosaic(target, params, whitening, max_columns):
    """The mosaic of export `target`: its subspace tiles, the first
    max_columns**2 W filters, or `group_tiles` rows for P, Q and R. An
    unknown target is a DataError; one that needs L >= 2 a ShapeError."""
    if target not in EXPORT_TARGETS:
        raise DataError(f"unknown export target {target!r}")
    if target in ("P", "Q", "R"):
        return rows_to_mosaic(group_tiles(params, whitening, target, max_columns=max_columns))
    if target == "W":
        return mosaic(pixel_tiles(params.W[:, :max_columns ** 2].T, whitening))
    return mosaic(subspace_tiles(params, whitening, kind=target))
