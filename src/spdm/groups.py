"""Finite isometry groups acting on 2-D grids and on point data.

Grid actions are exact index permutations (flips and quarter-turn rotations),
so applying them to an array re-orders entries without any floating-point
work.  Point actions are orthogonal 2x2 matrices.

Rotation convention: ``r1`` rotates a grid counter-clockwise when the grid is
displayed with the origin at the lower-left corner (Cartesian display).  In
array-index space this maps ``[[1, 2], [3, 4]]`` to ``[[3, 1], [4, 2]]``.
The 2x2 point rotation ``r1`` is the matrix ``[[0, -1], [1, 0]]``.

A group with an orientation rule (``canonical_ids``, ``canonicalize``)
gives each state its orientation, for a whole batch at once.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import InvalidParams, NonSquareGrid, ShapeMismatch

_MATRIX_MATCH_ATOL = 1e-9


def _check_points(d: int, x: np.ndarray) -> None:
    """Refuse an array that does not end in the point dimension d."""
    if x.ndim == 0 or x.shape[-1] != d:
        raise ShapeMismatch(f"array of shape {x.shape} does not end in dimension {d}")


def _grid_view(grid_shape: tuple[int, int], x: np.ndarray) -> tuple[tuple, np.ndarray]:
    """A grid array's lead shape and (rows, H W, depth) view, rows the size
    of the lead: the one reading of grid states.  An array ends in (H, W),
    depth 1, or in (H, W, C), depth C; a trailing (H, W) wins a tie."""
    h, w = grid_shape
    if x.shape[-2:] == (h, w):
        lead, depth = x.shape[:-2], 1
    elif x.ndim >= 3 and x.shape[-3:-1] == (h, w):
        lead, depth = x.shape[:-3], x.shape[-1]
    else:
        raise ShapeMismatch(f"array of shape {x.shape} does not end in grid shape {(h, w)}")
    return lead, x.reshape(-1, h * w, depth)


@dataclass(frozen=True)
class GroupElement:
    """One isometry: either a flat index permutation of a grid or a matrix.

    Parameters
    ----------
    gid : int
        Position of the element in its group's element list.
    name : str
        Human-readable label such as ``"e"``, ``"r1"`` or ``"fr2"``.
    perm : ndarray or None
        For grid actions, ``out.flat[i] = x.flat[perm[i]]``.
    grid_shape : tuple or None
        The (H, W) grid the permutation acts on.
    matrix : ndarray or None
        For point actions, the orthogonal matrix applied as ``A @ x``.
    """

    gid: int
    name: str
    perm: np.ndarray | None = None
    grid_shape: tuple[int, int] | None = None
    matrix: np.ndarray | None = None

    @property
    def kind(self) -> str:
        return "grid" if self.perm is not None else "matrix"

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Apply the isometry to an array.

        Grid elements accept arrays whose trailing axes are (H, W) or
        (H, W, C); leading batch axes are carried through.  Matrix elements
        accept arrays whose last axis matches the matrix dimension.
        """
        x = np.asarray(x)
        if self.perm is not None:
            # np.take returns a C-contiguous array; a fancy index would put
            # the cell axis outermost in memory, and downstream reductions
            # would then round a batch row and a lone state differently
            _, rows = _grid_view(self.grid_shape, x)
            return np.take(rows, self.perm, axis=1).reshape(x.shape)
        _check_points(self.matrix.shape[0], x)
        return x @ self.matrix.T


@dataclass(frozen=True)
class IsometryGroup:
    """A finite group of isometries with precomputed composition tables.

    Parameters
    ----------
    name : str
        Label such as ``"C4-grid-8x8"``.
    elements : tuple of GroupElement
        Elements in fixed order; element 0 is the identity.
    compose_table : ndarray
        ``compose_table[i, j]`` is the id of ``elements[i] o elements[j]``,
        where ``(a o b)(x) = a(b(x))``.
    inverse_table : ndarray
        ``inverse_table[i]`` is the id of the inverse of ``elements[i]``.
    tag : str
        The ``make_group`` tag that rebuilds the group with its grid shape:
        ``flip_v``, ``flip_h``, ``C4`` or ``D4`` on grids, ``C{n}`` or
        ``D{n}`` for point groups; empty for hand-built groups.
    """

    name: str
    elements: tuple[GroupElement, ...]
    compose_table: np.ndarray
    inverse_table: np.ndarray
    tag: str = ""

    def __len__(self) -> int:
        return len(self.elements)

    @property
    def grid_shape(self) -> tuple[int, int] | None:
        """The (H, W) grid the group permutes; None for a point group."""
        return self.elements[0].grid_shape

    @property
    def state_shape(self) -> tuple[int, ...]:
        """Shape of one state the group acts on: the grid, or (d,) for points."""
        e = self.elements[0]
        return e.grid_shape if e.grid_shape is not None else (len(e.matrix),)

    @property
    def identity(self) -> GroupElement:
        return self.elements[0]

    def compose(self, a: GroupElement, b: GroupElement) -> GroupElement:
        """Return the element acting as ``x -> a(b(x))``."""
        return self.elements[int(self.compose_table[a.gid, b.gid])]

    def inverse(self, a: GroupElement) -> GroupElement:
        return self.elements[int(self.inverse_table[a.gid])]

    def element_by_name(self, name: str) -> GroupElement:
        for el in self.elements:
            if el.name == name:
                return el
        raise KeyError(name)

    @cached_property
    def peak_region(self) -> np.ndarray | None:
        """Flags of the flat cells in the canonical region that holds a grid
        state's peak; None for point groups and hand-built groups."""
        if self.grid_shape is None or self.tag not in _GRID_GROUPS:
            return None
        i, j = np.indices(self.grid_shape)
        return _GRID_GROUPS[self.tag][2](i, j, *self.grid_shape).ravel()

    @cached_property
    def stacked(self) -> np.ndarray:
        """Every element's action in one array, indexed by id: the (|G|, d, d)
        matrices of a point group, or the (|G|, H W) permutations of a grid."""
        if self.grid_shape is None:
            return np.stack([el.matrix for el in self.elements])
        return np.stack([el.perm for el in self.elements])


def _lead(group: IsometryGroup, x: np.ndarray) -> tuple:
    """The batch axes of x, those before the state the group acts on;
    ShapeMismatch unless x ends in such a state."""
    if group.grid_shape is None:
        _check_points(group.state_shape[0], x)
        return x.shape[:-1]
    return _grid_view(group.grid_shape, x)[0]


def apply_elements(group: IsometryGroup, ids, x: np.ndarray) -> np.ndarray:
    """Apply a per-row group element: row i of x gets elements[ids[i]].

    Rows run along the leading axis of x, one id each; each row has the
    shape one element acts on, (d,) for points and (H, W) or (H, W, C) for
    grids.  Point groups take one stacked matrix product, grids one gather
    through the stacked permutations.  Grid rows, and point rows under signed
    permutation matrices, equal ``elements[ids[i]].apply(x[i])`` exactly.
    """
    ids = np.asarray(ids)
    x = np.asarray(x, dtype=float)
    lead = _lead(group, x)
    if ids.ndim != 1 or ids.shape != lead:
        raise ShapeMismatch(f"ids of shape {ids.shape} for rows of shape {lead}")
    if group.grid_shape is None:
        return np.einsum("nij,nj->ni", group.stacked[ids], x)
    rows = _grid_view(group.grid_shape, x)[1]
    return np.take_along_axis(rows, group.stacked[ids][:, :, None], axis=1).reshape(x.shape)


def _move_blocks(group: IsometryGroup, blocks: np.ndarray, ids) -> np.ndarray:
    """Block j of a (B, m, *state) stack moved by ``elements[ids[j]]``, or a
    single block (B = 1) moved by every id: a (len(ids), m, *state) array.

    The one move behind every group orbit.  Points take one stacked
    product, whose slice for element k is the gemm ``x @ A_k.T`` of
    ``GroupElement.apply``; grids take one gather per element, each into
    its C-contiguous slice of the result.
    """
    if group.grid_shape is None:
        _check_points(group.state_shape[0], blocks)
        return np.matmul(blocks, group.stacked[ids].transpose(0, 2, 1))
    (b, m), rows = _grid_view(group.grid_shape, blocks)
    rows = rows.reshape(b, m, *rows.shape[1:])
    out = np.empty((len(ids), *rows.shape[1:]))
    for j, k in enumerate(ids):
        np.take(rows[0 if b == 1 else j], group.stacked[k], axis=1, out=out[j], mode="wrap")
    return out.reshape(len(ids), *blocks.shape[1:])


def equivariance_residuals(field, group: IsometryGroup, xs, *args) -> np.ndarray:
    """``field(k x, *args) - k field(x, *args)`` for every element k and row x.

    Returns an array shaped (|G|, n, ...) whose entry [k, i] belongs to
    ``group.elements[k]`` and row i of ``xs``.  The other arguments follow
    ``_tile_rows``: arrays of batch length travel with their row, the rest
    is shared.  The field is called twice: once on all |G| n moved rows,
    once on xs.
    """
    xs = np.asarray(xs, dtype=float)
    g, n, every = len(group), xs.shape[0], np.arange(len(group))
    moved = np.asarray(field(_move_blocks(group, xs[None], every).reshape(g * n, *xs.shape[1:]),
                             *_tile_rows(args, n, g)))
    base = _move_blocks(group, np.asarray(field(xs, *args))[None], every)
    return moved.reshape(g, n, *moved.shape[1:]) - base


def _tile_rows(args, n: int | None, g: int) -> list:
    """Arguments for g stacked copies of a batch of n rows: arrays whose
    leading axis has the batch length hold one value per row and are
    tiled g times; everything else, and every argument of a lone state
    (n None), is shared."""
    return [np.concatenate([a] * g) if n is not None and np.ndim(a) >= 1 and len(a) == n
            else a for a in args]


def _compose_perms(p_outer: np.ndarray, p_inner: np.ndarray) -> np.ndarray:
    # out.flat[i] = y.flat[p_outer[i]] with y.flat[j] = x.flat[p_inner[j]]
    return p_inner[p_outer]


def _exact_key(action: np.ndarray) -> bytes:
    # a permutation, or an integer-valued matrix with -0.0 read as 0.0
    if action.dtype.kind in "iu":
        return action.astype(np.int64, copy=False).tobytes()
    return (np.round(action) + 0.0).tobytes()


def _build_group(name: str, tag: str, elements: list[GroupElement]) -> IsometryGroup:
    n = len(elements)
    grid = elements[0].kind == "grid"
    actions = [el.perm if grid else el.matrix for el in elements]
    # permutations and signed-permutation matrices compose exactly, so each
    # product is looked up by its bytes; general angles match by tolerance
    exact = grid or all(np.array_equal(a, np.round(a)) for a in actions)
    ids: dict = {}
    if exact:
        for el, a in zip(elements, actions):
            ids.setdefault(_exact_key(a), el.gid)
    table = np.zeros((n, n), dtype=np.int64)
    for a, act_a in zip(elements, actions):
        for b, act_b in zip(elements, actions):
            prod = _compose_perms(act_a, act_b) if grid else act_a @ act_b
            if exact:
                k = ids.get(_exact_key(prod))
            else:
                k = next((el.gid for el in elements if np.allclose(
                    el.matrix, prod, atol=_MATRIX_MATCH_ATOL)), None)
            if k is None:
                raise InvalidParams("composition left the element set; group is not closed")
            table[a.gid, b.gid] = k
    inv = np.zeros(n, dtype=np.int64)
    for a in elements:
        hits = np.nonzero(table[a.gid] == 0)[0]
        if len(hits) != 1:
            raise InvalidParams(f"element {a.name} has no unique inverse")
        inv[a.gid] = hits[0]
    return IsometryGroup(name, tuple(elements), table, inv, tag)


def _grid_element(gid: int, name: str, shape: tuple[int, int], op) -> GroupElement:
    idx = np.arange(shape[0] * shape[1]).reshape(shape)
    moved = op(idx)
    if moved.shape != shape:
        raise NonSquareGrid(f"rotations need a square grid, got {shape}")
    return GroupElement(gid=gid, name=name, perm=np.ascontiguousarray(moved).ravel(),
                        grid_shape=shape)


# ``rk`` is the counter-clockwise quarter turn of the module docstring
# applied k times; in D4, ``frk`` acts as ``rk`` followed by ``f``, the
# reversal of the column order.
_ROTATIONS = tuple((f"r{k}" if k else "e", lambda a, k=k: np.rot90(a, -k))
                   for k in range(4))
_REFLECTIONS = tuple((f"fr{k}" if k else "f", lambda a, k=k: np.fliplr(np.rot90(a, -k)))
                     for k in range(4))

# Every grid group by its make_group tag: the prefix of its name, its
# elements in id order as (name, op on the index grid), and the canonical
# region holding the peak at row i, column j of an h x w grid.
_GRID_GROUPS = {
    "flip_v": ("flip-v", (_ROTATIONS[0], ("f", np.flipud)),
               lambda i, j, h, w: i < h / 2.0),
    "flip_h": ("flip-h", (_ROTATIONS[0], ("f", np.fliplr)),
               lambda i, j, h, w: j < w / 2.0),
    "C4": ("C4", _ROTATIONS, lambda i, j, h, w: (i < h / 2.0) & (j < w / 2.0)),
    "D4": ("D4", _ROTATIONS + _REFLECTIONS,
           lambda i, j, h, w: (i < h / 2.0) & (j < w / 2.0) & (j >= i)),
}


def make_flip_group(axis: str, shape: tuple[int, int]) -> IsometryGroup:
    """Order-2 group {e, f} on an H x W grid: ``"vertical"`` reverses the
    row order (tag ``flip_v``), ``"horizontal"`` the column order (``flip_h``)."""
    if axis not in ("vertical", "horizontal"):
        raise InvalidParams(f"axis must be 'vertical' or 'horizontal', got {axis!r}")
    return make_group(f"flip_{axis[0]}", shape)


def make_c4_group(shape: tuple[int, int]) -> IsometryGroup:
    """Quarter-turn rotation group {e, r1, r2, r3} on a square grid."""
    return make_group("C4", shape)


def make_d4_group(shape: tuple[int, int]) -> IsometryGroup:
    """Dihedral group of the square: {e, r1, r2, r3, f, fr1, fr2, fr3}."""
    return make_group("D4", shape)


def _snap_integers(m: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    r = np.round(m)
    return np.where(np.abs(m - r) < tol, r, m)


def make_point_group_2d(n_rotations: int, with_reflection: bool = False) -> IsometryGroup:
    """Cyclic or dihedral point group acting on R^2 by orthogonal matrices.

    Parameters
    ----------
    n_rotations : int
        Number of rotations; ``rk`` rotates counter-clockwise by 2 pi k / n.
    with_reflection : bool
        If True, add the n reflections ``s o rk`` where ``s`` negates the
        second coordinate, giving the dihedral group of order 2n.

    Matrix entries within 1e-12 of an integer are snapped to that integer,
    so quarter-turn groups act by exact signed permutations.
    """
    if n_rotations < 1:
        raise InvalidParams(f"n_rotations must be >= 1, got {n_rotations}")
    els = []
    for k in range(n_rotations):
        th = 2.0 * np.pi * k / n_rotations
        m = _snap_integers(np.array([[np.cos(th), -np.sin(th)],
                                     [np.sin(th), np.cos(th)]]))
        els.append(GroupElement(gid=k, name=f"r{k}" if k else "e", matrix=m))
    if with_reflection:
        s = np.array([[1.0, 0.0], [0.0, -1.0]])
        for k in range(n_rotations):
            m = _snap_integers(s @ els[k].matrix)
            els.append(GroupElement(gid=n_rotations + k,
                                    name=f"sr{k}" if k else "s", matrix=m))
    tag = f"{'D' if with_reflection else 'C'}{n_rotations}"
    return _build_group(f"{tag}-point", tag, els)


def make_group(tag: str, shape=None) -> IsometryGroup:
    """The group a tag names; the one place a tag becomes a group.

    With ``shape`` (H, W) the tag names a grid group: ``flip_v``,
    ``flip_h``, ``C4`` or ``D4``.  Without it, ``C{n}`` names the n
    rotations of the plane and ``D{n}`` adds the n reflections.
    ``make_group(g.tag, g.grid_shape)`` rebuilds any built-in group ``g``.
    """
    if shape is not None:
        if tag not in _GRID_GROUPS:
            raise InvalidParams(
                f"unknown grid group tag {tag!r}; expected flip_v, flip_h, C4 or D4")
        shape = tuple(int(v) for v in shape)
        _validate_shape(shape)
        prefix, ops, _ = _GRID_GROUPS[tag]
        els = [_grid_element(gid, name, shape, op) for gid, (name, op) in enumerate(ops)]
        return _build_group(f"{prefix}-grid-{shape[0]}x{shape[1]}", tag, els)
    m = re.fullmatch(r"([CD])([1-9][0-9]*)", tag) if isinstance(tag, str) else None
    if m is None:
        raise InvalidParams(f"unknown point group tag {tag!r}; expected C<n> or D<n> "
                            "(flip_v and flip_h need a grid shape)")
    return make_point_group_2d(int(m.group(2)), with_reflection=m.group(1) == "D")


def _validate_shape(shape) -> None:
    if len(shape) != 2 or shape[0] < 1 or shape[1] < 1:
        raise InvalidParams(f"grid shape must be two positive ints, got {shape}")


@dataclass
class GroupCheckReport:
    """Outcome of verify_group_axioms; all booleans must be True."""

    closure: bool
    identity: bool
    inverses: bool
    associativity: bool
    orthogonality: bool
    max_orthogonality_error: float
    max_closure_error: float
    messages: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return (self.closure and self.identity and self.inverses
                and self.associativity and self.orthogonality)


def verify_group_axioms(group: IsometryGroup, atol: float = 1e-12) -> GroupCheckReport:
    """Check closure, identity, inverses, associativity and orthogonality.

    Closure recomputes every pairwise product from the element actions and
    compares it against the stored composition table, so a corrupted table
    is caught here.  Associativity is checked exhaustively on the table.
    Matrix actions must satisfy ``A.T A = I`` within ``atol``; a grid
    action is an isometry exactly when its ``perm`` is a bijection of the
    cells, and a grid element whose ``perm`` is not counts as error 1.
    """
    n = len(group)
    msgs: list[str] = []
    closure_ok, max_closure_err = True, 0.0
    for a in group.elements:
        for b in group.elements:
            claimed = group.elements[int(group.compose_table[a.gid, b.gid])]
            if a.kind == "grid":
                prod = _compose_perms(a.perm, b.perm)
                err = 0.0 if np.array_equal(prod, claimed.perm) else 1.0
            else:
                err = float(np.max(np.abs(a.matrix @ b.matrix - claimed.matrix)))
            max_closure_err = max(max_closure_err, err)
            if err > atol:
                closure_ok = False
                msgs.append(f"closure: {a.name} o {b.name} != {claimed.name}")

    ident_ok = True
    for a in group.elements:
        if (group.compose_table[0, a.gid] != a.gid
                or group.compose_table[a.gid, 0] != a.gid):
            ident_ok = False
            msgs.append(f"identity fails against {a.name}")

    inv_ok = True
    for a in group.elements:
        i = int(group.inverse_table[a.gid])
        if (group.compose_table[a.gid, i] != 0
                or group.compose_table[i, a.gid] != 0):
            inv_ok = False
            msgs.append(f"inverse fails for {a.name}")

    assoc_ok = True
    t = group.compose_table
    for a in range(n):
        for b in range(n):
            if not np.array_equal(t[t[a, b]], t[a][t[b]]):
                assoc_ok = False
                msgs.append(f"associativity fails at ({a}, {b})")

    ortho_ok, max_ortho_err = True, 0.0
    for a in group.elements:
        if a.kind == "matrix":
            d = a.matrix.shape[0]
            err = float(np.max(np.abs(a.matrix.T @ a.matrix - np.eye(d))))
        else:
            bijective = np.array_equal(np.sort(a.perm), np.arange(a.perm.size))
            err = 0.0 if bijective else 1.0
        max_ortho_err = max(max_ortho_err, err)
        if err > atol:
            ortho_ok = False
            msgs.append(f"orthogonality fails for {a.name}")

    return GroupCheckReport(
        closure=closure_ok,
        identity=ident_ok,
        inverses=inv_ok,
        associativity=assoc_ok,
        orthogonality=ortho_ok,
        max_orthogonality_error=max_ortho_err,
        max_closure_error=max_closure_err,
        messages=msgs,
    )


# ---- canonicalization ----------------------------------------------------


def default_canonicalizer(group: IsometryGroup) -> IsometryGroup:
    """The group itself once it has an orientation rule: flip_v, flip_h, C4
    or D4 on grids, C4 or D4 on 2-D points; InvalidParams for any other
    group."""
    if group.peak_region is None and (group.grid_shape or group.tag not in ("C4", "D4")):
        raise InvalidParams(f"no default canonicalizer for group {group.name!r}")
    return group


def _lex_first_max(column, width: int, alive: np.ndarray) -> np.ndarray:
    """Per row, the first k with alive[r, k] whose key row is the
    lexicographically largest among them; 0 where none is alive.
    ``column(j)`` gives entry j of every key as an (n, |G|) array."""
    for j in range(width):
        if not np.any(np.count_nonzero(alive, axis=1) > 1):
            break
        col = np.where(alive, column(j), -np.inf)
        alive &= col == np.max(col, axis=1, keepdims=True)
    return np.argmax(alive, axis=1)


def canonical_ids(group: IsometryGroup, xs: np.ndarray) -> np.ndarray:
    """Orientation ids of a batch: entry r is ``canonicalize(group, xs[r]).gid``.

    ``xs`` stacks states along its leading axis.  Points are moved by every
    inverse element in one stacked product and tested with one
    ``arctan2``.  On grids the peak cells of every row go once through the
    stacked inverse permutations, which gives each moved copy's first peak
    without moving the values.  Rows with several candidates take the
    lexicographically largest moved state, read one entry at a time.
    """
    G = default_canonicalizer(group)  # refuses a group without a rule
    xs = np.asarray(xs, dtype=float)
    want = G.state_shape
    channels = 0 if G.grid_shape is None else 1  # grids may end in a channel axis
    if xs.shape[1:1 + len(want)] != want or xs.ndim > 1 + len(want) + channels:
        raise InvalidParams(f"canonicalizer of {G.name} needs a batch of states "
                            f"of shape {want}, got {xs.shape}")
    if len(xs) == 0:
        return np.zeros(0, dtype=np.int64)
    if G.grid_shape is None:
        ys = _move_blocks(G, xs[None], G.inverse_table).transpose(1, 0, 2)
        angle = np.arctan2(ys[..., 1], ys[..., 0]) % (2.0 * np.pi)  # in [0, 2 pi)
        return _lex_first_max(lambda j: ys[:, :, j], ys.shape[2],
                              angle < 2.0 * np.pi / len(G))
    inv = G.stacked[G.inverse_table]
    flat = xs.reshape(len(xs), inv.shape[1], -1)
    _, cells, depth = flat.shape
    plane = np.max(flat, axis=-1)  # channels collapse by max: the global peak
    first = np.argmax((plane == np.max(plane, axis=1, keepdims=True))[:, inv], axis=-1)
    return _lex_first_max(lambda j: flat[:, inv[:, j // depth], j % depth],
                          cells * depth, G.peak_region[first])


def canonicalize(group: IsometryGroup, x: np.ndarray) -> GroupElement:
    """Return the orientation k of x: an element whose inverse moves x into
    the group's reference region.  For grids that is the region holding
    the entry of maximum value (``group.peak_region``: upper half, left
    half, upper-left quadrant, or its above-diagonal wedge), for 2-D
    points the angular sector ``[0, 2 pi / |G|)`` at the origin.

    Among the elements k whose inverse moves x into the reference region,
    the one with the lexicographically largest ``k^-1 x`` wins, so
    ``canonicalize(group, g x) = g canonicalize(group, x)`` also when the
    peak sits on a cell that a group element fixes.  Equal candidates
    resolve to the smallest id; with none, the identity is returned.
    """
    return group.elements[int(canonical_ids(group, np.asarray(x)[None])[0])]


class FrameAveragedField:
    """Group average of a vector field: s~(x) = mean_k k^-1 s(k x).

    A conditional field takes its conditioning state y as the first
    argument after x, and each element moves both states:
    s~(x, y) = mean_k k^-1 s(k x, k y).

    Each call makes one base call on the |G| moved copies of its input,
    stacked element by element along the leading axis: |G| states for a
    lone state, |G| n rows for a batch of n.  A conditional field's y is
    moved and stacked the same way.  The other arguments follow
    ``_tile_rows``: arrays of batch length (times, say) are tiled |G|
    times, everything else is shared.  Points and grids, lone states and
    batches take the same path: ``_move_blocks`` moves the copies out and
    the terms back, and the terms are summed along the element axis in
    ascending id order, so results are deterministic across runs.
    """

    def __init__(self, base, group: IsometryGroup, conditional: bool = False):
        self.base = base
        self.group = group
        self.conditional = conditional

    def __call__(self, x, *args):
        group, g = self.group, len(self.group)
        x = np.asarray(x, dtype=float)
        states, rest = ((x, args[0]), args[1:]) if self.conditional else ((x,), args)
        lone = _lead(group, x) == ()
        every, moved = np.arange(g), []
        for v in states:
            v = np.asarray(v, dtype=float)
            copies = _move_blocks(group, _one_block(group, v), every)
            moved.append(copies.reshape((g, *v.shape) if lone else (g * len(v), *v.shape[1:])))
        out = np.asarray(self.base(*moved, *_tile_rows(rest, None if lone else len(x), g)))
        del moved  # the stacked copies are dead; free them before the terms
        terms = _move_blocks(group, out.reshape(g, *_one_block(group, x).shape[1:]),
                             group.inverse_table)
        return (terms.sum(axis=0) / g).reshape(x.shape)


def _one_block(group: IsometryGroup, v: np.ndarray) -> np.ndarray:
    """v as a (1, rows, *state) block, its batch axes read as one."""
    lead = _lead(group, v)
    return v.reshape(1, math.prod(lead), *v.shape[len(lead):])


def frame_average(score, group: IsometryGroup, conditional: bool = False):
    """Wrap a score field so its output is exactly group-equivariant; with
    ``conditional=True`` its first argument after x moves with x.

    An unconditional field that provides its own ``frame_average(group)``
    (the mixture oracle, in closed form) is averaged by it; every other
    field, and every conditional average, by ``FrameAveragedField``.
    """
    if not conditional and hasattr(score, "frame_average"):
        return score.frame_average(group)
    return FrameAveragedField(score, group, conditional)
