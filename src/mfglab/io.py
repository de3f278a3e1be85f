"""Artifact serialization: 17-digit CSV, sorted-key JSON, directories, atomic writes.

Every float is written as `FLOAT_FMT % x` would write it. `_slots` produces
those characters for a whole array at once; each grid coordinate, time and
particle weight is formatted once, and only the values that change from row to
row are formatted per row. The CSV writers yield their text a chunk of rows at
a time and `atomic_write_text` writes each chunk as it comes, so writing an
artifact holds one chunk of text, not the artifact. JSON is indented by two,
with sorted keys.

The module imports nothing from the package: the writers read the attributes
of the result objects they are given (`ValueField`, `MeasureFlow`, `Curve`,
`MFGSolution`).
"""

from __future__ import annotations

import json
import os
import tempfile
from collections.abc import Iterable, Iterator

import numpy as np

FLOAT_FMT = "%.17g"

# rows per assembly chunk: bounds the working memory to a few MB
_CHUNK_ROWS = 1 << 14
# characters per write: encoding a whole artifact at once allocates a second
# full-size copy, whose page faults cost more than the write itself
_WRITE_CHARS = 1 << 16

# -- %.17g for a whole array --------------------------------------------------
#
# For 1e-4 <= |x| < 1e16, "%.17g" writes x in fixed notation: the 17-digit
# correctly rounded decimal mantissa D (ties to even) with the point placed by
# the decimal exponent X, trailing fractional zeros and a bare point dropped.
# D comes from the exact product |x| 10^s = ph + pl (Dekker's TwoProduct,
# Numer. Math. 18, 1971), with s = 16 - X so that 1e16 <= ph + pl < 1e17 and
# 10^s is exact in binary64. ph is then an even integer at least 2^53, so
# D = ph + rint(pl). Zeros become a signed "0"; nan, infinities and every
# other value are written by FLOAT_FMT itself. Each value becomes a 24-byte
# slot holding its characters (in fixed notation after a sign byte, '-' or
# null) and null padding. A row is its slots and separators with the null
# bytes deleted.

_POW10 = np.array([float(10**s) for s in range(23)])  # exact up to 1e22
_SPLITTER = 134217729.0  # 2^27 + 1: Veltkamp's split of a double into two 26-bit halves


def _split(a):
    c = _SPLITTER * a
    hi = c - (c - a)
    return hi, a - hi


_POW10_HI, _POW10_LO = _split(_POW10)
_GROUP_DIGITS = np.arange(10000)[:, None] // np.array([1000, 100, 10, 1]) % 10  # (10000, 4)
# the four ASCII digits of each 4-digit group as one little-endian integer
_GROUP_TEXT = (_GROUP_DIGITS + ord("0")).astype(np.uint8).view("<u4")[:, 0].astype(np.uint64)
# the place (1-4) of each group's last nonzero digit, 0 for the group 0000
_GROUP_LAST = np.where(
    _GROUP_DIGITS.any(axis=1), 4 - np.argmax(_GROUP_DIGITS[:, ::-1] > 0, axis=1), 0
)
# significant digits of D up to that digit, or 0, for the groups at digits
# 2-5, 6-9, 10-13 and 14-17 of D
_GROUP_SIGNIFICANT = [
    np.where(_GROUP_LAST > 0, _GROUP_LAST + off, 0).astype(np.int8) for off in (1, 5, 9, 13)
]
_X_MIN, _X_MAX = -4, 15
_U8, _U16, _U48, _U64 = (np.uint64(b) for b in (8, 16, 48, 64))


def _layouts():
    """Slot layout for each exponent X and significant digit count nd (1-17),
    at index (X - _X_MIN) * 18 + nd. N is the sign byte (null or '-') and the
    17 digits of D in three little-endian words; the slot is (N & keep) |
    ((N << 8 shift) & moved) | text, where text is the point, or '0.' and
    zeros. The masks are given byte by byte and returned as words."""
    n = (_X_MAX - _X_MIN + 1) * 18
    keep, moved, text = (np.zeros((n, 24), np.uint8) for _ in range(3))
    shift = np.zeros(n, np.uint64)
    for X in range(_X_MIN, _X_MAX + 1):
        for nd in range(1, 18):
            i = (X - _X_MIN) * 18 + nd
            if X >= 0:  # X + 1 integer digits, then the point if a fractional digit is left
                point = X + 2
                end = point if nd <= X + 1 else nd + 2
                keep[i, : min(point, end)] = 0xFF
                moved[i, point + 1 : end] = 0xFF
                if end > point:
                    text[i, point] = ord(".")
                shift[i] = 8
            else:  # '0.', -X - 1 zeros, then the significant digits
                lead = 1 - X
                keep[i, 0] = 0xFF
                moved[i, 1 + lead : 1 + lead + nd] = 0xFF
                text[i, 1 : 1 + lead] = ord("0")
                text[i, 2] = ord(".")
                shift[i] = 8 * lead
    return (*(m.view("<u8").T.astype(np.uint64) for m in (keep, moved, text)), shift)


_KEEP, _MOVED, _TEXT, _SHIFT = _layouts()


def _two_product(a, s):
    """(ph, pl) with ph + pl = a * 10^s exactly and ph = fl(a * 10^s)."""
    p = a * _POW10.take(s)
    ah, al = _split(a)
    bh, bl = _POW10_HI.take(s), _POW10_LO.take(s)
    # ((ah bh - p) + ah bl + al bh) + al bl, in place
    pl = ah * bh
    pl -= p
    ah *= bl
    pl += ah
    ah = al * bh
    pl += ah
    al *= bl
    pl += al
    return p, pl


def _slots(a) -> np.ndarray:
    """`FLOAT_FMT % x` for every entry x of `a` in C order, as the 24-byte
    null-padded rows of a uint8 array."""
    x = np.asarray(a, dtype=float).ravel()
    ax = np.abs(x)
    fixed = (ax >= 1e-4) & (ax < 1e16)
    ax[~fixed] = 1.0
    X = np.floor(np.log10(ax)).astype(np.intp)  # may be one off next to a power of ten
    ph, pl = _two_product(ax, 16 - X)
    # +1 where the exact product is at least 1e17, -1 where it is below 1e16
    off = ((ph > 1e17) | ((ph == 1e17) & (pl >= 0))).view(np.int8) - (
        (ph < 1e16) | ((ph == 1e16) & (pl < 0))
    ).view(np.int8)
    redo = np.flatnonzero(off)
    X[redo] += off[redo]
    ph[redo], pl[redo] = _two_product(ax[redo], 16 - X[redo])
    D = ph.astype(np.int64)
    D += np.rint(pl).astype(np.int64)
    up = D == 10**17  # rounded up into the next decade: keeps the leading digit one digit
    D[up] = 10**16
    X += up

    hi = D // 10**8
    lo = D - hi * 10**8
    d0 = hi // 10**8
    hi -= d0 * 10**8
    g1 = hi // 10**4
    g2 = hi - g1 * 10**4
    g3 = lo // 10**4
    g4 = lo - g3 * 10**4
    t2, t4 = _GROUP_TEXT.take(g2), _GROUP_TEXT.take(g4)
    # N: byte 0 the sign, byte 1 the leading digit, bytes 2-17 the four groups
    n0 = np.signbit(x).view(np.uint8) * np.uint64(ord("-"))
    d0 += ord("0")
    n0 |= d0.view(np.uint64) << _U8
    n0 |= _GROUP_TEXT.take(g1) << _U16
    n0 |= t2 << _U48
    n1 = t2 >> _U16
    n1 |= _GROUP_TEXT.take(g3) << _U16
    n1 |= t4 << _U48
    n2 = t4 >> _U16
    # significant digits: up to the last nonzero group digit, or the leading digit alone
    nd = _GROUP_SIGNIFICANT[0].take(g1)
    for table, g in zip(_GROUP_SIGNIFICANT[1:], (g2, g3, g4)):
        np.maximum(nd, table.take(g), out=nd)
    np.maximum(nd, 1, out=nd)

    i = (X - _X_MIN) * 18 + nd
    shift = _SHIFT.take(i)
    carry = _U64 - shift
    words = np.empty((x.size, 3), np.uint64)
    tmp = np.empty(x.size, np.uint64)
    for w, (n, prev) in enumerate(((n0, None), (n1, n0), (n2, n1))):
        moved = n << shift
        if prev is not None:
            moved |= np.right_shift(prev, carry, out=tmp)
        moved &= _MOVED[w].take(i, out=tmp)
        moved |= np.bitwise_and(n, _KEEP[w].take(i, out=tmp), out=tmp)
        moved |= _TEXT[w].take(i, out=tmp)
        words[:, w] = moved
    out = words.astype("<u8", copy=False).view(np.uint8)

    zero = x == 0  # laid out as a signed 1, whose digit becomes 0
    out[zero, 1] = ord("0")
    for j in np.flatnonzero(~(fixed | zero)):
        s = (FLOAT_FMT % float(x[j])).encode()
        out[j] = 0
        out[j, : len(s)] = np.frombuffer(s, np.uint8)
    return out


def table_chunks(header: str, n_rows: int, columns) -> Iterator[str]:
    """The text of `header` and `n_rows` rows of comma-separated columns, as an
    iterator of chunks: the header line, then up to _CHUNK_ROWS rows at a time.

    A column is an array with one entry per row, formatted a chunk of rows at
    a time, or a pair (a, stride) whose row r holds a[(r // stride) % a.size],
    formatted once: the axes of a product layout. Every chunk is assembled in
    one buffer of fixed-width records whose separators are written once: a
    fresh buffer per chunk costs more in page faults than the formatting.
    """
    yield header + "\n"
    if n_rows == 0:  # an axis is empty (a flow without particles)
        return
    cells = []
    for c in columns:
        if isinstance(c, tuple):
            s = _slots(c[0])
            used = np.flatnonzero(s.any(axis=0))  # drops an all-null sign byte and padding
            s = np.ascontiguousarray(s[:, used[0] : used[-1] + 1])
            cells.append((s.view(f"V{s.shape[1]}")[:, 0], c[1]))
        else:
            c = np.asarray(c, dtype=float).ravel()
            if c.size != n_rows:
                raise ValueError(f"a column has {c.size} entries for {n_rows} rows")
            cells.append((c, None))
    widths = [24 if stride is None else a.itemsize for a, stride in cells]
    starts = np.cumsum([0] + [w + 1 for w in widths])
    record = np.dtype({
        "names": [f"c{j}" for j in range(len(cells))],
        "formats": [f"V{w}" for w in widths],
        "offsets": starts[:-1].tolist(),
        "itemsize": int(starts[-1]),
    })
    store = bytearray(min(n_rows, _CHUNK_ROWS) * record.itemsize)
    buf = np.frombuffer(store, np.uint8).reshape(-1, record.itemsize)
    buf[:, starts[1:] - 1] = ord(",")
    buf[:, -1] = ord("\n")
    records = buf.view(record)[:, 0]
    for r0 in range(0, n_rows, _CHUNK_ROWS):
        r = np.arange(r0, min(r0 + _CHUNK_ROWS, n_rows))
        for j, (a, stride) in enumerate(cells):
            if stride is None:
                records[f"c{j}"][: r.size] = _slots(a[r0 : r0 + r.size]).view("V24")[:, 0]
            else:
                records[f"c{j}"][: r.size] = a.take((r // stride) % a.size)
        text = store if r.size == records.size else store[: r.size * record.itemsize]
        yield text.translate(None, b"\0").decode("ascii")


def table_csv(header: str, n_rows: int, columns) -> str:
    """`table_chunks` joined into one string."""
    return "".join(table_chunks(header, n_rows, columns))


def json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def make_dir(path):
    os.makedirs(path, exist_ok=True)


def _umask() -> int:
    # os has no getter: set and restore (the package creates files on one thread only)
    mask = os.umask(0o022)
    os.umask(mask)
    return mask


def atomic_write_text(path, text: str | Iterable[str]):
    """Write `text`, a str or an iterable of str chunks, via a temp file in the
    same directory, then rename. Chunks are written as they come, so an
    iterable is never held whole. The file gets the mode `open()` would give
    it (0o666 less the umask), not mkstemp's 0o600; if writing fails, neither
    the temp file nor a new artifact is left."""
    path = os.fspath(path)
    d = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", text=True)
    try:
        os.fchmod(fd, 0o666 & ~_umask())
        with os.fdopen(fd, "w") as f:
            for chunk in [text] if isinstance(text, str) else text:
                for i in range(0, len(chunk), _WRITE_CHARS):
                    f.write(chunk[i : i + _WRITE_CHARS])
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def value_csv(field) -> Iterator[str]:
    """`ValueField` rows `t,x,v,u` (phase field) or `t,x,u` (limit field), as `table_chunks`."""
    g = field.grid
    if field.is_phase:
        nodes = [(g.t, g.x.size * g.v.size), (g.x, g.v.size), (g.v, 1)]
        return table_chunks("t,x,v,u", g.t.size * g.x.size * g.v.size, [*nodes, field.values])
    return table_chunks("t,x,u", g.t.size * g.x.size, [(g.t, g.x.size), (g.x, 1), field.values])


def flow_csv(flow) -> Iterator[str]:
    """`MeasureFlow` rows `t,x,v,w`, as `table_chunks`; marginal flows carry nan in the v column."""
    v = (np.array([np.nan]), 1) if flow.velocities is None else flow.velocities
    columns = [(flow.times, flow.n_particles), flow.positions, v, (flow.weights, 1)]
    return table_chunks("t,x,v,w", flow.positions.size, columns)


def curve_csv(curve) -> Iterator[str]:
    """`Curve` rows `t,gamma,dgamma,ddgamma`, as `table_chunks`."""
    columns = [curve.t, curve.x, curve.velocity, curve.acceleration]
    return table_chunks("t,gamma,dgamma,ddgamma", curve.t.size, columns)


def write_solution_dir(out_dir, solution, config_dict: dict):
    """Write value.csv, flow.csv, meta.json (with the run's config) for an `MFGSolution`."""
    make_dir(out_dir)
    atomic_write_text(os.path.join(out_dir, "value.csv"), value_csv(solution.value))
    atomic_write_text(os.path.join(out_dir, "flow.csv"), flow_csv(solution.flow))
    meta = {
        "kind": solution.kind,
        "eps": solution.value.eps,
        "iterations": solution.iterations,
        "fixed_point_gap": solution.fixed_point_gap,
        "gap_history": list(solution.gap_history),
        "converged": bool(solution.converged),
        "config": config_dict,
    }
    atomic_write_text(os.path.join(out_dir, "meta.json"), json_text(meta))
