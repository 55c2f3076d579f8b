"""The fills CSV and the order-context JSON that ``execsched attribute`` reads.

Only that command imports this module.  :func:`load_fills` reads a fills file
into the columns the attribution takes, by numpy's C tokenizer when the file
allows it and by ``csv`` otherwise; both routes give the same columns, the
``csv`` route words every error with the physical line it is on, and
:func:`load_fills` names the route that read the file.
"""
import csv
import hashlib
import io
import math
import warnings

import numpy as np

from execsched.attribution import SIDES, Fill, _FillColumns, _int_column
from execsched.schema import (
    SchemaError,
    _intval,
    _no_unknown,
    _num,
    _obj,
    _read_bytes,
    _required,
)

FILLS_HEADER = ["t", "participant", "side", "qty", "price"]


def _validate_context(doc) -> dict:
    ctx = _obj(doc, "context")
    _no_unknown(ctx, "context", {"arrival_price", "total_shares", "horizon", "price_path"})
    arrival = _num(_required(ctx, "arrival_price", "context"),
                   "context.arrival_price", positive=True)
    horizon = _intval(_required(ctx, "horizon", "context"), "context.horizon", lo=1)
    raw_path = _required(ctx, "price_path", "context")
    if not isinstance(raw_path, list):
        raise SchemaError("context.price_path", f"expected a list, got {raw_path!r}")
    if len(raw_path) != horizon + 1:
        raise SchemaError(
            "context.price_path",
            f"needs horizon + 1 = {horizon + 1} prices, got {len(raw_path)}",
        )
    path = tuple(
        _num(p, f"context.price_path[{i}]", positive=True)
        for i, p in enumerate(raw_path)
    )
    if not math.isclose(arrival, path[0], rel_tol=1e-12):
        raise SchemaError(
            "context.arrival_price", f"must equal price_path[0] = {path[0]}"
        )
    total = None
    if ctx.get("total_shares") is not None:
        total = _num(ctx["total_shares"], "context.total_shares", positive=True)
    return {
        "arrival_price": arrival,
        "total_shares": total,
        "horizon": horizon,
        "price_path": path,
    }


def _fill_row_problem(t, participant, side, qty, price) -> str | None:
    """Why one fills row is rejected, or None when it is valid."""
    try:
        t = int(t)
    except ValueError:
        return f"t: not an integer: {t!r}"
    try:
        qty, price = float(qty), float(price)
    except ValueError:
        return f"qty/price: not a number: {qty!r}, {price!r}"
    try:
        Fill(t=t, price=price, qty=qty, side=side, participant=participant)
    except ValueError as e:
        return str(e)
    return None


def _record_line(text: str, index: int) -> int:
    """Physical line on which the index-th nonblank record after the header starts."""
    reader = csv.reader(io.StringIO(text, newline=""))
    next(reader)
    start = reader.line_num + 1
    for row in reader:
        if row:
            if index == 0:
                break
            index -= 1
        start = reader.line_num + 1
    return start


def _first_bad_fill(cols: _FillColumns) -> int:
    """Index of the first fill that a column check rejects, or ``len(cols)``."""
    pair_ok = np.array([side in SIDES and who != "" for who, side in cols.orders], dtype=bool)
    bad = ~(
        (cols.t >= 1)
        & np.isfinite(cols.qty) & (cols.qty > 0.0)
        & np.isfinite(cols.price) & (cols.price > 0.0)
        & pair_ok[cols.order]
    )
    return int(np.argmax(bad)) if bad.any() else len(cols)


# ASCII bytes of a fills file that send it to the csv route: numpy does not
# read quotes and CR as csv does, it strips \x1c-\x1f around a number, which
# int() and float() reject, and a fixed-width string field drops trailing NULs
_CSV_ONLY_BYTES = (b'"', b"\r", b"\x1c", b"\x1d", b"\x1e", b"\x1f", b"\x00")
_PLAIN_HEADER = (",".join(FILLS_HEADER) + "\n").encode("ascii")
# The fewest bytes a valid fills line spends outside its participant: one-byte
# t, qty and price, side "buy" and four commas ("1,,buy,1,1").
_MIN_OTHER_FIELDS = len("1,,buy,1,1")
# The plain route reads participant at the width of the longest line less
# _MIN_OTHER_FIELDS and side at 5 bytes, so a record takes L + 19 bytes for a
# longest line of L bytes, and the records take more memory the more that line
# outgrows the others.  A fill's line holds at least 12 bytes ("1,a,buy,1,1"
# and a newline), so when every line is about as long as the longest the
# records take under 3 bytes per byte of the file.  A file whose records would
# take more than this many bytes per file byte (a few very long lines among
# short ones) goes to the csv route, whose strings take each field's own length.
_PLAIN_RECORD_BYTES_PER_FILE_BYTE = 8


def _plain_fill_columns(raw: bytes) -> _FillColumns | None:
    """The columns of an ASCII fills file that starts with the header line and
    holds none of ``_CSV_ONLY_BYTES``, read after the header by numpy's C
    tokenizer; None when a record does not parse, a row fails a check or the
    records would outgrow ``_PLAIN_RECORD_BYTES_PER_FILE_BYTE``.

    On such a file ``loadtxt`` splits records and fields as ``csv.reader``
    does, skips blank lines, rejects a record that is not 5 fields wide and
    parses a number to the value ``int()``/``float()`` give or not at all, so
    the columns are those of the csv route, which words every error.

    Fixed-width fields cut what does not fit, and only invalid rows lose
    bytes.  Side is read as 5 bytes: a longer side is neither ``buy`` nor
    ``sell``, and its 5 kept bytes are neither either.  Participant is read as
    wide as the longest line (the last one counts without a newline) less
    ``_MIN_OTHER_FIELDS``: a row whose participant is wider has a field too
    short to be valid, so it fails a check.  The participants are then copied
    down to the widest one read, beside the sides, and one stable
    ``np.unique`` over those (participant, side) keys codes the orders.
    """
    body = np.frombuffer(raw, np.uint8, offset=len(_PLAIN_HEADER))
    lengths = np.diff(np.flatnonzero(body == ord("\n")), prepend=-1, append=len(body)) - 1
    lines, longest = len(lengths), int(lengths.max())
    del lengths  # one int64 per line: gone before the records are read
    dtype = np.dtype([
        ("t", "i8"), ("participant", f"S{max(longest - _MIN_OTHER_FIELDS, 1)}"),
        ("side", "S5"), ("qty", "f8"), ("price", "f8"),
    ])
    if lines * dtype.itemsize > _PLAIN_RECORD_BYTES_PER_FILE_BYTE * len(raw):
        return None
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a file with no record only warns
        try:
            rec = np.loadtxt(
                io.BytesIO(raw), dtype=dtype, delimiter=",", comments=None,
                skiprows=1, ndmin=1, encoding="latin1",
            )
        except (ValueError, Warning):
            return None
    # key each fill on its participant and side bytes, the participant cut to
    # the widest one read, then number the keys in order of first appearance
    widest = max(int(np.char.str_len(rec["participant"]).max()), 1)
    keys = np.empty(len(rec), [("participant", f"S{widest}"), ("side", "S5")])
    keys["participant"] = rec["participant"]
    keys["side"] = rec["side"]
    t, qty, price = (rec[name].copy() for name in ("t", "qty", "price"))
    del rec
    _, first, inverse = np.unique(
        keys.view(f"V{keys.itemsize}"), return_index=True, return_inverse=True
    )
    by_first = np.argsort(first)
    cols = _FillColumns(
        t=t,
        qty=qty,
        price=price,
        order=np.argsort(by_first)[inverse],
        orders=tuple(
            (who.decode("ascii"), side.decode("ascii"))
            for who, side in keys[first[by_first]].tolist()
        ),
    )
    return cols if _first_bad_fill(cols) == len(cols) else None


def _csv_fill_columns(text: str) -> _FillColumns:
    """The columns of a fills text parsed by ``csv``.

    Errors name the physical line on which the first bad record starts.
    csv's field size limit (131072 characters by default) is lifted to the
    text's length for the read, since the numpy route has none, and put back
    afterwards.
    """
    limit = csv.field_size_limit(max(csv.field_size_limit(), len(text)))
    try:
        reader = csv.reader(io.StringIO(text, newline=""))
        header = next(reader, None)
        if header is None:
            raise SchemaError("fills", "empty file")
        if header != FILLS_HEADER:
            raise SchemaError(
                "fills",
                "header must be exactly "
                f"'{','.join(FILLS_HEADER)}', got '{','.join(header)}'",
            )
        t_raw, qty_raw, price_raw, order = [], [], [], []
        codes: dict[tuple[str, str], int] = {}
        width = None
        for row in reader:
            if len(row) == 5:
                t_raw.append(row[0])
                qty_raw.append(row[3])
                price_raw.append(row[4])
                order.append(codes.setdefault((row[1], row[2]), len(codes)))
            elif row:
                # the rows before it are checked first, so the earliest bad line is named
                width = len(row)
                break
        n = len(t_raw)
        if not n and width is None:
            raise SchemaError("fills", "no fill rows after the header")
        orders = tuple(codes)
        try:
            cols = _FillColumns(
                t=_int_column(t_raw),
                qty=np.fromiter(map(float, qty_raw), np.float64, n),
                price=np.fromiter(map(float, price_raw), np.float64, n),
                order=np.array(order, dtype=np.intp),
                orders=orders,
            )
        except ValueError:
            first_bad = 0
        else:
            first_bad = _first_bad_fill(cols)
            if first_bad == n and width is None:
                return cols
        # a value did not parse, a mask caught a row or a record has the wrong
        # width: the row checks word the error of the first bad row
        for i in range(first_bad, n):
            problem = _fill_row_problem(t_raw[i], *orders[order[i]], qty_raw[i], price_raw[i])
            if problem is not None:
                raise SchemaError(f"fills line {_record_line(text, i)}", problem)
        raise SchemaError(
            f"fills line {_record_line(text, n)}", f"expected 5 columns, got {width}"
        )
    finally:
        csv.field_size_limit(limit)


def _routed_fills(raw: bytes) -> tuple[_FillColumns, str]:
    """The columns of a fills CSV (strict header) and the route that read
    them, ``"plain"`` or ``"csv"``.

    An ASCII file that starts with the header line and holds none of
    ``_CSV_ONLY_BYTES`` goes through :func:`_plain_fill_columns`; any other
    file, and any file that route turns down, is decoded and goes through
    :func:`_csv_fill_columns`, which words every error.  Both give the same
    columns.  (numpy's int64 reader takes many non-ASCII characters for
    digits, so a non-ASCII file never reaches it.)
    """
    if (
        raw.startswith(_PLAIN_HEADER)
        and raw.isascii()
        and not any(b in raw for b in _CSV_ONLY_BYTES)
    ):
        cols = _plain_fill_columns(raw)
        if cols is not None:
            return cols, "plain"
    try:
        text = raw.decode("utf-8-sig")
    except UnicodeDecodeError as e:
        raise SchemaError("fills", f"not valid UTF-8 ({e})") from None
    return _csv_fill_columns(text), "csv"


def load_fills(path: str) -> tuple[_FillColumns, str, str]:
    """Parse a fills CSV (strict header) into columns; also return the file
    digest and the route that read it, ``"plain"`` or ``"csv"``."""
    raw = _read_bytes(path)
    cols, route = _routed_fills(raw)
    return cols, hashlib.sha256(raw).hexdigest(), route
