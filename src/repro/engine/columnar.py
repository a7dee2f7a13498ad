"""Columnar batches and fused row-wise execution.

The streaming engine used to move ``list[dict]`` chunks: every row-wise
operator rebuilt one Python dict per row per operator, which made dict
churn — not the optimizer's transition choices — the dominant execution
cost.  This module replaces that representation with :class:`Batch`, a
column-dict of plain Python lists with an explicit column order, plus a
small JIT that *fuses* an adjacent chain of builtin row-wise activities
(FILTER / FUNCTION templates) into one compiled function per batch:

* filters refine a selection-index vector with one pass over the single
  column they touch — no row materialization at all;
* transforms (``function_apply``, ``surrogate_key``) compact the live
  columns once, then map only the columns they read or write;
* ``projection`` becomes a column-dict key drop — O(1) instead of one
  dict comprehension per row;
* per-component ``ExecutionStats`` counters fall out of the selection
  vector lengths, so the fused chain stays *bit-identical* to running
  each operator on row dicts.

A :class:`Batch` keeps a **lazy row-dict adapter**: sources wrap their
original row dicts untouched (``to_rows`` hands back the very same
objects), and a columnar batch materializes dicts only when an opaque
operator — a custom template, the join probe, the spill replay — actually
asks for rows.  Blocking and unknown templates therefore still see
``Row`` objects exactly as the materializing path does.

Compilation is lazy and per-schema: a chain is compiled on the first
batch that reaches it, keyed by the incoming column layout, so ragged or
evolving flows simply compile (or fall back) per layout.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterator, Mapping, Sequence
from dataclasses import dataclass
from typing import Any, Callable

from repro.core.activity import Activity
from repro.core.flags import columnar_enabled
from repro.engine.rows import Row, freeze_row
from repro.exceptions import ExecutionError

__all__ = [
    "Batch",
    "FusedChainRunner",
    "supports_columnar",
]


class _CannotFuse(Exception):
    """Internal: this chain/layout cannot be compiled — use the row path.

    Raised during codegen (never at batch runtime) when the chain turns
    out to reference an attribute the incoming layout does not carry, or
    uses a parameter shape the kernels do not model.  The caller caches
    the failure and runs the chain through the legacy row-at-a-time
    operators instead, so error behaviour (e.g. the ``KeyError`` a row
    operator raises on a missing attribute) stays exactly the row path's.
    """


#: order tuple -> generated ``values-tuple -> row dict`` function.  A
#: dict display with indexed loads builds a row measurably faster than
#: ``dict(zip(order, values))``, and the handful of layouts a run sees
#: makes the tiny generated functions worth caching process-wide.
_ROW_BUILDER_CACHE: dict[tuple[str, ...], Any] = {}
_ROW_BUILDER_LIMIT = 512


def _row_builder(order: tuple[str, ...]):
    builder = _ROW_BUILDER_CACHE.get(order)
    if builder is None:
        if len(_ROW_BUILDER_CACHE) >= _ROW_BUILDER_LIMIT:
            _ROW_BUILDER_CACHE.clear()
        items = ", ".join(
            f"{attr!r}: _t[{index}]" for index, attr in enumerate(order)
        )
        namespace: dict = {}
        exec(
            compile(
                f"def _row(_t):\n    return {{{items}}}\n",
                "<repro-row-builder>",
                "exec",
            ),
            namespace,
        )
        builder = namespace["_row"]
        _ROW_BUILDER_CACHE[order] = builder
    return builder


class Batch:
    """A fixed chunk of rows stored as columns (or wrapped rows).

    The public contract:

    * ``columns`` — mapping of column name to a list of values, one entry
      per row, in a stable column order;
    * ``num_rows`` / ``len(batch)`` — the row count (never inferred from
      a possibly-empty column dict);
    * ``rows()`` / ``to_rows()`` / iteration — the lazy row-dict adapter;
    * ``from_rows`` / ``from_columns`` — constructors.

    A batch is immutable: engine stages never mutate a batch's column
    lists in place (fan-out buffers replay the same batch to several
    consumers), they build new batches instead.

    Internally a batch is either *column-backed* (``columns`` given) or
    *row-backed* (built from row dicts and converted to columns only on
    first ``columns`` access).  Row-backed batches preserve the original
    dict objects, so opaque operators see exactly what the materializing
    path would feed them.
    """

    __slots__ = ("_columns", "_rows", "_num_rows", "_order")

    def __init__(
        self,
        columns: dict[str, list] | None = None,
        num_rows: int | None = None,
        _rows: list[Row] | None = None,
        _order: tuple[str, ...] | None = None,
    ):
        if columns is None and _rows is None:
            columns = {}
        self._columns = columns
        self._rows = _rows
        self._order = _order
        if num_rows is not None:
            self._num_rows = num_rows
        elif columns is not None:
            self._num_rows = len(next(iter(columns.values()))) if columns else 0
        else:
            self._num_rows = len(_rows)

    # -- constructors ----------------------------------------------------

    @classmethod
    def from_columns(
        cls, columns: dict[str, list], num_rows: int | None = None
    ) -> "Batch":
        """A column-backed batch over ``columns`` (not copied)."""
        return cls(columns=columns, num_rows=num_rows)

    @classmethod
    def from_rows(
        cls, rows: Sequence[Row], order: tuple[str, ...] | None = None
    ) -> "Batch":
        """Wrap ``rows`` as a row-backed batch (columns built lazily).

        ``order`` optionally declares the (already verified) column
        layout — e.g. a source's schema — so later column materialization
        can skip re-deriving it from the first row.
        """
        if isinstance(rows, Batch):
            return rows
        if not isinstance(rows, list):
            rows = list(rows)
        return cls(_rows=rows, _order=order)

    # -- shape -----------------------------------------------------------

    @property
    def num_rows(self) -> int:
        return self._num_rows

    def __len__(self) -> int:
        return self._num_rows

    def __bool__(self) -> bool:
        return self._num_rows > 0

    @property
    def schema(self) -> tuple[str, ...]:
        """Column names in column order."""
        if self._columns is not None:
            return tuple(self._columns)
        if self._order is not None:
            return self._order
        return tuple(self._rows[0]) if self._rows else ()

    # -- columnar view ---------------------------------------------------

    @property
    def columns(self) -> dict[str, list]:
        """The column dict; materialized from rows on first access."""
        if self._columns is None:
            self._columns = self._columns_from_rows()
        return self._columns

    @property
    def is_columnar(self) -> bool:
        """True when a column view already exists (cheap to use)."""
        return self._columns is not None

    def columns_or_none(self) -> dict[str, list] | None:
        """Like :attr:`columns`, but ``None`` for ragged row sets
        instead of raising — callers fall back to the row adapter."""
        if self._columns is not None:
            return self._columns
        try:
            return self.columns
        except ExecutionError:
            return None

    def _columns_from_rows(self) -> dict[str, list]:
        rows = self._rows
        if not rows:
            return {attr: [] for attr in (self._order or ())}
        order = self._order if self._order is not None else tuple(rows[0])
        width = len(order)
        try:
            columns = {attr: [row[attr] for row in rows] for attr in order}
        except KeyError as exc:
            raise ExecutionError(
                f"cannot build columns: row is missing attribute {exc.args[0]!r}"
            ) from None
        for row in rows:
            if len(row) != width:
                raise ExecutionError(
                    "cannot build columns: rows carry differing attribute sets"
                )
        return columns

    # -- row adapter -----------------------------------------------------

    def rows(self) -> Iterator[Row]:
        """The rows as dicts, lazily (original objects when row-backed)."""
        if self._rows is not None:
            return iter(self._rows)
        order = tuple(self._columns)
        if not order:
            return ({} for _ in range(self._num_rows))
        cols = [self._columns[attr] for attr in order]
        return map(_row_builder(order), zip(*cols))

    def to_rows(self) -> list[Row]:
        """The rows as a fresh list of dicts (see :meth:`rows`)."""
        if self._rows is not None:
            return list(self._rows)
        return list(self.rows())

    def __iter__(self) -> Iterator[Row]:
        return self.rows()

    def row_at(self, index: int) -> Row:
        """One row as a dict."""
        if self._rows is not None:
            return self._rows[index]
        return {attr: col[index] for attr, col in self._columns.items()}

    # -- columnar transforms --------------------------------------------

    def select(self, indices: Sequence[int]) -> "Batch":
        """A new batch holding the rows at ``indices`` (in that order)."""
        if self._columns is None:
            rows = self._rows
            return Batch.from_rows([rows[i] for i in indices], self._order)
        return Batch(
            columns={
                attr: [col[i] for i in indices]
                for attr, col in self._columns.items()
            },
            num_rows=len(indices),
        )

    def slice(self, start: int, stop: int) -> "Batch":
        """The rows in ``[start, stop)`` as a new batch."""
        stop = min(stop, self._num_rows)
        if self._columns is None:
            return Batch.from_rows(self._rows[start:stop], self._order)
        return Batch(
            columns={
                attr: col[start:stop] for attr, col in self._columns.items()
            },
            num_rows=max(0, stop - start),
        )

    @staticmethod
    def concat(pieces: "Sequence[Batch]") -> "Batch":
        """All pieces glued in order (columnar when layouts agree)."""
        pieces = [piece for piece in pieces if piece.num_rows]
        if not pieces:
            return Batch(columns={}, num_rows=0)
        if len(pieces) == 1:
            return pieces[0]
        first = pieces[0].columns_or_none()
        if first is not None and all(
            (cols := piece.columns_or_none()) is not None
            and set(cols) == set(first)
            for piece in pieces[1:]
        ):
            merged: dict[str, list] = {attr: list(col) for attr, col in first.items()}
            for piece in pieces[1:]:
                for attr, col in merged.items():
                    col.extend(piece.columns[attr])
            return Batch(
                columns=merged,
                num_rows=sum(piece.num_rows for piece in pieces),
            )
        rows: list[Row] = []
        for piece in pieces:
            rows.extend(piece.rows())
        return Batch.from_rows(rows)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "columnar" if self._columns is not None else "row-backed"
        return f"Batch({kind}, {self._num_rows} rows, schema={self.schema})"


def frozen_rows(columns: Mapping[str, list], num_rows: int) -> Iterator[tuple]:
    """Per-row ``freeze_row`` values computed column-wise.

    Yields, for each row, the tuple of ``(attr, value)`` pairs sorted by
    attribute name — exactly what :func:`repro.engine.rows.freeze_row`
    produces — without building the row dict first.  Hashability is *not*
    checked here; callers that need the row path's ``ExecutionError`` on
    unhashable values hash each tuple themselves.
    """
    attrs = sorted(columns)
    if not attrs:
        return (() for _ in range(num_rows))
    paired = [[(attr, value) for value in columns[attr]] for attr in attrs]
    return zip(*paired)


# ---------------------------------------------------------------------------
# Fused-chain compilation
# ---------------------------------------------------------------------------

#: Selection comparators that may be inlined into generated source.  The
#: spellings come from the builtin template contract; anything else makes
#: the chain fall back to the row-at-a-time operator.
_INLINE_OPS = frozenset({"<", "<=", ">", ">=", "==", "!="})

#: Builtin row-wise templates the fuser knows how to compile.
_FUSABLE = frozenset(
    {
        "selection",
        "not_null",
        "range_check",
        "pk_check",
        "projection",
        "function_apply",
        "surrogate_key",
    }
)

_FILTER_TEMPLATES = frozenset({"selection", "not_null", "range_check", "pk_check"})


def supports_columnar(component: Activity, registry) -> bool:
    """True when ``component`` can run through the fused columnar path.

    Requires a builtin row-wise template *still bound to its builtin
    operator* — re-registering a custom operator under a builtin name
    (``replace=True``) opts that template out of fusion, because the
    fused kernels compile the builtin semantics, not the replacement.
    """
    name = component.template.name
    if name not in _FUSABLE:
        return False
    if not registry.is_builtin(name):
        return False
    if name == "selection" and component.params.get("op") not in _INLINE_OPS:
        return False
    return True


class _Codegen:
    """Accumulates generated source plus its closure environment.

    The generated function has the shape::

        def _fused(_cols, _n0):
            _col1 = _cols['A']; ...
            <stage statements>
            return {'A': _col1, ...}, _nK, (<stat counts>,), (<rejects>,)

    Filters refine ``_sel`` (a list of surviving row indices); density —
    whether ``_sel`` covers every current row — is tracked *statically*
    at codegen time, so compaction gathers happen exactly where a
    transform or the chain end needs dense columns, guarded at runtime by
    a length check so selectivity-1.0 stretches skip the gather entirely.
    """

    def __init__(self, schema: tuple[str, ...]):
        self.prologue: list[str] = []
        self.lines: list[str] = []
        self.env: dict[str, Any] = {}
        self._serial = 0
        # column name -> current identifier, in row-dict key order
        self.cols: dict[str, str] = {}
        for attr in schema:
            ident = self.fresh("col")
            self.cols[attr] = ident
            self.prologue.append(f"    {ident} = _cols[{attr!r}]")
        self.dense = True
        self.count_var = "_n0"
        # The physical length of the column lists — equals count_var
        # whenever dense; filters shrink count_var but not the lists.
        self.physical_var = "_n0"
        # Attributes proven non-null for every surviving row: a passed
        # null-rejecting filter (selection / not_null / range_check)
        # establishes the fact, and since filters only shrink ``_sel``
        # it stays true until the column is replaced.  Later filters on
        # the same column then skip their ``is not None`` guard.
        self.not_null: set[str] = set()

    def fresh(self, stem: str) -> str:
        self._serial += 1
        return f"_{stem}{self._serial}"

    def bind(self, value: Any) -> str:
        ident = self.fresh("k")
        self.env[ident] = value
        return ident

    def pin(self, value: Any) -> None:
        """Hold ``value`` in the kernel environment without using it.

        ``_PROGRAM_CACHE`` keys on the ``id()`` of resolved context
        objects, which is only sound while those objects stay alive.
        Stages whose emitted code binds a *derived* object (an unwrapped
        reference set, an inlined scalar) must pin the original here, or
        its id could be recycled by a different object once the owning
        context dies — and a later chain would wrongly hit this entry.
        """
        self.env[self.fresh("pin")] = value

    def emit(self, line: str) -> None:
        self.lines.append("    " + line)

    def col(self, attr: str) -> str:
        try:
            return self.cols[attr]
        except KeyError:
            raise _CannotFuse(attr) from None

    # -- density management ---------------------------------------------

    def ensure_dense(self) -> None:
        """Compact every live column through ``_sel`` (when needed)."""
        if self.dense:
            return
        if self.cols:
            # Skip the gather when no filter actually dropped a row —
            # _sel is then the identity permutation by construction.
            self.emit(f"if {self.count_var} != {self.physical_var}:")
            for ident in self.cols.values():
                self.emit(f"    {ident} = [{ident}[_i] for _i in _sel]")
        self.dense = True
        self.physical_var = self.count_var

    def filter_stage(self, expr: str) -> tuple[str, str]:
        """Emit one filter stage; returns (rows_in, rows_out) count exprs."""
        rows_in = self.count_var
        if self.dense:
            self.emit(f"_sel = [_i for _i in range({self.count_var}) if {expr}]")
            self.dense = False
        else:
            self.emit(f"_sel = [_i for _i in _sel if {expr}]")
        out_var = self.fresh("n")
        self.emit(f"{out_var} = len(_sel)")
        self.count_var = out_var
        return rows_in, out_var


#: Builtin scalar functions whose bodies are pure single-argument
#: expressions, keyed by code object (nested defs share one code object
#: across :func:`default_scalar_functions` calls, and none of these
#: close over anything, so code identity pins exact semantics).  The
#: expression is inlined into the fused loop over ``_v``.
def _scalar_inline_table() -> dict[Any, str]:
    from repro.engine.operators import default_scalar_functions

    templates = {
        "dollar_to_euro": "(round(_v * 0.88, 6) if _v is not None else None)",
        "scale_double": "(_v * 2 if _v is not None else None)",
        "shift_up": "(_v + 1000 if _v is not None else None)",
        "negate": "(-_v if _v is not None else None)",
    }
    return {
        fn.__code__: templates[name]
        for name, fn in default_scalar_functions().items()
        if name in templates
    }


_SCALAR_INLINE = _scalar_inline_table()


def _emit_stage(
    gen: _Codegen, component: Activity, context
) -> tuple[str, str]:
    """Emit one component's kernel; returns (rows_in, rows_out) exprs.

    Each kernel mirrors the corresponding builtin operator in
    :mod:`repro.engine.operators` statement for statement — including the
    dict-key-order effects of ``function_apply`` / ``surrogate_key``
    (columns are dropped and (re)inserted on the codegen column map with
    the same ordering rules ``dict`` applies to rows) and the in-order
    per-row error behaviour of scalar functions and lookups.
    """
    name = component.template.name
    params = component.params
    if name == "selection":
        op = params["op"]
        if op not in _INLINE_OPS:
            raise _CannotFuse(f"selection op {op!r}")
        attr = params["attr"]
        column = gen.col(attr)
        value = gen.bind(params["value"])
        if attr in gen.not_null:
            expr = f"{column}[_i] {op} {value}"
        else:
            expr = f"(_v := {column}[_i]) is not None and _v {op} {value}"
        counts = gen.filter_stage(expr)
        gen.not_null.add(attr)
        return counts
    if name == "not_null":
        attr = params["attr"]
        column = gen.col(attr)
        if attr in gen.not_null:
            # Already proven: the stage passes every surviving row.
            return gen.count_var, gen.count_var
        counts = gen.filter_stage(f"{column}[_i] is not None")
        gen.not_null.add(attr)
        return counts
    if name == "range_check":
        attr = params["attr"]
        column = gen.col(attr)
        low = gen.bind(params["low"])
        high = gen.bind(params["high"])
        if attr in gen.not_null:
            expr = f"{low} <= {column}[_i] <= {high}"
        else:
            expr = (
                f"(_v := {column}[_i]) is not None and {low} <= _v <= {high}"
            )
        counts = gen.filter_stage(expr)
        gen.not_null.add(attr)
        return counts
    if name == "pk_check":
        keys = tuple(params["key_attrs"])
        existing = context.reference(params["reference"])
        idents = [gen.col(key) for key in keys]
        if len(idents) == 1 and all(
            type(entry) is tuple and len(entry) == 1 for entry in existing
        ):
            # Unwrap a pure single-attribute reference once at compile
            # so the per-row key needs no tuple allocation.  The cache
            # key carries ``id(existing)``, so the original set must
            # stay alive as long as this kernel does.
            gen.pin(existing)
            ref = gen.bind(frozenset(entry[0] for entry in existing))
            return gen.filter_stage(f"{idents[0]}[_i] not in {ref}")
        ref = gen.bind(existing)
        if len(idents) == 1:
            key_expr = f"({idents[0]}[_i],)"
        else:
            key_expr = "(" + ", ".join(f"{c}[_i]" for c in idents) + ")"
        return gen.filter_stage(f"{key_expr} not in {ref}")
    if name == "projection":
        # Dropping attributes never touches values: a column-dict key
        # removal replaces one dict comprehension per row.
        for attr in set(params["attrs"]):
            gen.cols.pop(attr, None)
            gen.not_null.discard(attr)
        return gen.count_var, gen.count_var
    if name == "function_apply":
        function = context.scalar(params["function"])
        in_attrs = tuple(params["inputs"])
        out_attr = params["output"]
        in_place = out_attr in in_attrs
        drop_inputs = params.get("drop_inputs", True) and not in_place
        sources = [gen.col(attr) for attr in in_attrs]
        gen.ensure_dense()
        out = gen.fresh("col")
        inline = (
            _SCALAR_INLINE.get(getattr(function, "__code__", None))
            if len(sources) == 1
            else None
        )
        if inline is not None:
            # A known builtin scalar: its body is a pure expression over
            # one argument, so the call disappears into the loop.  The
            # cache key carries ``id(function)`` — pin it so the id
            # cannot be recycled while this kernel is cached.
            gen.pin(function)
            gen.emit(f"{out} = [{inline} for _v in {sources[0]}]")
        elif sources:
            fn = gen.bind(function)
            gen.emit(f"{out} = list(map({fn}, {', '.join(sources)}))")
        else:
            fn = gen.bind(function)
            gen.emit(f"{out} = [{fn}() for _i in range({gen.count_var})]")
        if drop_inputs:
            for attr in in_attrs:
                gen.col(attr)  # duplicate inputs fall back to the row path
                del gen.cols[attr]
        # dict-assignment semantics: replace in place when the attribute
        # exists, append at the end otherwise — exactly what
        # ``new_row[out_attr] = value`` does on a row dict.
        gen.cols[out_attr] = out
        gen.not_null.discard(out_attr)
        return gen.count_var, gen.count_var
    if name == "surrogate_key":
        lookup = context.lookup(params["lookup"])
        key_column = gen.col(params["key_attr"])
        gen.ensure_dense()
        out = gen.fresh("col")
        raw = context.lookups[params["lookup"]]
        if not callable(raw):
            # Mapping table: index it directly (C speed) and rebuild the
            # row operator's error on a miss — same message, same key.
            get = gen.bind(raw.__getitem__)
            err = gen.bind(ExecutionError)
            prefix = gen.bind(
                f"lookup {params['lookup']!r} has no surrogate for key "
            )
            gen.emit("try:")
            gen.emit(f"    {out} = list(map({get}, {key_column}))")
            gen.emit("except KeyError as _e:")
            gen.emit(
                f"    raise {err}({prefix} + repr(_e.args[0])) from None"
            )
        else:
            fn = gen.bind(lookup)
            gen.emit(f"{out} = list(map({fn}, {key_column}))")
        # pop-then-set order: the production key leaves its slot first,
        # so skey_attr == key_attr appends at the end like the row path.
        del gen.cols[params["key_attr"]]
        gen.cols[params["skey_attr"]] = out
        gen.not_null.discard(params["skey_attr"])
        gen.not_null.discard(params["key_attr"])
        return gen.count_var, gen.count_var
    raise _CannotFuse(name)


def _tuple_literal(items: Sequence[str]) -> str:
    items = list(items)
    if not items:
        return "()"
    if len(items) == 1:
        return f"({items[0]},)"
    return "(" + ", ".join(items) + ")"


@dataclass(frozen=True)
class _RejectBound:
    """A contiguous run of filter stages whose drops one activity owns."""

    start: int  # first stage index, inclusive
    end: int  # last stage index, exclusive
    activity_id: str


#: Process-wide source → code-object cache.  Codegen is deterministic, so
#: the same chain shape over the same layout always produces the same
#: source; bound constants live in the per-chain exec namespace, never in
#: the code object, which makes sharing across runs/contexts safe.
_CODE_CACHE: dict[str, Any] = {}
_CODE_CACHE_LIMIT = 512


def _compile_chain(
    stages: Sequence[Activity],
    bounds: Sequence[_RejectBound],
    schema: tuple[str, ...],
    context,
) -> Callable:
    """Compile a fused function for ``stages`` over ``schema``.

    Returns ``_fused(cols, num_rows) -> (out_cols, out_rows, counts,
    rejects)`` where ``counts`` flattens per-stage ``(rows_in,
    rows_out)`` pairs and ``rejects`` holds one dropped-row list per
    reject bound.  Raises :class:`_CannotFuse` when the layout cannot be
    compiled; context-resolution failures (unknown scalar / lookup /
    reference) raise :class:`~repro.exceptions.ExecutionError` exactly as
    the row operators would on their first batch.
    """
    gen = _Codegen(schema)
    counts: list[tuple[str, str]] = []
    bound_starts = {bound.start: j for j, bound in enumerate(bounds)}
    bound_ends = {bound.end: j for j, bound in enumerate(bounds)}
    reject_idents: list[str] = ["" for _ in bounds]
    prev_exprs: list[str] = ["" for _ in bounds]
    for index, component in enumerate(stages):
        j = bound_starts.get(index)
        if j is not None:
            if component.template.name not in _FILTER_TEMPLATES:
                raise _CannotFuse("reject bound holds a non-filter stage")
            reject = gen.fresh("rej")
            gen.emit(f"{reject} = []")
            reject_idents[j] = reject
            if gen.dense:
                prev_exprs[j] = f"range({gen.count_var})"
            else:
                prev = gen.fresh("prev")
                gen.emit(f"{prev} = _sel")
                prev_exprs[j] = prev
        counts.append(_emit_stage(gen, component, context))
        j = bound_ends.get(index + 1)
        if j is not None:
            # Filters keep rows unmodified and _sel ascending, so the
            # dropped rows come out in input order — the same order the
            # row path's per-batch bag difference reports them in.
            kept = gen.fresh("kept")
            gen.emit(f"{kept} = set(_sel)")
            row_literal = (
                "{"
                + ", ".join(
                    f"{attr!r}: {ident}[_i]"
                    for attr, ident in gen.cols.items()
                )
                + "}"
            )
            gen.emit(
                f"{reject_idents[j]}.extend({row_literal} "
                f"for _i in {prev_exprs[j]} if _i not in {kept})"
            )
    gen.ensure_dense()
    cols_literal = (
        "{"
        + ", ".join(f"{attr!r}: {ident}" for attr, ident in gen.cols.items())
        + "}"
    )
    flat_counts = [expr for pair in counts for expr in pair]
    body = list(gen.prologue) + list(gen.lines)
    body.append(
        f"    return {cols_literal}, {gen.count_var}, "
        f"{_tuple_literal(flat_counts)}, {_tuple_literal(reject_idents)}"
    )
    source = "def _fused(_cols, _n0):\n" + "\n".join(body) + "\n"
    code = _CODE_CACHE.get(source)
    if code is None:
        if len(_CODE_CACHE) >= _CODE_CACHE_LIMIT:
            _CODE_CACHE.clear()
        code = compile(source, "<repro-fused-chain>", "exec")
        _CODE_CACHE[source] = code
    namespace = dict(gen.env)
    exec(code, namespace)
    return namespace["_fused"]


_UNCOMPILED = object()

#: Cross-run program cache.  Keyed by the chain's *structure* (template
#: names + params), the column layout, the reject bounds, and the
#: identities of the context objects the kernel binds (scalar functions,
#: lookup tables, reference sets).  The cached function's environment
#: holds strong references to exactly those objects, so the ids in the
#: key cannot be recycled while the entry lives; replacing a context
#: entry with a new object simply misses and recompiles.
_PROGRAM_CACHE: dict[tuple, Any] = {}
_PROGRAM_CACHE_LIMIT = 512


def _chain_cache_key(
    stages: Sequence[Activity],
    bounds: Sequence[_RejectBound],
    layout: tuple[str, ...],
    context,
) -> tuple:
    """Structural identity of a compiled chain (see ``_PROGRAM_CACHE``).

    Resolves the same context names the compiler would, so unknown
    scalar/lookup/reference names raise :class:`ExecutionError` here —
    on the first batch, exactly like the row operators.
    """
    parts = []
    for component in stages:
        name = component.template.name
        params = component.params
        if name == "function_apply":
            resolved = id(context.scalar(params["function"]))
        elif name == "surrogate_key":
            context.lookup(params["lookup"])
            resolved = id(context.lookups[params["lookup"]])
        elif name == "pk_check":
            resolved = id(context.reference(params["reference"]))
        else:
            resolved = 0
        parts.append((name, repr(sorted(params.items())), resolved))
    return (layout, tuple(bounds), tuple(parts))


class FusedChainRunner:
    """Runs a chain of row-wise components one batch at a time.

    This is the engine's one row-wise chain runner: streaming pipes,
    partition shards and batch-granular checkpoints all run their chains
    through it.  The runner compiles a fused function lazily per
    incoming column layout and falls back to the row operators
    (:meth:`_run_rows`) — keeping error semantics and custom corner
    cases bit-identical to the materializing path — for three reasons:
    a layout it cannot compile (ragged rows, a missing attribute), a
    stage :func:`supports_columnar` rejects (a custom or re-bound
    template), or ``REPRO_NO_COLUMNAR`` (see :mod:`repro.core.flags`).

    ``add`` may be called repeatedly *before* the first batch to grow
    the chain across node boundaries; callers extend a runner only with
    stages that :meth:`fits`, so a custom template never drags its
    builtin neighbours onto the row path.
    """

    def __init__(self, context, registry):
        self.context = context
        self.registry = registry
        self.stages: list[Activity] = []
        self.bounds: list[_RejectBound] = []
        #: True while every stage can run on the fused kernels.
        self.columnar = columnar_enabled()
        self._programs: dict[tuple[str, ...], Any] = {}

    def _compiles(self, components: Sequence[Activity]) -> bool:
        return columnar_enabled() and all(
            supports_columnar(component, self.registry)
            for component in components
        )

    def fits(self, components: Sequence[Activity]) -> bool:
        """True when ``components`` run on the same path as this chain
        (both fused, or both row operators)."""
        return not self.stages or self._compiles(components) == self.columnar

    def add(
        self,
        components: Sequence[Activity],
        reject_activity_id: str | None = None,
    ) -> None:
        """Append components; with an id, track their drops as rejects."""
        start = len(self.stages)
        self.stages.extend(components)
        self.columnar = self._compiles(self.stages)
        if reject_activity_id is not None:
            self.bounds.append(
                _RejectBound(start, len(self.stages), reject_activity_id)
            )
        self._programs.clear()

    def stage_in_reject_bound(self, index: int) -> bool:
        return any(
            bound.start <= index < bound.end for bound in self.bounds
        )

    def run_batch(
        self, batch: Batch
    ) -> tuple[Batch, list[tuple[int, int]], dict[str, list[Row]]]:
        """One batch through the whole chain.

        Returns ``(out_batch, stage_counts, rejects_by_activity)`` where
        ``stage_counts[i]`` is the ``(rows_in, rows_out)`` pair of stage
        ``i`` — the caller owns stats/metric recording policy.
        """
        columns = batch.columns_or_none() if self.columnar else None
        if columns is not None:
            key = tuple(columns)
            fn = self._programs.get(key, _UNCOMPILED)
            if fn is _UNCOMPILED:
                gkey = _chain_cache_key(
                    self.stages, self.bounds, key, self.context
                )
                fn = _PROGRAM_CACHE.get(gkey, _UNCOMPILED)
                if fn is _UNCOMPILED:
                    try:
                        fn = _compile_chain(
                            self.stages, self.bounds, key, self.context
                        )
                    except _CannotFuse:
                        # None entries pin nothing, so their keyed ids
                        # may be recycled — a spurious hit here only
                        # forces the (always correct) row fallback.
                        fn = None
                    if len(_PROGRAM_CACHE) >= _PROGRAM_CACHE_LIMIT:
                        _PROGRAM_CACHE.clear()
                    _PROGRAM_CACHE[gkey] = fn
                self._programs[key] = fn
            if fn is not None:
                out_cols, out_rows, flat, rejects = fn(
                    columns, batch.num_rows
                )
                stage_counts = list(zip(flat[0::2], flat[1::2]))
                dropped = {
                    bound.activity_id: rejects[j]
                    for j, bound in enumerate(self.bounds)
                }
                return (
                    Batch.from_columns(out_cols, out_rows),
                    stage_counts,
                    dropped,
                )
        return self._run_rows(batch)

    def _run_rows(
        self, batch: Batch
    ) -> tuple[Batch, list[tuple[int, int]], dict[str, list[Row]]]:
        """The row-operator path.  Once the flow is empty, later stages
        report ``(0, 0)`` without calling their operators."""
        rows = batch.to_rows()
        stage_counts: list[tuple[int, int]] = []
        dropped = {bound.activity_id: [] for bound in self.bounds}
        starts = {bound.start: bound for bound in self.bounds}
        ends = {bound.end: bound for bound in self.bounds}
        entering: dict[str, list[Row]] = {}
        out = rows
        for index, component in enumerate(self.stages):
            bound = starts.get(index)
            if bound is not None:
                entering[bound.activity_id] = out
            if out:
                operator = self.registry.get(component.template.name)
                produced = operator(component, (out,), self.context)
                stage_counts.append((len(out), len(produced)))
                out = produced
            else:
                stage_counts.append((0, 0))
            bound = ends.get(index + 1)
            if bound is not None:
                kept = Counter(freeze_row(row) for row in out)
                rejects = dropped[bound.activity_id]
                for row in entering[bound.activity_id]:
                    frozen = freeze_row(row)
                    if kept[frozen] > 0:
                        kept[frozen] -= 1
                    else:
                        rejects.append(row)
        return Batch.from_rows(out), stage_counts, dropped
