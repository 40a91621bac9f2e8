import pytest

from tilepar.ndarray import (
    Allocator, NdArray, ShapeError, View, concat, decompose,
    elementwise, load_array, offsets, slice_axis,
)

from arrays import dump_array, materialize


def arange(n):
    return NdArray((n,), "i64", "row", list(range(1, n + 1)))


def test_decompose_with_straggler():
    tiles = decompose(arange(10), 0, 3)
    assert [t.shape[0] for t in tiles] == [3, 3, 3, 1]


def test_decompose_exact_division():
    tiles = decompose(arange(9), 0, 3)
    assert [t.shape[0] for t in tiles] == [3, 3, 3]


def test_decompose_k_larger_than_extent():
    tiles = decompose(arange(5), 0, 8)
    assert len(tiles) == 1
    assert tiles[0].shape == (5,)
    assert concat(tiles, 0).data == arange(5).data


def test_decompose_errors():
    with pytest.raises(ShapeError):
        decompose(arange(5), 1, 2)
    with pytest.raises(ShapeError):
        decompose(arange(5), 0, 0)


@pytest.mark.parametrize("length,k", [(10, 3), (9, 3), (5, 8), (7, 1), (64, 64)])
def test_partition_law(length, k):
    x = arange(length)
    assert concat(decompose(x, 0, k), 0).data == x.data


def test_partition_law_2d_both_layouts():
    for layout in ("row", "col"):
        x = NdArray((4, 6), "i64", layout, list(range(24)))
        for axis in (0, 1):
            back = concat(decompose(x, axis, 3), axis)
            assert back.to_nested() == x.to_nested()


def test_tiles_preserve_rank():
    x = NdArray((4, 6), "i64")
    for t in decompose(x, 1, 4):
        assert t.rank == x.rank


def test_slice_axis():
    m = NdArray.from_nested([[1, 2, 3], [4, 5, 6]])
    assert slice_axis(m, 0, 1).to_nested() == [4, 5, 6]
    assert slice_axis(m, 1, 2).to_nested() == [3, 6]
    with pytest.raises(ShapeError):
        slice_axis(m, 2, 0)
    with pytest.raises(ShapeError):
        slice_axis(m, 0, 5)


def test_views_are_zero_copy():
    x = arange(10)
    t = decompose(x, 0, 4)[1]
    x.data[4] = 99
    assert t.get((0,)) == 99


def test_elementwise():
    a = NdArray((2,), "i64", "row", [1, 2])
    assert elementwise("+", a, 1).to_nested() == [2, 3]
    b = NdArray((2,), "i64", "row", [10, 20])
    assert elementwise("*", a, b).to_nested() == [10, 40]
    assert elementwise("+", 1, 2) == 3
    assert elementwise("/", a, b).dtype == "f64"
    with pytest.raises(ShapeError):
        elementwise("+", a, NdArray((3,), "i64"))


def test_elementwise_promotion():
    a = NdArray((2,), "i64", "row", [1, 2])
    f = NdArray((2,), "f64", "row", [0.5, 0.5])
    out = elementwise("+", a, f)
    assert out.dtype == "f64"
    assert out.to_nested() == [1.5, 2.5]


def test_min_max_ops():
    a = NdArray((3,), "i64", "row", [3, 1, 4])
    b = NdArray((3,), "i64", "row", [2, 2, 2])
    assert elementwise("min", a, b).to_nested() == [2, 1, 2]
    assert elementwise("max", a, b).to_nested() == [3, 2, 4]


def test_offsets_row_major():
    x = NdArray((2, 2), "i64", "row")
    assert list(offsets(x)) == [0, 1, 2, 3]


def test_offsets_col_major():
    x = NdArray((2, 2), "i64", "col")
    assert list(offsets(x)) == [0, 2, 1, 3]


def test_offsets_tiled_blocks():
    # 4x4 row-major visited as 2x2 blocks, row-by-row inside each block:
    # offsets stay inside one 2x2 block before moving to the next.
    x = NdArray((4, 4), "i64", "row")
    expected = []
    for br in range(2):
        for bc in range(2):
            for r in range(2):
                for c in range(2):
                    expected.append((br * 2 + r) * 4 + (bc * 2 + c))
    got = []
    for row_tile in decompose(x, 0, 2):
        for block in decompose(row_tile, 1, 2):
            got.extend(offsets(block))
    assert got == expected


def test_allocator_alignment():
    alloc = Allocator()
    a = NdArray((3,), "i64")
    b = NdArray((5,), "i64")
    alloc.allocate(a)
    alloc.allocate(b)
    assert a.addr == 0
    assert b.addr == 64  # 24 bytes rounded up to the 64-byte line


def test_rank0_scalar_wrapper():
    s = NdArray.scalar(7)
    assert s.rank == 0
    assert s.get(()) == 7


def test_zero_extent_allowed():
    # Operator semantics require empty slices (map over an empty axis),
    # so zero extents are representable.
    e = NdArray((0,), "i64")
    assert e.size == 0


def test_array_file_round_trip():
    x = NdArray((2, 3), "f64", "col", [1.0, 2.0, 3.0, 4.0, 5.5, 6.0])
    text = dump_array(x)
    y = load_array(text)
    assert y.shape == x.shape
    assert y.dtype == x.dtype
    assert y.layout == x.layout
    assert y.data == x.data


def test_load_array_validates():
    with pytest.raises(ShapeError):
        load_array("shape: 2\ndtype: i64\n1 2")
    with pytest.raises(ShapeError):
        load_array("shape: 2\ndtype: i64\nlayout: diag\n1 2")


def test_materialize_preserves_values():
    m = NdArray.from_nested([[1, 2, 3], [4, 5, 6]])
    t = decompose(m, 1, 2)[1]
    d = materialize(t)
    assert isinstance(d, NdArray)
    assert d.to_nested() == [[3], [6]]


@pytest.mark.parametrize("layout", ["row", "col"])
def test_from_nested_places_every_element(layout):
    nested = [[[1, 2], [3, 4], [5, 6]], [[7, 8], [9, 10], [11, 12.5]]]
    x = NdArray.from_nested(nested, layout=layout)
    assert (x.shape, x.dtype, x.layout) == ((2, 3, 2), "f64", layout)
    assert x.to_nested() == nested
    ints = NdArray.from_nested(((1, 2, 3), (4, 5, 6)), layout=layout)
    assert (ints.shape, ints.dtype, ints.to_nested()) == ((2, 3), "i64", [[1, 2, 3], [4, 5, 6]])
    assert NdArray.from_nested([[], []], layout=layout).shape == (2, 0)
    scalar = NdArray.from_nested(2.5)
    assert (scalar.shape, scalar.dtype, scalar.data) == ((), "f64", [2.5])


@pytest.mark.parametrize("layout", ["row", "col"])
@pytest.mark.parametrize("nested", [
    [[1, 2], [3]],          # a short row
    [[1, 2], [3, 4, 5]],    # a long row
    [[1, 2], 5],            # a scalar where a row belongs
    [5, [1, 2]],            # a row where a scalar belongs
    [[[1], [2]], [[3], 4]],
])
def test_from_nested_rejects_ragged_input(nested, layout):
    with pytest.raises(ShapeError, match="ragged"):
        NdArray.from_nested(nested, layout=layout)


# Elements must be ints or floats: a bool, a str or None raises ShapeError
# when the array is built, not a bare TypeError once arithmetic reaches it.
@pytest.mark.parametrize("nested, found", [
    (["a", None], "NoneType, str"),
    ([[1, 2], [3, True]], "bool"),
    ([[1.5], [None]], "NoneType"),
    ("a", "str"),  # rank 0
])
def test_from_nested_rejects_non_numbers(nested, found):
    with pytest.raises(ShapeError, match=f"must be int or float, got {found}$"):
        NdArray.from_nested(nested)


@pytest.mark.parametrize("data, found", [
    ([1.5, "x"], "str"),
    ([1, False], "bool"),
    ([None, 2], "NoneType"),
])
def test_constructor_rejects_non_numbers(data, found):
    with pytest.raises(ShapeError, match=f"must be int or float, got {found}$"):
        NdArray((2,), "i64", "row", data)


# An i64 array holds ints only, which lets a node kernel know that an i64
# operand's values are ints without a look at them; an f64 one may hold ints.
def test_i64_arrays_reject_floats():
    for build in (lambda: NdArray((2,), "i64", "row", [1, 2.5]),
                  lambda: NdArray.from_nested([[1], [2.5]], "i64")):
        with pytest.raises(ShapeError, match="i64 elements must be int, got float$"):
            build()
    assert NdArray((2,), "f64", "row", [1, 2.5]).data == [1, 2.5]
    assert NdArray.from_nested([[1], [2]], "f64").data == [1, 2]


def test_from_nested_checks_dtype_and_layout():
    assert NdArray.from_nested([1, 2], "f64").dtype == "f64"
    with pytest.raises(ShapeError, match="unknown dtype"):
        NdArray.from_nested([1, 2], "f32")
    with pytest.raises(ShapeError, match="unknown layout"):
        NdArray.from_nested([[1, 2]], layout="diag")


def test_reprs_show_shape_and_dtype():
    x = NdArray((2, 3), "f64", "col")
    assert repr(x) == "NdArray(shape=(2, 3), dtype=f64, layout=col)"
    assert repr(slice_axis(x, 0, 1)) == "View(shape=(3,), dtype=f64)"
    # A view's dtype is its own, not its root's.
    assert repr(View(x, 0, (2,), (1,), "i64")) == "View(shape=(2,), dtype=i64)"
