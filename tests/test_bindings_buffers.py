"""Buffer-resolution tests for the bindings layer."""

import numpy as np
import pytest

from repro.bindings.buffers import resolve_buffer
from repro.gpu import cupy_sim, numba_sim, pycuda_sim
from repro.mpi import datatypes
from repro.mpi.exceptions import BufferError_, CountError, DatatypeError


class TestHostBuffers:
    def test_bytearray(self):
        spec = resolve_buffer(bytearray(16))
        assert spec.nbytes == 16
        assert spec.datatype is datatypes.BYTE
        assert spec.kind == "host"

    def test_bytes_send_only(self):
        spec = resolve_buffer(b"\x01\x02")
        assert spec.read() == b"\x01\x02"

    def test_bytes_not_writable(self):
        with pytest.raises(BufferError_, match="read-only"):
            resolve_buffer(b"xx", writable=True)

    def test_numpy_dtype_discovery(self):
        spec = resolve_buffer(np.zeros(4, dtype="f8"))
        assert spec.datatype is datatypes.DOUBLE
        assert spec.nbytes == 32
        assert spec.count == 4

    def test_numpy_int32(self):
        spec = resolve_buffer(np.zeros(3, dtype="i4"))
        assert spec.datatype is datatypes.INT

    def test_noncontiguous_rejected(self):
        arr = np.zeros((4, 4))[:, 0]
        with pytest.raises(BufferError_, match="C-contiguous"):
            resolve_buffer(arr)

    def test_readonly_numpy_recv_rejected(self):
        arr = np.zeros(4)
        arr.flags.writeable = False
        with pytest.raises(BufferError_, match="read-only"):
            resolve_buffer(arr, writable=True)

    def test_unsupported_object(self):
        with pytest.raises(BufferError_, match="buffer protocol"):
            resolve_buffer(object())

    def test_write_roundtrip(self):
        buf = bytearray(8)
        spec = resolve_buffer(buf, writable=True)
        spec.write(b"abcd", offset=2)
        assert bytes(buf) == b"\x00\x00abcd\x00\x00"

    def test_write_overrun_rejected(self):
        spec = resolve_buffer(bytearray(4), writable=True)
        with pytest.raises(BufferError_, match="overruns"):
            spec.write(b"12345")

    def test_as_array_uses_datatype(self):
        arr = np.arange(4, dtype="f4")
        spec = resolve_buffer(arr)
        assert np.allclose(spec.as_array(), arr)


class TestExplicitSpecs:
    def test_two_tuple_with_datatype_object(self):
        spec = resolve_buffer([bytearray(8), datatypes.DOUBLE])
        assert spec.datatype is datatypes.DOUBLE
        assert spec.count == 1

    def test_two_tuple_with_name(self):
        spec = resolve_buffer([bytearray(8), "MPI_FLOAT"])
        assert spec.datatype is datatypes.FLOAT
        assert spec.count == 2

    def test_three_tuple_count_limits_view(self):
        spec = resolve_buffer([bytearray(32), 2, "MPI_DOUBLE"])
        assert spec.nbytes == 16
        assert spec.count == 2

    def test_count_exceeding_buffer_rejected(self):
        with pytest.raises(CountError, match="exceeds"):
            resolve_buffer([bytearray(8), 9, "MPI_CHAR"])

    def test_negative_count_rejected(self):
        with pytest.raises(CountError):
            resolve_buffer([bytearray(8), -1, "MPI_CHAR"])

    def test_non_multiple_datatype_rejected(self):
        with pytest.raises(BufferError_, match="whole number"):
            resolve_buffer([bytearray(7), "MPI_DOUBLE"])

    def test_wrong_spec_arity(self):
        with pytest.raises(BufferError_, match="buffer spec"):
            resolve_buffer([bytearray(4), 1, "MPI_CHAR", "extra"])


class TestDeviceBuffers:
    def test_cupy_detected(self):
        arr = cupy_sim.zeros(10, dtype=np.float64)
        spec = resolve_buffer(arr)
        assert spec.kind == "device"
        assert spec.library == "cupy"
        assert spec.nbytes == 80
        assert spec.datatype is datatypes.DOUBLE

    def test_pycuda_detected(self):
        arr = pycuda_sim.gpuarray.zeros(4, dtype=np.int32)
        spec = resolve_buffer(arr)
        assert spec.library == "pycuda"
        assert spec.datatype is datatypes.INT

    def test_numba_detected(self):
        arr = numba_sim.cuda.device_array(6, dtype=np.float32)
        spec = resolve_buffer(arr)
        assert spec.library == "numba"
        assert spec.datatype is datatypes.FLOAT

    def test_device_view_aliases_device_memory(self):
        arr = cupy_sim.zeros(4, dtype=np.uint8)
        spec = resolve_buffer(arr, writable=True)
        spec.write(b"\x09\x08\x07\x06")
        assert arr.get().tolist() == [9, 8, 7, 6]

    def test_device_read_sees_device_contents(self):
        arr = cupy_sim.array(np.array([1, 2, 3], dtype=np.uint8))
        spec = resolve_buffer(arr)
        assert spec.read() == b"\x01\x02\x03"


# -- equivalence with the reference resolution ------------------------------

#: MPI datatype a C-contiguous array of each mapped NumPy dtype resolves to.
_DTYPE_REFERENCE = {
    "int8": "MPI_SIGNED_CHAR", "uint8": "MPI_UNSIGNED_CHAR",
    "int16": "MPI_SHORT", "uint16": "MPI_UNSIGNED_SHORT",
    "int32": "MPI_INT", "uint32": "MPI_UNSIGNED",
    "int64": "MPI_LONG", "uint64": "MPI_UNSIGNED_LONG",
    "float32": "MPI_FLOAT", "float64": "MPI_DOUBLE", "bool": "MPI_C_BOOL",
    "complex64": "MPI_C_FLOAT_COMPLEX",
    "complex128": "MPI_C_DOUBLE_COMPLEX",
}


class _Sub(np.ndarray):
    pass


def _readonly(arr):
    arr.flags.writeable = False
    return arr


def _fields(spec):
    return (
        type(spec.obj).__name__, spec.nbytes, spec.view.nbytes,
        spec.view.format, spec.datatype.Get_name(), spec.kind,
        spec.library, spec.count, spec.read(),
    )


def _host(name, nbytes, mpi, count, data):
    return (name, nbytes, nbytes, "B", mpi, "host", None, count, data)


_F8 = np.arange(4.0).tobytes()

#: id -> (factory, expected as a send buffer, expected as a receive
#: buffer); an expectation is the _fields() tuple or an exception type.
_FORMS = {
    "byteswapped_f8": (
        lambda: np.arange(3, dtype=">f8"),
        _host("ndarray", 24, "MPI_DOUBLE", 3,
              np.arange(3, dtype=">f8").tobytes()),
        "same",
    ),
    "noncontiguous_slice": (
        lambda: np.arange(8.0)[::2], BufferError_, BufferError_,
    ),
    "fortran_order": (
        lambda: np.zeros((3, 4), order="F"), BufferError_, BufferError_,
    ),
    "readonly_array": (
        lambda: _readonly(np.arange(4.0)),
        _host("ndarray", 32, "MPI_DOUBLE", 4, _F8),
        BufferError_,
    ),
    "ndarray_subclass": (
        lambda: np.arange(4.0).view(_Sub),
        _host("_Sub", 32, "MPI_DOUBLE", 4, _F8),
        "same",
    ),
    "zero_dim_array": (
        lambda: np.array(5.0),
        _host("ndarray", 8, "MPI_DOUBLE", 1,
              np.array(5.0).tobytes()),
        "same",
    ),
    "unmapped_dtype": (
        lambda: np.zeros(3, dtype="f2"), DatatypeError, DatatypeError,
    ),
    "bytearray": (
        lambda: bytearray(b"abcdefgh"),
        _host("bytearray", 8, "MPI_BYTE", 8, b"abcdefgh"),
        "same",
    ),
    "bytes": (
        lambda: b"abcd",
        _host("bytes", 4, "MPI_BYTE", 4, b"abcd"),
        BufferError_,
    ),
    "memoryview": (
        lambda: memoryview(bytearray(b"abcdefgh")),
        _host("memoryview", 8, "MPI_BYTE", 8, b"abcdefgh"),
        "same",
    ),
    "strided_memoryview": (
        lambda: memoryview(bytearray(8))[::2], BufferError_, BufferError_,
    ),
    "no_buffer_protocol": (lambda: object(), BufferError_, BufferError_),
    "buf_datatype": (
        lambda: [bytearray(16), datatypes.DOUBLE],
        _host("bytearray", 16, "MPI_DOUBLE", 2, bytes(16)),
        "same",
    ),
    "buf_name": (
        lambda: [bytearray(16), "MPI_FLOAT"],
        _host("bytearray", 16, "MPI_FLOAT", 4, bytes(16)),
        "same",
    ),
    "buf_count_datatype": (
        lambda: [bytearray(32), 2, "MPI_DOUBLE"],
        _host("bytearray", 16, "MPI_DOUBLE", 2, bytes(16)),
        "same",
    ),
    "array_count_datatype": (
        lambda: (np.arange(8.0), 3, datatypes.DOUBLE),
        _host("ndarray", 24, "MPI_DOUBLE", 3,
              np.arange(3.0).tobytes()),
        "same",
    ),
    "array_retyped": (
        lambda: [np.arange(4, dtype="i4"), "MPI_FLOAT"],
        _host("ndarray", 16, "MPI_FLOAT", 4,
              np.arange(4, dtype="i4").tobytes()),
        "same",
    ),
    "count_exceeds": (
        lambda: [bytearray(8), 9, "MPI_CHAR"], CountError, CountError,
    ),
    "cupy": (
        lambda: cupy_sim.array(np.arange(5.0)),
        ("ndarray", 40, 40, "B", "MPI_DOUBLE", "device", "cupy", 5,
         np.arange(5.0).tobytes()),
        "same",
    ),
    "pycuda": (
        lambda: pycuda_sim.gpuarray.zeros(4, dtype=np.int32),
        ("GPUArray", 16, 16, "B", "MPI_INT", "device", "pycuda", 4,
         bytes(16)),
        "same",
    ),
    "numba": (
        lambda: numba_sim.cuda.device_array(6, dtype=np.float32),
        ("DeviceNDArray", 24, 24, "B", "MPI_FLOAT", "device", "numba", 6,
         bytes(24)),
        "same",
    ),
}


def _check(make, writable, expected):
    if isinstance(expected, type):
        with pytest.raises(expected):
            resolve_buffer(make(), writable=writable)
    else:
        assert _fields(resolve_buffer(make(), writable=writable)) == expected


class TestResolveEquivalence:
    """Every accepted form resolves to the reference fields or error."""

    def test_reference_covers_every_mapped_dtype(self):
        assert set(_DTYPE_REFERENCE) == {
            dt.name for dt in datatypes.NUMPY_DTYPE_TO_MPI
        }

    @pytest.mark.parametrize("writable", [False, True])
    @pytest.mark.parametrize("shape", [(6,), (2, 3)])
    @pytest.mark.parametrize("name", sorted(_DTYPE_REFERENCE))
    def test_contiguous_array_of_every_mapped_dtype(
        self, name, shape, writable
    ):
        arr = np.arange(6).astype(name).reshape(shape)
        expected = _host(
            "ndarray", arr.nbytes, _DTYPE_REFERENCE[name], 6, arr.tobytes()
        )
        _check(lambda: arr, writable, expected)

    @pytest.mark.parametrize("form", sorted(_FORMS))
    def test_accepted_forms(self, form):
        make, send, recv = _FORMS[form]
        _check(make, False, send)
        _check(make, True, send if recv == "same" else recv)
