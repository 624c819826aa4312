"""Outlier-victim pair (OVP) encoding (paper Section 3, Algorithm 1, Fig. 4).

A tensor is processed two adjacent elements at a time.  Three pair shapes can
occur (paper Table 2):

* **normal-normal** — both values are quantized with the normal data type;
* **outlier-normal** — the normal value is *pruned* (it becomes the *victim*)
  and its slot stores the outlier identifier, while the outlier is quantized
  with :mod:`repro.core.abfloat` into the adjacent slot;
* **outlier-outlier** — the smaller outlier is pruned, the larger is kept
  (this shape occurs for < 0.06 % of pairs in well-trained LLMs).

The encoding is *memory aligned*: every pair still occupies exactly
``2 × bits`` of storage, so the resulting byte stream is indistinguishable
from a plain low-bit tensor as far as the memory subsystem is concerned.

All functions here operate on the *integer grid*, i.e. on values already
divided by the tensor scale factor; the scale/threshold search lives in
:mod:`repro.core.quantizer`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.core.abfloat import AbfloatType
from repro.core.dtypes import NormalDataType
from repro.core.errors import EncodingError

__all__ = [
    "PairKind",
    "OVPairCodec",
    "PackedOVPTensor",
]


class PairKind:
    """Symbolic names for the three pair shapes."""

    NORMAL_NORMAL = "normal-normal"
    OUTLIER_NORMAL = "outlier-normal"
    OUTLIER_OUTLIER = "outlier-outlier"


@dataclass
class PackedOVPTensor:
    """A memory-aligned OVP-encoded tensor.

    Attributes
    ----------
    data:
        ``uint8`` byte stream.  For 4-bit encodings each byte holds one pair
        (high nibble = first element); for 8-bit encodings each element is one
        byte, pairs are adjacent bytes.
    shape:
        Original tensor shape.
    scale:
        The tensor scale factor: real value = grid value × scale.
    normal_dtype / abfloat_name / bias:
        Names describing how to decode the stream.
    padded:
        True when one trailing grid element was appended to make the length
        even; it is stripped again on decode.
    """

    data: np.ndarray
    shape: Tuple[int, ...]
    scale: float
    normal_dtype: str
    abfloat_name: str
    bias: int
    padded: bool = False

    @property
    def nbytes(self) -> int:
        """Size of the encoded payload in bytes (what DRAM traffic sees)."""
        return int(self.data.nbytes)

    @property
    def num_elements(self) -> int:
        """Number of real (un-padded) tensor elements represented."""
        return int(np.prod(self.shape)) if self.shape else 1


class OVPairCodec:
    """Bit-accurate encoder/decoder for outlier-victim pairs.

    Parameters
    ----------
    normal_dtype:
        Data type used for normal values (``int4``, ``flint4`` or ``int8``).
    abfloat_type:
        The outlier data type (E2M1 for 4-bit, E4M3 for 8-bit in the paper).
    bias:
        Adaptive bias applied to the abfloat exponent.
    max_outlier_magnitude:
        Hard clip applied to decoded outlier magnitudes so products fit the
        32-bit accumulator (the paper clips at ``2**15``, Sec. 4.5).
    """

    def __init__(
        self,
        normal_dtype: NormalDataType,
        abfloat_type: AbfloatType,
        bias: int,
        max_outlier_magnitude: float = float(2 ** 15),
    ) -> None:
        if normal_dtype.bits not in (4, 8):
            raise EncodingError("OVP encoding supports 4- and 8-bit normal types only")
        if abfloat_type.bits != normal_dtype.bits:
            raise EncodingError(
                "outlier and normal data types must have the same storage width "
                f"(got {abfloat_type.bits} and {normal_dtype.bits})"
            )
        self.normal_dtype = normal_dtype
        self.abfloat_type = abfloat_type
        self.bias = int(bias)
        self.max_outlier_magnitude = float(max_outlier_magnitude)
        # Outlier magnitudes representable on the integer grid, pre-clipped.
        mags = abfloat_type.magnitude_values(bias)
        self._outlier_grid = mags[mags <= self.max_outlier_magnitude]
        if self._outlier_grid.size == 0:
            raise EncodingError("abfloat bias leaves no representable outlier values")
        self._build_vector_tables()

    def _build_vector_tables(self) -> None:
        """Precompute the lookup tables the vectorized codec paths use.

        * ``_normal_value_codes`` maps the index of a value in the sorted
          ``normal_dtype.values`` array to its bit pattern;
        * ``_normal_decode_lut`` maps every possible code to its normal value
          (identifier/invalid slots hold 0 and are overwritten by the pair
          logic before use);
        * ``_outlier_decode_lut`` maps every possible code to its clipped
          abfloat value.
        """
        dtype = self.normal_dtype
        self._normal_value_codes = np.array(
            [dtype.code_of_value[float(v)] for v in dtype.values], dtype=np.uint8
        )
        normal_lut = np.zeros(dtype.num_codes, dtype=np.float64)
        for code, value in dtype.value_of_code.items():
            normal_lut[code] = value
        self._normal_decode_lut = normal_lut
        outlier_lut = np.array(
            [self._decode_outlier(code) for code in range(1 << self.abfloat_type.bits)],
            dtype=np.float64,
        )
        self._outlier_decode_lut = outlier_lut

    # ------------------------------------------------------------------ #
    # Scalar pair paths (Algorithm 1)
    # ------------------------------------------------------------------ #
    def classify_pair(self, val1: float, val2: float, threshold: float) -> str:
        """Classify a grid-value pair into one of the three pair shapes."""
        out1 = abs(val1) > threshold
        out2 = abs(val2) > threshold
        if out1 and out2:
            return PairKind.OUTLIER_OUTLIER
        if out1 or out2:
            return PairKind.OUTLIER_NORMAL
        return PairKind.NORMAL_NORMAL

    def encode_pair(self, val1: float, val2: float, threshold: float) -> Tuple[int, int]:
        """Encode one pair of grid values into two bit patterns (Algorithm 1)."""
        identifier = self.normal_dtype.identifier_code
        if abs(val1) > threshold and abs(val1) > abs(val2):
            out1 = self._encode_outlier(val1)
            out2 = identifier
        elif abs(val2) > threshold:
            out1 = identifier
            out2 = self._encode_outlier(val2)
        else:
            out1 = self.normal_dtype.encode(float(self.normal_dtype.quantize(val1)))
            out2 = self.normal_dtype.encode(float(self.normal_dtype.quantize(val2)))
        return out1, out2

    def decode_pair(self, code1: int, code2: int) -> Tuple[float, float]:
        """Decode two bit patterns back into grid values.

        The victim slot decodes to exactly 0, mirroring the hardware OVP
        decoder (paper Fig. 6b).
        """
        identifier = self.normal_dtype.identifier_code
        if code1 == identifier and code2 == identifier:
            # Cannot occur from encode_pair; treat as two pruned values.
            return 0.0, 0.0
        if code2 == identifier:
            return float(self._decode_outlier(code1)), 0.0
        if code1 == identifier:
            return 0.0, float(self._decode_outlier(code2))
        return (
            float(self.normal_dtype.decode(code1)),
            float(self.normal_dtype.decode(code2)),
        )

    def _encode_outlier(self, value: float) -> int:
        clipped = float(np.clip(value, -self.max_outlier_magnitude, self.max_outlier_magnitude))
        return self.abfloat_type.encode(clipped, self.bias)

    def _decode_outlier(self, code: int) -> float:
        value = float(self.abfloat_type.decode(code, self.bias))
        return float(np.clip(value, -self.max_outlier_magnitude, self.max_outlier_magnitude))

    # ------------------------------------------------------------------ #
    # Vectorised element paths
    # ------------------------------------------------------------------ #
    @staticmethod
    def _pair_outlier_masks(a: np.ndarray, b: np.ndarray, threshold: float):
        """Vectorised Algorithm-1 pair classification.

        Returns ``(a_is_outlier, b_is_outlier)``; at most one is True per
        pair (the larger magnitude wins an outlier-outlier tie, matching
        :meth:`encode_pair`).  Both the fake-quantization path and the
        bit-packed encoder share this single predicate so the
        ``decode(encode(x)) == fake_quantize(x)`` invariant cannot drift.
        """
        abs_a, abs_b = np.abs(a), np.abs(b)
        a_is_outlier = (abs_a > threshold) & (abs_a > abs_b)
        b_is_outlier = (abs_b > threshold) & ~a_is_outlier
        return a_is_outlier, b_is_outlier

    def _encode_normal_values(self, values: np.ndarray) -> np.ndarray:
        """Vectorised normal-value encode: quantize, then map value → code.

        On a consecutive-integer grid (``int4``/``int8``, the KV-page types)
        a quantized value's index in the sorted ``values`` is
        ``value + max_value`` in closed form, which skips the
        ``searchsorted`` walk.  Callers must pass finite values.
        """
        dtype = self.normal_dtype
        quantized = dtype.quantize(values)
        if dtype.uniform_int_grid:
            quantized += dtype.values[-1]
            idx = quantized.astype(np.intp)
        else:
            idx = np.searchsorted(dtype.values, quantized)
        return self._normal_value_codes[idx]

    def _encode_outlier_values(self, values: np.ndarray) -> np.ndarray:
        """Vectorised abfloat outlier encode (Algorithm 2, bit-exact).

        Mirrors :meth:`AbfloatType.encode` exactly, including banker's
        rounding of the mantissa and the renormalisation step, so the
        vectorized encoder emits the same bit patterns as the scalar oracle.
        """
        abf = self.abfloat_type
        clipped = np.clip(
            np.asarray(values, dtype=np.float64),
            -self.max_outlier_magnitude,
            self.max_outlier_magnitude,
        )
        magnitude = np.abs(clipped)
        mb = abf.man_bits
        min_code = 1
        max_code = (1 << abf.magnitude_bits) - 1
        codes = np.full(magnitude.shape, min_code, dtype=np.int64)
        positive = magnitude > 0
        if np.any(positive):
            mag = magnitude[positive]
            exp = np.floor(np.log2(mag)).astype(np.int64) - mb
            base_int = np.rint(mag / np.exp2(exp.astype(np.float64))).astype(np.int64)
            renorm = base_int == (1 << (mb + 1))
            exp = np.where(renorm, exp + 1, exp)
            base_int = np.where(renorm, base_int >> 1, base_int)
            exp_field = exp - self.bias
            man_field = base_int & abf.max_mantissa_field
            code = np.maximum((exp_field << mb) | man_field, min_code)
            code = np.where(exp_field < 0, min_code, code)
            code = np.where(exp_field > abf.max_exponent_field, max_code, code)
            codes[positive] = code
        sign_bit = (clipped < 0).astype(np.int64)
        return ((sign_bit << abf.magnitude_bits) | codes).astype(np.uint8)

    def _encode_grid(self, grid: np.ndarray, threshold: float) -> np.ndarray:
        """Encode an even-length grid array into one code per element."""
        if not np.isfinite(grid).all():
            raise EncodingError("cannot OVP-encode non-finite values (NaN or inf)")
        pairs = grid.reshape(-1, 2)
        a, b = pairs[:, 0], pairs[:, 1]
        a_is_outlier, b_is_outlier = self._pair_outlier_masks(a, b, threshold)

        identifier = np.uint8(self.normal_dtype.identifier_code)
        codes = np.empty(pairs.shape, dtype=np.uint8)
        codes[:, 0] = self._encode_normal_values(a)
        codes[:, 1] = self._encode_normal_values(b)
        if np.any(a_is_outlier):
            codes[a_is_outlier, 0] = self._encode_outlier_values(a[a_is_outlier])
            codes[a_is_outlier, 1] = identifier
        if np.any(b_is_outlier):
            codes[b_is_outlier, 0] = identifier
            codes[b_is_outlier, 1] = self._encode_outlier_values(b[b_is_outlier])
        return codes.reshape(-1)

    def _decode_codes(self, codes: np.ndarray) -> np.ndarray:
        """Decode one-code-per-element arrays back into grid values.

        One contiguous gather covers the (vastly dominant) normal values;
        identifier slots gather 0 (the victim value) for free because the
        normal LUT holds 0 at the identifier code.  The sparse outlier slots
        — the pair partners of the identifiers, found with ``position ^ 1`` —
        are then patched through the outlier LUT.
        """
        identifier = self.normal_dtype.identifier_code
        grid = self._normal_decode_lut[codes]
        victim_pos = np.flatnonzero(codes == identifier)
        if victim_pos.size:
            partner_pos = victim_pos ^ 1
            partner_codes = codes[partner_pos]
            # An identifier partner means an outlier-outlier degenerate pair
            # (both pruned); every other partner slot holds an abfloat code.
            holds_outlier = partner_codes != identifier
            outlier_pos = partner_pos[holds_outlier]
            grid[outlier_pos] = self._outlier_decode_lut[partner_codes[holds_outlier]]
        return grid

    # ------------------------------------------------------------------ #
    # Vectorised fake quantization (grid in → grid out, no bit packing)
    # ------------------------------------------------------------------ #
    def fake_quantize_grid(self, grid: np.ndarray, threshold: float) -> np.ndarray:
        """Apply OVP quantization to grid values and return dequantized grid values.

        This is the numerically-equivalent fast path used when simulating
        quantized model inference: victims become 0, outliers snap to the
        nearest representable abfloat magnitude, normal values snap to the
        nearest normal-data-type value.
        """
        grid = np.asarray(grid, dtype=np.float64)
        flat, padded = self._grid_of(grid, 1.0)
        pairs = flat.reshape(-1, 2)
        a, b = pairs[:, 0], pairs[:, 1]
        a_is_outlier, b_is_outlier = self._pair_outlier_masks(a, b, threshold)

        # Normal path for everything first, then overwrite outlier/victim slots.
        out = self.normal_dtype.quantize(pairs)
        if np.any(a_is_outlier):
            out[a_is_outlier, 0] = self._quantize_outlier_values(a[a_is_outlier])
            out[a_is_outlier, 1] = 0.0
        if np.any(b_is_outlier):
            out[b_is_outlier, 1] = self._quantize_outlier_values(b[b_is_outlier])
            out[b_is_outlier, 0] = 0.0

        result = out.reshape(-1)
        if padded:
            result = result[:-1]
        return result.reshape(grid.shape)

    def _quantize_outlier_values(self, values: np.ndarray) -> np.ndarray:
        """Snap outlier grid values to what the bit-packed stream stores.

        Implemented as a literal encode→decode round trip so the
        fake-quantization path agrees with ``decode_tensor(encode_tensor(x))``
        *by construction* — including Algorithm 2's mantissa rounding at
        exact midpoints, where a plain nearest-value search diverges.
        """
        return self._outlier_decode_lut[self._encode_outlier_values(values)]

    # ------------------------------------------------------------------ #
    # Bit-packed tensor paths
    # ------------------------------------------------------------------ #
    def encode_tensor(
        self, tensor: np.ndarray, scale: float, threshold: float
    ) -> PackedOVPTensor:
        """Encode a real-valued tensor into a memory-aligned byte stream.

        This is the vectorized hot path (mask-based pair classification and
        nibble packing); :meth:`encode_tensor_scalar` keeps the per-pair
        Algorithm 1 loop as the bit-accuracy oracle.
        """
        tensor = np.asarray(tensor, dtype=np.float64)
        if scale <= 0:
            raise EncodingError("scale must be positive")
        grid, padded = self._grid_of(tensor, scale)
        codes = self._encode_grid(grid, threshold)
        return self._pack(codes, tensor.shape, scale, padded)

    def encode_tensor_scalar(
        self, tensor: np.ndarray, scale: float, threshold: float
    ) -> PackedOVPTensor:
        """Per-pair scalar encoder (Algorithm 1), kept as the bit oracle."""
        tensor = np.asarray(tensor, dtype=np.float64)
        if scale <= 0:
            raise EncodingError("scale must be positive")
        grid, padded = self._grid_of(tensor, scale)
        codes = np.empty(grid.size, dtype=np.uint8)
        for i in range(0, grid.size, 2):
            c1, c2 = self.encode_pair(grid[i], grid[i + 1], threshold)
            codes[i] = c1
            codes[i + 1] = c2
        return self._pack(codes, tensor.shape, scale, padded)

    def encode_tensor_batch(self, tensors, scales, threshold: float):
        """Encode several even-sized tensors in one vectorized pass.

        Each tensor gets its own scale but they share one threshold (in grid
        units) and one trip through the pair classifier — the per-call
        overhead matters when many small tensors are encoded at once (the KV
        cache seals a K page and a V page together on the append path).
        Odd-sized tensors are rejected: their zero pad would shift the pair
        alignment of every stream that follows.  Returns one
        :class:`PackedOVPTensor` per input.
        """
        if len(tensors) != len(scales):
            raise EncodingError("encode_tensor_batch needs one scale per tensor")
        if not tensors:
            raise EncodingError("encode_tensor_batch needs at least one tensor")
        tensors = [np.asarray(t, dtype=np.float64) for t in tensors]
        for tensor, scale in zip(tensors, scales):
            if scale <= 0:
                raise EncodingError("scale must be positive")
            if tensor.size % 2:
                raise EncodingError(
                    "encode_tensor_batch supports even-sized tensors only; "
                    "use encode_tensor for odd sizes"
                )
        grid = np.concatenate(
            [tensor.ravel() / float(scale) for tensor, scale in zip(tensors, scales)]
        )
        codes = self._encode_grid(grid, threshold)
        packed, offset = [], 0
        for tensor, scale in zip(tensors, scales):
            stop = offset + tensor.size
            packed.append(
                self._pack(codes[offset:stop], tensor.shape, float(scale), padded=False)
            )
            offset = stop
        return packed

    def decode_tensor(self, packed: PackedOVPTensor) -> np.ndarray:
        """Decode a packed OVP tensor back into real values (vectorized)."""
        grid = self._decode_codes(self._unpack(packed))
        if packed.padded:
            grid = grid[:-1]
        return (grid * packed.scale).reshape(packed.shape)

    def decode_tensor_batch(self, packed_list) -> np.ndarray:
        """Decode same-shape packed tensors in one vectorized pass.

        The per-call overhead of :meth:`decode_tensor` dominates when many
        small tensors are decoded at once (the KV-cache attend path decodes
        every sealed page of a sequence per step), so the byte streams are
        concatenated and run through the unpack/LUT machinery together.
        Returns an array of shape ``(len(packed_list), *shape)``.

        All tensors must share this codec's dtype configuration and one
        common shape.
        """
        if not packed_list:
            raise EncodingError("decode_tensor_batch needs at least one tensor")
        first = packed_list[0]
        for packed in packed_list:
            if packed.shape != first.shape:
                raise EncodingError("decode_tensor_batch requires identical shapes")
            if (
                packed.normal_dtype != self.normal_dtype.name
                or packed.abfloat_name != self.abfloat_type.name
                or packed.bias != self.bias
            ):
                raise EncodingError("packed tensor does not match this codec")
        data = np.concatenate([packed.data for packed in packed_list])
        if self.normal_dtype.bits == 4:
            codes = np.empty(data.size * 2, dtype=np.uint8)
            codes[0::2] = data >> 4
            codes[1::2] = data & 0x0F
        else:
            codes = data
        # Equal shapes mean equal (padded) stream lengths, so every stream
        # boundary falls on a pair boundary and one decode pass is safe.
        grid = self._decode_codes(codes).reshape(len(packed_list), -1)
        if first.padded:
            grid = grid[:, :-1]
        scales = np.array([packed.scale for packed in packed_list], dtype=np.float64)
        return (grid * scales[:, None]).reshape((len(packed_list),) + tuple(first.shape))

    def decode_tensor_scalar(self, packed: PackedOVPTensor) -> np.ndarray:
        """Per-pair scalar decoder, kept as the bit oracle."""
        codes = self._unpack(packed)
        grid = np.empty(codes.size, dtype=np.float64)
        for i in range(0, codes.size, 2):
            v1, v2 = self.decode_pair(int(codes[i]), int(codes[i + 1]))
            grid[i] = v1
            grid[i + 1] = v2
        if packed.padded:
            grid = grid[:-1]
        return (grid * packed.scale).reshape(packed.shape)

    # ------------------------------------------------------------------ #
    # Packing helpers shared by the scalar and vectorized paths
    # ------------------------------------------------------------------ #
    @staticmethod
    def _grid_of(tensor: np.ndarray, scale: float) -> Tuple[np.ndarray, bool]:
        """Scale a tensor onto the integer grid, padding odd lengths.

        ``scale == 1.0`` skips the division (the fake-quantization path runs
        once per fit candidate, so the no-op copy would be paid 24× per
        weight tensor at model-load time).
        """
        grid = tensor.ravel() if scale == 1.0 else tensor.ravel() / scale
        padded = False
        if grid.size % 2 == 1:
            grid = np.concatenate([grid, np.zeros(1)])
            padded = True
        return grid, padded

    def _pack(
        self, codes: np.ndarray, shape: Tuple[int, ...], scale: float, padded: bool
    ) -> PackedOVPTensor:
        """Nibble-pack (4-bit) or pass through (8-bit) a code stream."""
        if self.normal_dtype.bits == 4:
            packed = ((codes[0::2] << 4) | codes[1::2]).astype(np.uint8)
        else:
            packed = codes
        return PackedOVPTensor(
            data=packed,
            shape=tuple(shape),
            scale=float(scale),
            normal_dtype=self.normal_dtype.name,
            abfloat_name=self.abfloat_type.name,
            bias=self.bias,
            padded=padded,
        )

    def _unpack(self, packed: PackedOVPTensor) -> np.ndarray:
        """Expand a byte stream back into one code per element."""
        if self.normal_dtype.bits == 4:
            codes = np.empty(packed.data.size * 2, dtype=np.uint8)
            codes[0::2] = packed.data >> 4
            codes[1::2] = packed.data & 0x0F
            return codes
        return packed.data
