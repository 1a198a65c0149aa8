// Fused int8 GEMV kernels for the on-device Page Classifier, and the float
// lane kernels that train it (second half of this header).
//
// The GRU's per-write cost is dominated by six int8 matrix-vector products:
// three input-gate matrices (Wz/Wr/Wn) applied to the quantized features and
// three hidden-gate matrices (Uz/Ur/Un) applied to the cached hidden state.
// The paper budgets one incremental prediction at ~9 µs on a Cortex-A9
// (§IV); to stay inside that class of budget on any controller, this layer
//
//  * packs each matrix triple into one interleaved row-major buffer
//    (gate-0 row r, gate-1 row r, gate-2 row r, then row r+1, ...) so a
//    single pass over the input vector feeds all three gate accumulators,
//  * pads every row to a 32-byte-multiple stride with zeros, which lets the
//    inner loops run without tail handling (zero columns contribute nothing
//    to an integer accumulator),
//  * accumulates in int32 — bit-exact regardless of summation order, so the
//    scalar and SIMD paths produce identical results and the test suite can
//    assert parity against the retained reference implementation,
//  * dispatches to an AVX2 kernel at runtime when the CPU supports it
//    (compile-time selected when built with -mavx2 / -march=native).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace phftl::ml::kernels {

/// Row stride granularity (bytes of int8). 32 matches one AVX2 register and
/// is a whole number of NEON/SSE registers, so every padded row is tail-free
/// for any of the vector paths.
inline constexpr std::size_t kLaneAlign = 32;

inline constexpr std::size_t padded_cols(std::size_t cols) {
  return (cols + kLaneAlign - 1) / kLaneAlign * kLaneAlign;
}

/// Three same-shape int8 matrices interleaved per output row. `stride` is
/// the zero-padded row length; logical columns beyond `cols` are zero.
struct PackedGates3 {
  std::vector<std::int8_t> data;
  std::size_t rows = 0;
  std::size_t cols = 0;    ///< logical columns
  std::size_t stride = 0;  ///< padded columns (multiple of kLaneAlign)

  bool empty() const { return rows == 0; }
  const std::int8_t* row_block(std::size_t r) const {
    return data.data() + r * 3 * stride;
  }
};

/// Pack three row-major [rows x cols] int8 matrices into the interleaved
/// layout above.
PackedGates3 pack_gates3(const std::int8_t* g0, const std::int8_t* g1,
                         const std::int8_t* g2, std::size_t rows,
                         std::size_t cols);

/// Fused triple GEMV: out_g[r] = Σ_c gate_g[r][c] · x[c] for g = 0, 1, 2.
/// `x` must be readable (and zero) up to m.stride elements. Results are
/// int32-exact, identical across the scalar and SIMD paths.
void fused_gemv3_i8(const PackedGates3& m, const std::int8_t* x,
                    std::int32_t* out0, std::int32_t* out1,
                    std::int32_t* out2);

/// Naive single-matrix int8 GEMV — the reference the fused kernel is
/// benchmarked and parity-tested against (same loop shape as the original
/// QuantizedGru::gate_preact inner loops).
void gemv_i8_ref(const std::int8_t* w, std::size_t rows, std::size_t cols,
                 const std::int8_t* x, std::int32_t* out);

/// True when the runtime dispatcher selected the AVX2 kernel (exposed so
/// benchmarks can report which path they measured).
bool fused_gemv3_uses_avx2();

// ---------------------------------------------------------------------------
// Float lane kernels for minibatch training.
//
// Training runs a minibatch as lanes: one sequence (or sample) per lane, all
// lanes in lockstep. A lane tile [n x lanes] stores element (i, l) at
// i * lanes + l, and `lanes` is a positive multiple of kFloatLanes. The
// kernels vectorize across lanes (or, for the outer product, across
// columns), never across a reduction: every output float sees the same
// multiplies and adds, in the same order, as the scalar loops in
// ml/tensor.hpp, with multiply and add kept separate (the library builds
// with -ffp-contract=off). Results are therefore bit-identical across the
// scalar and AVX2 paths and to the per-sequence scalar math.
// ---------------------------------------------------------------------------

/// Lane-count granularity: one AVX2 register of floats.
inline constexpr std::size_t kFloatLanes = 8;

/// Tile lane count for n sequences or samples (n rounded up to a multiple
/// of kFloatLanes); the padding lanes compute values nobody reads.
inline constexpr std::size_t padded_lanes(std::size_t n) {
  return (n + kFloatLanes - 1) / kFloatLanes * kFloatLanes;
}

/// Lane GEMV: y[r][l] = y[r][l] + w[r][0]·x[0][l] + … + w[r][c]·x[c][l]
/// with c = cols - 1, summed left to right from y's current value. `w` is
/// row-major [rows x cols]; x is a [cols x lanes] tile and y a
/// [rows x lanes] tile. Zero y first for the scalar `matvec` sum.
void lane_gemv(const float* w, std::size_t rows, std::size_t cols,
               const float* x, std::size_t lanes, float* y);

/// Masked transpose-accumulate: for r = 0 … rows-1, every lane l whose
/// g[r][l] != 0 does y[c][l] += w[r][c] · g[r][l] for all c. `w` is
/// row-major [rows x cols]; g is a [rows x lanes] tile and y a
/// [cols x lanes] tile. Per lane this is `matvec_transpose_acc`, including
/// its skip of zero gradients.
void lane_gemv_t_masked(const float* w, std::size_t rows, std::size_t cols,
                        const float* g, std::size_t lanes, float* y);

/// Batched outer-product accumulate, vectorized across columns: for
/// k = 0 … count-1 in order, `outer_acc(g_k, x[k], dw)` with
/// g_k[r] = g[g_off[k] + r · g_stride] — that is, every row with g_k[r] != 0
/// gets dw[r][c] += g_k[r] · x[k][c]. `dw` is row-major [rows x cols] and
/// each x[k] holds `cols` floats. Every dw element sees the adds of that
/// call sequence in the same order.
void outer_acc_batch(const float* g, const std::size_t* g_off,
                     std::size_t g_stride, const float* const* x,
                     std::size_t count, std::size_t rows, std::size_t cols,
                     float* dw);

/// The scalar definitions of the three kernels above; the dispatched
/// versions are parity-tested against them bit for bit.
void lane_gemv_ref(const float* w, std::size_t rows, std::size_t cols,
                   const float* x, std::size_t lanes, float* y);
void lane_gemv_t_masked_ref(const float* w, std::size_t rows,
                            std::size_t cols, const float* g,
                            std::size_t lanes, float* y);
void outer_acc_batch_ref(const float* g, const std::size_t* g_off,
                         std::size_t g_stride, const float* const* x,
                         std::size_t count, std::size_t rows,
                         std::size_t cols, float* dw);

}  // namespace phftl::ml::kernels
