// Fused int8 GEMV kernels for the on-device Page Classifier, and the float
// lane kernels that train it (second half of this header).
//
// The GRU's per-write cost is dominated by six int8 matrix-vector products:
// three input-gate matrices (Wz/Wr/Wn) applied to the quantized features and
// three hidden-gate matrices (Uz/Ur/Un) applied to the cached hidden state.
// The paper budgets one incremental prediction at ~9 µs on a Cortex-A9
// (§IV); to stay inside that class of budget on any controller, this layer
//
//  * packs each matrix triple once, by column pairs: for each pair of
//    columns (2p, 2p+1) and each block of 8 rows, the three gates' 8 × 2
//    weights sit back to back, so one pass over the input feeds all three
//    gates and the AVX2 kernel multiply-adds an (x[2p], x[2p+1]) pair into
//    8 row accumulators at once — no horizontal sums,
//  * pads an odd column count with a zero column and the last row block
//    with zero rows, which lets the inner loops run without tail handling
//    (a zero weight contributes nothing to an integer accumulator),
//  * accumulates in int32 — bit-exact regardless of summation order, so the
//    scalar and SIMD paths (both read the one packed layout) produce
//    identical results and the test suite can assert parity against the
//    retained reference implementation,
//  * dispatches to an AVX2 kernel at runtime when the CPU supports it
//    (compile-time selected when built with -mavx2 / -march=native).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace phftl::ml::kernels {

/// Rows per packed block: one AVX2 register of int32 accumulators.
inline constexpr std::size_t kRowBlock = 8;

/// Three same-shape int8 matrices packed by column pairs, each weight
/// widened to int16 at packing so the kernels multiply-add it as loaded.
/// The tile for column pair p, row block b and gate g holds 8 rows × 2
/// columns, row-major (w[8b + i][2p], w[8b + i][2p + 1] for i = 0 … 7);
/// tiles are ordered by pair, then block, then gate. Padding columns and
/// rows are zero.
struct PackedGates3 {
  std::vector<std::int16_t> data;
  std::size_t rows = 0;
  std::size_t cols = 0;    ///< logical columns
  std::size_t pairs = 0;   ///< column pairs, ceil(cols / 2)
  std::size_t blocks = 0;  ///< row blocks, ceil(rows / kRowBlock)

  static constexpr std::size_t kTileSize = kRowBlock * 2;

  bool empty() const { return rows == 0; }
  std::size_t tile_offset(std::size_t p, std::size_t b, std::size_t g) const {
    return ((p * blocks + b) * 3 + g) * kTileSize;
  }
  const std::int16_t* tile(std::size_t p, std::size_t b, std::size_t g) const {
    return data.data() + tile_offset(p, b, g);
  }
};

/// Pack three row-major [rows x cols] int8 matrices into the column-pair
/// layout above.
PackedGates3 pack_gates3(const std::int8_t* g0, const std::int8_t* g1,
                         const std::int8_t* g2, std::size_t rows,
                         std::size_t cols);

/// Fused triple GEMV: out_g[r] = Σ_c gate_g[r][c] · x[c] for g = 0, 1, 2.
/// `x` must be readable up to 2 · m.pairs elements (the padding column's
/// weights are zero, so its x value is ignored); each out_g holds m.rows
/// values. Results are int32-exact, identical across the scalar and SIMD
/// paths.
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
// GRU training runs a minibatch as lanes: one sequence per lane, all
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

/// Tile lane count for n sequences (n rounded up to a multiple
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
