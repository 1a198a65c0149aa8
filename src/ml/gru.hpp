// Single-layer GRU binary classifier — the Page Classifier model of
// paper §III-B / Fig. 3.
//
// Architecture: GRU (hidden size H, default 32) over a feature time series,
// followed by a fully connected layer producing 2 logits; argmax yields the
// short-living / long-living prediction. Trained with softmax cross-entropy
// and Adam for one epoch per window (paper §III-B).
//
// Gate convention (matches PyTorch's nn.GRU):
//   z_t = sigmoid(Wz x_t + Uz h_{t-1} + bz)           update gate
//   r_t = sigmoid(Wr x_t + Ur h_{t-1} + br)           reset gate
//   n_t = tanh(Wn x_t + bn + r_t ⊙ (Un h_{t-1} + bun)) candidate
//   h_t = (1 - z_t) ⊙ n_t + z_t ⊙ h_{t-1}
//
// The class supports both full-sequence forward (host-side training and the
// seq-length ablation) and single-step forward from a cached hidden state
// (device-side O(1) incremental prediction, paper §III-C).
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "ml/param_store.hpp"
#include "ml/tensor.hpp"
#include "util/team.hpp"

namespace phftl::ml {

/// One training sample: a feature time series plus a binary label.
struct Sequence {
  std::vector<std::vector<float>> steps;  // each of input_dim
  int label = 0;                          // 1 = short-living (positive)
};

class GruClassifier {
 public:
  struct Config {
    std::size_t input_dim = 20;
    std::size_t hidden_dim = 32;
    std::size_t num_classes = 2;
    Adam::Config adam;
    std::uint64_t seed = 42;
  };

  explicit GruClassifier(const Config& cfg);

  std::size_t input_dim() const { return cfg_.input_dim; }
  std::size_t hidden_dim() const { return cfg_.hidden_dim; }

  /// One GRU step: h_next = cell(x, h_prev). Any of the spans may alias.
  void step(std::span<const float> x, std::span<const float> h_prev,
            std::span<float> h_next) const;

  /// Logits from a hidden state.
  void head(std::span<const float> h, std::span<float> logits) const;

  /// Full-sequence prediction (zero initial hidden state).
  /// Returns predicted class.
  int predict_sequence(const std::vector<std::vector<float>>& steps) const;

  /// Single-step incremental prediction from a cached hidden state,
  /// writing the updated hidden state back. Returns predicted class.
  int predict_incremental(std::span<const float> x,
                          std::span<float> h_inout) const;

  /// Train one epoch over `data` with minibatch Adam. `batch_size` must be
  /// positive. Returns mean cross-entropy loss over the epoch. Runs on the
  /// process-wide util::Team (see gru.cpp); the result does not depend on
  /// its size.
  float train_epoch(std::span<const Sequence> data, std::size_t batch_size,
                    Xoshiro256& rng);

  /// Fraction of sequences classified correctly.
  float evaluate(std::span<const Sequence> data) const;

  /// Raw weights for deployment / quantization.
  std::vector<float> weights() const { return store_.snapshot(); }
  void load_weights(std::span<const float> w) { store_.restore(w); }
  std::size_t num_params() const { return store_.size(); }

  /// Accessors used by the int8 quantizer (row-major [H x in] / [H x H]).
  ConstMatView wz() const { return store_.param_matrix(wz_); }
  ConstMatView wr() const { return store_.param_matrix(wr_); }
  ConstMatView wn() const { return store_.param_matrix(wn_); }
  ConstMatView uz() const { return store_.param_matrix(uz_); }
  ConstMatView ur() const { return store_.param_matrix(ur_); }
  ConstMatView un() const { return store_.param_matrix(un_); }
  std::span<const float> bz() const { return store_.param_vector(bz_); }
  std::span<const float> br() const { return store_.param_vector(br_); }
  std::span<const float> bn() const { return store_.param_vector(bn_); }
  std::span<const float> bun() const { return store_.param_vector(bun_); }
  ConstMatView wo() const { return store_.param_matrix(wo_); }
  std::span<const float> bo() const { return store_.param_vector(bo_); }

  /// Add the gradients of data[batch[0]], data[batch[1]], ... to
  /// store().all_grads() (summed, not averaged; no optimizer step) and write
  /// each sequence's cross-entropy loss to `losses`. The sequences run as
  /// SIMD lanes, up to 32 per pass, yet every gradient float is bit-identical
  /// to per-sequence scalar BPTT applied in batch order (see gru.cpp).
  void backward_batch(std::span<const Sequence> data,
                      std::span<const std::size_t> batch,
                      std::span<float> losses);

  ParamStore& store() { return store_; }

 private:
  /// backward_batch on `lease`'s team, chunk by chunk. With `adam_scale`,
  /// the last chunk's row shards then scale their gradients by it and
  /// apply one Adam step to their parameters.
  void accumulate(std::span<const Sequence> data,
                  std::span<const std::size_t> batch, std::span<float> losses,
                  const util::Team::Lease& lease,
                  std::optional<float> adam_scale);
  /// Lay out one chunk's lane shards for at most `width` threads; returns
  /// the shard count.
  std::size_t layout_chunk(std::span<const Sequence> data,
                           std::span<const std::size_t> chunk,
                           std::size_t width);
  /// Phase A: lane shard `shard`'s forward pass, head, loss and BPTT.
  void lane_shard(std::span<const Sequence> data,
                  std::span<const std::size_t> chunk, std::span<float> losses,
                  std::size_t shard);
  /// The chunk's weight-gradient updates in scalar order (serial).
  void order_updates(std::span<const Sequence> data,
                     std::span<const std::size_t> chunk);
  /// Phase B: row shard `shard` of `shards` accumulates its parameter
  /// rows' gradients and, with `adam_scale`, scales and steps them.
  void row_shard(std::size_t shard, std::size_t shards, std::size_t nb,
                 std::optional<float> adam_scale);

  /// Lane tiles of one shard, in one block of the arena. Lane-major:
  /// element (unit i, lane l) of step t sits at (t * units + i) * lanes + l.
  enum Tile : std::size_t {
    kX,                          // inputs
    kZ, kR, kN, kS, kH,          // activations, s = Un h + bun
    kDan, kDs, kDaz, kDar,       // gate gradients per step
    kHRows,                      // h again, [lane][step][unit]
    kU, kDh, kDhPrev, kZero,     // one step's [unit][lane]
    kLogits, kDlogits,           // [class][lane]
    kLg, kProbs,                 // one lane's logits and softmax
    kTiles
  };

  /// Training tiles of the current chunk: `shards` blocks of `block`
  /// floats, each cache-line aligned, one per lane shard of `lanes` lanes.
  struct LaneTiles {
    std::size_t steps = 0, lanes = 0, shards = 0, block = 0;
    std::array<std::size_t, kTiles> at{};  ///< tile offsets in a block
    std::vector<float> arena;
    float* base = nullptr;  ///< arena's first 64-byte boundary
    std::vector<std::size_t> first;  ///< first active step per lane
    // Weight-gradient updates in scalar order (see gru.cpp).
    std::vector<std::size_t> off, head_off;
    std::vector<const float*> xs, hs, head_h;

    float* tile(std::size_t shard, Tile t) {
      return base + shard * block + at[t];
    }
  };

  /// Scratch reused across calls so that prediction and training allocate
  /// nothing per step once warm. Every element the math reads is (re)written
  /// before use. Mutable because prediction is logically const; one
  /// instance must not be used from two threads at once.
  struct Workspace {
    std::vector<float> z, r, n, s;         // step()
    std::vector<float> logits;             // head, one sequence
    std::vector<float> h_seq;              // predict_sequence
    LaneTiles lane;                        // training
  };
  mutable Workspace ws_;

  Config cfg_;
  ParamStore store_;
  Adam adam_;

  // Segment ids in the store.
  std::size_t wz_, wr_, wn_, uz_, ur_, un_;
  std::size_t bz_, br_, bn_, bun_;
  std::size_t wo_, bo_;
};

/// Softmax cross-entropy: fills `probs` and returns loss for `label`.
float softmax_cross_entropy(std::span<const float> logits, int label,
                            std::span<float> probs);

}  // namespace phftl::ml
