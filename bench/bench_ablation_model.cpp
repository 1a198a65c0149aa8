// Design-exploration ablation: which model should the Page Classifier be?
//
// The paper (§III-B) reports exploring "a wide variety of machine learning
// models and input features" before settling on the GRU sequence model,
// noting that prev_lifetime alone reaches ~70% accuracy and that the full
// time series pushes past 90%. This bench reruns that exploration offline:
// it extracts labelled (feature-sequence, label) datasets from suite
// traces (label = ground-truth lifetime ≤ the CDF knee) and trains
//   * logistic regression  (last step only, compact encoding),
//   * a 2-layer MLP        (last step only, hex encoding),
//   * the GRU              (full sequence, hex encoding),
// reporting held-out accuracy and parameter counts.
#include <cstdio>
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "core/features.hpp"
#include "core/threshold.hpp"
#include "ml/gru.hpp"
#include "ml/logreg.hpp"
#include "ml/mlp.hpp"
#include "trace/alibaba_suite.hpp"
#include "trace/trace.hpp"
#include "util/table.hpp"

namespace {

using namespace phftl;
using namespace phftl::core;

struct Dataset {
  std::vector<ml::Sequence> train, test;
};

/// Reconstruct per-page feature sequences from a trace and label each write
/// event by its ground-truth lifetime vs the CDF knee.
Dataset build_dataset(const Trace& trace, std::size_t max_samples,
                      std::uint64_t seed) {
  const auto lifetimes = annotate_lifetimes(trace);
  auto cdf = lifetime_cdf_samples(trace, 4000);
  const std::uint64_t knee = ThresholdController::inflection_point(
      std::vector<std::uint64_t>(cdf.begin(), cdf.end()));

  FeatureTracker tracker({trace.logical_pages, 256, 4096});
  std::vector<std::uint32_t> last_write(trace.logical_pages, 0xFFFFFFFFu);
  std::vector<std::vector<RawFeatures>> history(trace.logical_pages);

  Xoshiro256 rng(seed);
  std::vector<ml::Sequence> pos, neg;
  std::uint64_t clock = 0;
  for (const auto& req : trace.ops) {
    tracker.observe_request(req);
    if (req.op != OpType::kWrite) continue;
    WriteContext ctx;
    ctx.io_len_pages = req.num_pages;
    for (std::uint32_t i = 0; i < req.num_pages; ++i) {
      const Lpn lpn = req.start_lpn + i;
      const std::uint32_t prev =
          last_write[lpn] == 0xFFFFFFFFu
              ? 0xFFFFFFFFu
              : static_cast<std::uint32_t>(clock - last_write[lpn]);
      const RawFeatures raw = tracker.make_features(lpn, prev, ctx);
      auto& hist = history[lpn];
      hist.push_back(raw);
      if (hist.size() > 8) hist.erase(hist.begin());

      if (lifetimes[clock] != kInfiniteLifetime && hist.size() >= 2 &&
          rng.next_bool(0.25)) {
        ml::Sequence s;
        s.label = lifetimes[clock] <= knee ? 1 : 0;
        for (const auto& f : hist) s.steps.push_back(encode_features(f));
        (s.label ? pos : neg).push_back(std::move(s));
      }
      last_write[lpn] = static_cast<std::uint32_t>(clock);
      ++clock;
    }
  }

  // Balance and split 75/25.
  Dataset d;
  const std::size_t per_class =
      std::min({max_samples / 2, pos.size(), neg.size()});
  for (auto* cls : {&pos, &neg}) {
    deterministic_shuffle(*cls, rng);
    for (std::size_t i = 0; i < per_class; ++i) {
      auto& dst = (i % 4 == 3) ? d.test : d.train;
      dst.push_back(std::move((*cls)[i]));
    }
  }
  deterministic_shuffle(d.train, rng);
  return d;
}

std::vector<std::vector<float>> last_steps(const std::vector<ml::Sequence>& s) {
  std::vector<std::vector<float>> out;
  out.reserve(s.size());
  for (const auto& seq : s) out.push_back(seq.steps.back());
  return out;
}
std::vector<int> labels_of(const std::vector<ml::Sequence>& s) {
  std::vector<int> out;
  out.reserve(s.size());
  for (const auto& seq : s) out.push_back(seq.label);
  return out;
}

/// One trace's full exploration: dataset extraction + the three models.
/// Returns an empty row when the trace yields too few samples.
std::vector<std::string> explore_trace(const char* id) {
    const auto& spec = suite_spec(id);
    const Trace trace = make_suite_trace(spec, 3.0);
    const Dataset d = build_dataset(trace, 6000, 11);
    if (d.train.size() < 100) return {};

    // Logistic regression on compact last-step features.
    float lr_acc;
    {
      auto to_compact = [](const std::vector<ml::Sequence>& seqs) {
        // The compact encoding needs raw features; rebuild from hex is
        // impossible, so approximate: logreg consumes the hex encoding
        // directly here — its known weakness (see features.hpp).
        return last_steps(seqs);
      };
      ml::LogisticRegression::Config cfg;
      cfg.input_dim = core::kInputDim;
      cfg.epochs = 30;
      cfg.lr = 0.3f;
      ml::LogisticRegression model(cfg);
      model.fit(to_compact(d.train), labels_of(d.train));
      lr_acc = model.evaluate(to_compact(d.test), labels_of(d.test));
    }

    // MLP on the last step.
    float mlp_acc;
    {
      ml::MlpClassifier::Config cfg;
      cfg.input_dim = core::kInputDim;
      ml::MlpClassifier model(cfg);
      Xoshiro256 rng(3);
      for (int e = 0; e < 15; ++e)
        model.train_epoch(last_steps(d.train), labels_of(d.train), 32, rng);
      mlp_acc = model.evaluate(last_steps(d.test), labels_of(d.test));
    }

    // GRU on the full sequence.
    float gru_acc;
    std::size_t gru_params;
    {
      ml::GruClassifier::Config cfg;
      cfg.input_dim = core::kInputDim;
      cfg.hidden_dim = 32;
      cfg.adam.lr = 3e-3f;
      ml::GruClassifier model(cfg);
      Xoshiro256 rng(4);
      for (int e = 0; e < 15; ++e) model.train_epoch(d.train, 32, rng);
      gru_acc = model.evaluate(d.test);
      gru_params = model.num_params();
    }

    return {id, std::to_string(d.train.size() + d.test.size()),
            TextTable::num(lr_acc), TextTable::num(mlp_acc),
            TextTable::num(gru_acc), std::to_string(gru_params)};
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<const char*> ids = {"#52", "#141", "#721", "#228"};
  const unsigned threads = util::grid_threads(
      phftl::bench::jobs_from_cli(argc, argv), ids.size());
  std::printf("Model exploration: classifier choice for the Page "
              "Classifier (balanced datasets, 75/25 split), %u job(s)\n\n",
              threads);

  // Each trace's exploration is self-contained (own dataset, own seeded
  // models), so traces run concurrently and rows land in trace order.
  const std::vector<std::vector<std::string>> rows =
      util::run_grid(threads, ids.size(),
                     [&ids](std::size_t i) { return explore_trace(ids[i]); });

  TextTable table;
  table.header({"trace", "samples", "LogReg", "MLP (last step)",
                "GRU (sequence)", "GRU params"});
  for (const std::vector<std::string>& r : rows)
    if (!r.empty()) table.row(r);
  table.render(std::cout);
  std::printf(
      "\nPaper (§III-B): prev_lifetime alone gives ~70%%; request/locality "
      "features help; the full\ntime series pushes accuracy past 90%%. The "
      "sequence model should dominate the last-step-only\nmodels here, at a "
      "parameter budget that still fits controller SRAM.\n");
  return 0;
}
