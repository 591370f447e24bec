// VadaLink — the KG augmentation framework (Algorithm 1 of the paper).
//
// Each round:
//   1. first-level clustering: node2vec embedding + k-means
//      (#GraphEmbedClust), recomputed on the current graph so edges
//      predicted in earlier rounds improve the embedding (the paper's
//      reinforcement principle);
//   2. second-level blocking: feature hashing (#GenerateBlocks) within
//      each embedding cluster;
//   3. pairwise Candidate evaluation inside every block, and global
//      Candidate evaluation (control / close links) once per round;
//   4. predicted links are added as typed edges; the loop repeats until a
//      round adds nothing or max_rounds is reached.
#pragma once

#include <memory>
#include <vector>

#include "common/metrics.h"
#include "common/parallel.h"
#include "common/run_context.h"
#include "common/status.h"
#include "core/candidates.h"
#include "core/link_class.h"
#include "embed/embed_clusterer.h"
#include "graph/property_graph.h"
#include "linkage/blocking.h"

namespace vadalink::core {

struct AugmentConfig {
  embed::EmbedClusterConfig embedding;
  linkage::BlockingConfig blocking;
  /// Upper bound on augmentation rounds (the fixpoint usually closes in
  /// 2-3 rounds on register-like data).
  size_t max_rounds = 3;
  /// Ablation knobs: disable the first-level embedding clustering and/or
  /// the second-level feature blocking. With both off, every pair of nodes
  /// is compared ("no cluster mode" of Section 6.2).
  bool use_embedding = true;
  bool use_blocking = true;
  /// Share of the run's remaining wall-clock granted to the embedding
  /// stage each round (when Augment() runs under a RunContext deadline).
  /// An embedding stage that exhausts its sub-deadline degrades the round
  /// to feature-blocking-only instead of sinking the whole run.
  double embed_deadline_fraction = 0.5;
  /// Optional per-round work budget for the embedding stage, in stage
  /// units (node2vec walks + k-means iterations). 0 = unlimited. Exceeding
  /// it degrades the round exactly like a sub-deadline expiry.
  size_t embed_work_budget = 0;
  /// Concurrency of the embedding, blocking and pairwise-candidate stages.
  /// Walks, k-means, blocking and pair scoring give the same output at
  /// every thread count and grain. Hogwild skip-gram is the one stage
  /// whose output depends on the thread count, so with use_embedding =
  /// false the committed links are identical at every thread count.
  ParallelOptions parallel;
};

struct AugmentStats {
  size_t rounds = 0;
  size_t links_added = 0;
  size_t pairs_compared = 0;
  size_t first_level_clusters = 0;
  size_t second_level_blocks = 0;
  double embed_seconds = 0.0;
  double block_seconds = 0.0;
  double candidate_seconds = 0.0;
  /// Rounds that fell back to feature-blocking-only after the embedding
  /// stage hit its sub-deadline or sub-budget.
  size_t degraded_rounds = 0;
  /// Deadline trips observed anywhere in the run (stage or whole-run).
  size_t deadline_hits = 0;
  /// True when the run stopped before its natural fixpoint (deadline,
  /// budget or cancellation). Links committed by completed work remain in
  /// the graph; `interrupt` carries the Status that stopped the run.
  bool truncated = false;
  Status interrupt;
};

class VadaLink {
 public:
  explicit VadaLink(AugmentConfig config) : config_(std::move(config)) {}

  /// Registers a candidate implementation (order preserved).
  void AddCandidate(std::unique_ptr<Candidate> candidate) {
    candidates_.push_back(std::move(candidate));
  }

  const AugmentConfig& config() const { return config_; }
  AugmentConfig* mutable_config() { return &config_; }

  /// Runs Algorithm 1 on `g`, adding predicted edges in place.
  ///
  /// `run_ctx` (nullptr = unlimited) governs the run: a deadline, a work
  /// budget (one unit per compared pair, plus embedding stage units) or a
  /// cancellation request stops the loop *gracefully* — links committed by
  /// completed work stay in `g`, the call still returns OK with stats, and
  /// `truncated` / `deadline_hits` / `degraded_rounds` report what was cut
  /// short. Only real errors (e.g. a failing candidate or an injected
  /// fault) surface as a non-OK Result.
  ///
  /// `metrics` (nullable) receives the augment.* / linkage.* counters and
  /// the augment/round#/{embed,block,candidates} span tree (embed nests
  /// walks / skipgram / kmeans beneath it); see DESIGN.md section 8.
  Result<AugmentStats> Augment(graph::PropertyGraph* g,
                               const RunContext* run_ctx = nullptr,
                               MetricsRegistry* metrics = nullptr);

 private:
  /// Adds a predicted link if absent; returns true if added.
  static bool AddLink(graph::PropertyGraph* g, const PredictedLink& link);

  AugmentConfig config_;
  std::vector<std::unique_ptr<Candidate>> candidates_;
};

/// Convenience: a VadaLink instance wired with the default candidates for
/// the three problems of the paper (family detection via the default
/// person schema, company control, close links).
VadaLink MakeDefaultVadaLink(AugmentConfig config = {});

}  // namespace vadalink::core
