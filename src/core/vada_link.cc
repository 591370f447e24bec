#include "core/vada_link.h"

#include <algorithm>
#include <string>
#include <unordered_map>

#include "common/fault_injection.h"
#include "common/timer.h"
#include "company/family.h"

namespace vadalink::core {

namespace {

/// Records a governor trip on the stats: the run ends gracefully, keeping
/// everything committed so far.
void RecordInterrupt(Status st, AugmentStats* stats) {
  stats->truncated = true;
  if (st.code() == StatusCode::kDeadlineExceeded) ++stats->deadline_hits;
  stats->interrupt = std::move(st);
}

}  // namespace

bool VadaLink::AddLink(graph::PropertyGraph* g, const PredictedLink& link) {
  const char* label = LinkClassName(link.cls);
  if (g->FindEdge(link.x, link.y, label) != graph::kInvalidEdge) {
    return false;
  }
  auto e = g->AddEdge(link.x, link.y, label);
  if (!e.ok()) return false;
  g->SetEdgeProperty(e.value(), "predicted", true);
  g->SetEdgeProperty(e.value(), "score", link.score);
  return true;
}

Result<AugmentStats> VadaLink::Augment(graph::PropertyGraph* g,
                                       const RunContext* run_ctx,
                                       MetricsRegistry* metrics) {
  VL_FAULT_POINT("core.augment");
  VL_RETURN_NOT_OK(config_.parallel.Validate());
  AugmentStats stats;
  embed::EmbedClusterer clusterer(config_.embedding);
  linkage::Blocker blocker(config_.blocking);
  // One pool for the whole run (nullptr when threads resolve to 1: every
  // stage then runs its chunks inline).
  std::unique_ptr<ThreadPool> pool = MakeThreadPool(config_.parallel);
  WallTimer timer;
  ScopedSpan augment_span(metrics, "augment", run_ctx);
  size_t pairs_accepted = 0;

  bool changed = true;
  while (changed && stats.rounds < config_.max_rounds) {
    // Round boundary: a tripped governor ends the run here, with every
    // link committed by earlier rounds preserved.
    if (Status st = CheckRunNow(run_ctx); !st.ok()) {
      RecordInterrupt(std::move(st), &stats);
      break;
    }
    VL_FAULT_POINT("core.augment_round");
    changed = false;
    ScopedSpan round_span(
        metrics, "round" + std::to_string(stats.rounds), run_ctx);
    ++stats.rounds;

    // ---- first-level clustering (#GraphEmbedClust) ----------------------
    timer.Restart();
    std::vector<uint32_t> cluster_of(g->node_count(), 0);
    size_t cluster_count = 1;
    if (config_.use_embedding && g->node_count() > 1) {
      ScopedSpan embed_span(metrics, "embed", run_ctx);
      // The embedding stage runs under a sub-context: a slice of the
      // remaining wall-clock and/or its own work budget. If the slice runs
      // out, this round degrades to feature-blocking-only — the paper's
      // `use_embedding = false` ablation — instead of failing the run.
      RunContext embed_ctx;
      const RunContext* stage_ctx = run_ctx;
      bool stage_limited = false;
      if (run_ctx != nullptr && run_ctx->has_deadline()) {
        double slice = run_ctx->remaining_seconds() *
                       std::clamp(config_.embed_deadline_fraction, 0.0, 1.0);
        embed_ctx.set_deadline_after_ms(
            std::max<int64_t>(0, static_cast<int64_t>(slice * 1e3)));
        stage_limited = true;
      }
      if (config_.embed_work_budget > 0) {
        embed_ctx.set_work_budget(config_.embed_work_budget);
        stage_limited = true;
      }
      if (stage_limited) {
        embed_ctx.set_parent(run_ctx);
        stage_ctx = &embed_ctx;
      }
      VL_ASSIGN_OR_RETURN(
          cluster_of, clusterer.Cluster(*g, stage_ctx, pool.get(), metrics));
      if (clusterer.last_interrupted()) {
        if (Status st = CheckRunNow(run_ctx); !st.ok()) {
          // The *run* governor tripped, not just the stage slice.
          stats.embed_seconds += timer.ElapsedSeconds();
          RecordInterrupt(std::move(st), &stats);
          break;
        }
        cluster_of.assign(g->node_count(), 0);
        ++stats.degraded_rounds;
        if (stage_ctx != run_ctx &&
            stage_ctx->CheckNow().code() == StatusCode::kDeadlineExceeded) {
          ++stats.deadline_hits;
        }
      } else {
        cluster_count = clusterer.last_kmeans().k_effective;
      }
    }
    stats.embed_seconds += timer.ElapsedSeconds();
    stats.first_level_clusters = cluster_count;

    // ---- second-level blocking (#GenerateBlocks) -------------------------
    timer.Restart();
    // (cluster, block) -> node list, each list in node order
    std::unordered_map<uint64_t, std::vector<graph::NodeId>> blocks;
    Status block_st;
    {
      ScopedSpan block_span(metrics, "block", run_ctx);
      std::vector<uint64_t> block_of(g->node_count(), 0);
      if (config_.use_blocking) {
        Result<std::vector<uint64_t>> ids =
            blocker.BlockAll(*g, run_ctx, pool.get());
        block_st = ids.status();
        if (ids.ok()) block_of = std::move(ids).value();
      }
      if (block_st.ok()) {
        for (graph::NodeId n = 0; n < g->node_count(); ++n) {
          uint64_t key =
              (static_cast<uint64_t>(cluster_of[n]) << 40) ^ block_of[n];
          blocks[key].push_back(n);
        }
      }
    }
    stats.block_seconds += timer.ElapsedSeconds();
    stats.second_level_blocks = blocks.size();
    if (block_st.ok()) {
      // Block-shape metrics, recorded once per round at the sequential
      // merge (identical at every thread count). Histogram totals commute,
      // so the unordered iteration order is immaterial.
      MetricAdd(metrics, "linkage.blocks.created", blocks.size());
      if (metrics != nullptr) {
        MetricsHistogram* sizes = metrics->Histogram("linkage.block.size");
        for (const auto& [key, members] : blocks) sizes->Record(members.size());
      }
    }
    if (!block_st.ok()) {
      // Incomplete blocks must not be compared; end the run before the
      // candidate stage mutates anything this round.
      RecordInterrupt(std::move(block_st), &stats);
      break;
    }

    // ---- candidate evaluation --------------------------------------------
    timer.Restart();
    Status cand_st;
    ScopedSpan cand_span(metrics, "candidates", run_ctx);
    for (const auto& candidate : candidates_) {
      if (candidate->is_pairwise()) {
        // One block per chunk (grain 1): each chunk collects its links
        // against the round's frozen graph (TestPair is read-only, see
        // Candidate), and AddLink commits them afterwards in block order,
        // so the committed links do not depend on the thread count.
        std::vector<const std::vector<graph::NodeId>*> block_list;
        block_list.reserve(blocks.size());
        for (const auto& [key, members] : blocks) {
          block_list.push_back(&members);
        }
        struct BlockOut {
          std::vector<PredictedLink> links;
          size_t pairs = 0;
        };
        std::vector<BlockOut> outs(block_list.size());
        cand_st = ParallelFor(
            pool.get(), block_list.size(), 1, run_ctx,
            [&](size_t begin, size_t end, size_t) {
              for (size_t b = begin; b < end; ++b) {
                const auto& members = *block_list[b];
                BlockOut& out = outs[b];
                for (size_t i = 0; i < members.size(); ++i) {
                  for (size_t j = i + 1; j < members.size(); ++j) {
                    VL_RETURN_NOT_OK(ConsumeRunWork(run_ctx, 1));
                    ++out.pairs;
                    auto link = candidate->TestPair(*g, members[i], members[j]);
                    if (link.has_value()) out.links.push_back(*link);
                  }
                }
              }
              return Status::OK();
            });
        // After a trip, what was compared still commits: every finished
        // block, and a tripped block up to the pair that tripped.
        for (const BlockOut& out : outs) {
          stats.pairs_compared += out.pairs;
          pairs_accepted += out.links.size();
          for (const PredictedLink& link : out.links) {
            if (AddLink(g, link)) {
              ++stats.links_added;
              changed = true;
            }
          }
        }
      } else {
        VL_ASSIGN_OR_RETURN(std::vector<PredictedLink> links,
                            candidate->RunGlobal(*g));
        for (const PredictedLink& link : links) {
          if (AddLink(g, link)) {
            ++stats.links_added;
            changed = true;
          }
        }
        cand_st = CheckRunNow(run_ctx);
      }
      if (!cand_st.ok()) break;
    }
    stats.candidate_seconds += timer.ElapsedSeconds();
    if (!cand_st.ok()) {
      // Mid-round trip: links already added this round stay (each AddLink
      // is atomic w.r.t. the graph), the rest of the round is abandoned.
      RecordInterrupt(std::move(cand_st), &stats);
      break;
    }
  }

  // Run totals, published once from the (deterministic) stats so repeated
  // Augment() calls accumulate in the registry.
  MetricAdd(metrics, "augment.rounds", stats.rounds);
  MetricAdd(metrics, "augment.links.added", stats.links_added);
  MetricAdd(metrics, "augment.degraded_rounds", stats.degraded_rounds);
  MetricAdd(metrics, "linkage.pairs.scored", stats.pairs_compared);
  MetricAdd(metrics, "linkage.pairs.accepted", pairs_accepted);
  MetricAdd(metrics, "linkage.pairs.rejected",
            stats.pairs_compared - pairs_accepted);
  return stats;
}

VadaLink MakeDefaultVadaLink(AugmentConfig config) {
  if (config.blocking.keys.empty()) {
    config.blocking = company::DefaultPersonBlocking();
  }
  VadaLink vl(std::move(config));
  vl.AddCandidate(std::make_unique<FamilyCandidate>(
      linkage::BayesLinkClassifier(company::DefaultPersonSchema())));
  vl.AddCandidate(std::make_unique<ControlCandidate>());
  vl.AddCandidate(std::make_unique<CloseLinkCandidate>());
  return vl;
}

}  // namespace vadalink::core
