#include "embed/embed_clusterer.h"

namespace vadalink::embed {

Result<std::vector<uint32_t>> EmbedClusterer::Cluster(
    const graph::PropertyGraph& g, const RunContext* run_ctx,
    ThreadPool* pool, MetricsRegistry* metrics) {
  if (config_.skipgram.dimensions == 0) {
    return Status::InvalidArgument(
        "EmbedClusterConfig.skipgram.dimensions must be positive");
  }
  if (config_.skipgram.window == 0) {
    return Status::InvalidArgument(
        "EmbedClusterConfig.skipgram.window must be positive");
  }
  if (config_.walk.walk_length == 0) {
    return Status::InvalidArgument(
        "EmbedClusterConfig.walk.walk_length must be positive");
  }
  interrupted_ = false;
  WalkGraph wg(g, config_.walk.weight_property);
  std::vector<std::vector<uint32_t>> walks;
  {
    ScopedSpan span(metrics, "walks", run_ctx);
    walks = GenerateWalks(wg, config_.walk, run_ctx, pool, metrics);
  }
  // A stage that trips its context leaves the remaining stages no budget;
  // each stop is cooperative, so the pipeline still hands back a usable
  // (if degraded) assignment and flags the truncation.
  if (!CheckRunNow(run_ctx).ok()) interrupted_ = true;
  {
    ScopedSpan span(metrics, "skipgram", run_ctx);
    embedding_ = TrainSkipGram(walks, g.node_count(), config_.skipgram,
                               run_ctx, pool, metrics);
  }
  if (!CheckRunNow(run_ctx).ok()) interrupted_ = true;
  {
    ScopedSpan span(metrics, "kmeans", run_ctx);
    kmeans_ = KMeans(embedding_, config_.kmeans, run_ctx, pool, metrics);
  }
  if (kmeans_.interrupted) interrupted_ = true;
  return kmeans_.assignment;
}

}  // namespace vadalink::embed
