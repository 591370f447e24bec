#include "core/pipeline_options.h"

#include <string>

namespace vadalink::core {

Status PipelineOptions::Validate() const {
  VL_RETURN_NOT_OK(parallel.Validate());
  if (augment.max_rounds == 0) {
    return Status::InvalidArgument("augment.max_rounds must be >= 1");
  }
  if (augment.embed_deadline_fraction < 0.0 ||
      augment.embed_deadline_fraction > 1.0) {
    return Status::InvalidArgument(
        "augment.embed_deadline_fraction must be in [0, 1], got " +
        std::to_string(augment.embed_deadline_fraction));
  }
  const embed::EmbedClusterConfig& ec = augment.embedding;
  if (ec.walk.walk_length == 0) {
    return Status::InvalidArgument("embedding.walk.walk_length must be >= 1");
  }
  if (ec.walk.walks_per_node == 0) {
    return Status::InvalidArgument(
        "embedding.walk.walks_per_node must be >= 1");
  }
  if (ec.walk.p <= 0.0 || ec.walk.q <= 0.0) {
    return Status::InvalidArgument(
        "embedding.walk.p and .q must be positive");
  }
  if (ec.skipgram.dimensions == 0) {
    return Status::InvalidArgument(
        "embedding.skipgram.dimensions must be >= 1");
  }
  if (ec.skipgram.epochs == 0) {
    return Status::InvalidArgument("embedding.skipgram.epochs must be >= 1");
  }
  if (ec.skipgram.window == 0) {
    return Status::InvalidArgument("embedding.skipgram.window must be >= 1");
  }
  if (ec.kmeans.k == 0) {
    return Status::InvalidArgument("embedding.kmeans.k must be >= 1");
  }
  return Status::OK();
}

AugmentConfig PipelineOptions::EffectiveAugment() const {
  AugmentConfig out = augment;
  out.parallel = parallel;
  return out;
}

}  // namespace vadalink::core
