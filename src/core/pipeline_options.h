// PipelineOptions — the single aggregate of the pipeline's knobs.
//
// Concurrency, augmentation (with its embedding and blocking stages) and
// observability options sit in one struct with one validation point, and
// the shared ParallelOptions configured once flows into both the
// augmentation stages and the reasoning engine.
//
//   core::PipelineOptions opts;
//   opts.parallel.threads = 8;
//   VL_RETURN_NOT_OK(opts.Validate());
//   core::VadaLink vl = core::MakeDefaultVadaLink(opts.EffectiveAugment());
//   kg.set_parallel(opts.parallel);
#pragma once

#include <string>

#include "common/metrics.h"
#include "common/parallel.h"
#include "common/status.h"
#include "core/vada_link.h"

namespace vadalink::core {

struct PipelineOptions {
  /// Concurrency, configured once. Applied to the augmentation pipeline
  /// (walks, skip-gram, k-means, blocking, pairwise scoring) and to the
  /// reasoning engine's rule matching alike. Every stage but hogwild
  /// skip-gram gives the same output at every thread count, and the
  /// engine commits the same facts at every thread count.
  ParallelOptions parallel;

  /// Augmentation (Algorithm 1) knobs, including the embedding and
  /// blocking stage configs. augment.parallel is overwritten by `parallel`
  /// in EffectiveAugment() — set concurrency once, here.
  AugmentConfig augment;

  /// Observability (DESIGN.md section 8). `metrics` is a borrowed sink for
  /// every instrumented stage (nullptr = observability off; must outlive
  /// the runs that use it); callers pass it to Augment() / Reason()
  /// themselves. The remaining knobs
  /// mirror the CLI: `metrics_json_path` (--metrics-json) is where the
  /// driver writes the registry's JSON document after the run, `trace`
  /// (--trace) asks for the human-readable span-tree report, and
  /// `metrics_wall` (--metrics-wall) opts wall-clock timings into the JSON
  /// (off by default so the document stays byte-stable run-to-run).
  MetricsRegistry* metrics = nullptr;
  std::string metrics_json_path;
  bool trace = false;
  bool metrics_wall = false;

  /// The single validation point for the whole pipeline: checks the
  /// concurrency bounds and the augmentation and embedding stage configs.
  /// Returns kInvalidArgument with a field-specific message on the first
  /// violation.
  Status Validate() const;

  /// `augment` with the shared `parallel` applied.
  AugmentConfig EffectiveAugment() const;
};

}  // namespace vadalink::core
