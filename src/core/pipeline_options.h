// PipelineOptions — the single aggregate of every pipeline knob.
//
// Before this header, concurrency, augmentation, embedding, blocking and
// reasoning options were plumbed per module (AugmentConfig here,
// EngineOptions there, ad-hoc CLI flags everywhere). PipelineOptions
// gathers them into one struct with one validation point, and the shared
// ParallelOptions configured once flows into both the augmentation stages
// and the reasoning engine.
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
#include "datalog/engine.h"

namespace vadalink::core {

struct PipelineOptions {
  /// Concurrency, configured once. Applied to the augmentation pipeline
  /// (walks, skip-gram, k-means, blocking, pairwise scoring) and to the
  /// reasoning engine's rule matching alike. threads = 1 (default) keeps
  /// every augmentation stage on its sequential legacy path; the engine
  /// commits the same facts at every thread count.
  ParallelOptions parallel;

  /// Augmentation (Algorithm 1) knobs, including the embedding and
  /// blocking stage configs. augment.parallel is overwritten by `parallel`
  /// in EffectiveAugment() — set concurrency once, here.
  AugmentConfig augment;

  /// Reasoning knobs. engine.run_ctx and engine.pool are per-run wiring
  /// and are filled in by EffectiveEngine(), not here.
  datalog::EngineOptions engine;

  /// Observability (DESIGN.md section 8). `metrics` is a borrowed sink for
  /// every instrumented stage (nullptr = observability off; must outlive
  /// the runs that use it); EffectiveEngine() forwards it, and callers
  /// pass it to Augment() / Reason() themselves. The remaining knobs
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
  /// concurrency bounds, the embedding/blocking stage configs and the
  /// engine limits. Returns kInvalidArgument with a field-specific
  /// message on the first violation.
  Status Validate() const;

  /// `augment` with the shared `parallel` applied.
  AugmentConfig EffectiveAugment() const;

  /// `engine` with the shared governor/pool wiring applied. `pool` may be
  /// nullptr (sequential); it must outlive the engine run.
  datalog::EngineOptions EffectiveEngine(const RunContext* run_ctx,
                                         ThreadPool* pool) const;
};

/// Deprecated alias kept for call sites written against the pre-aggregate
/// name; new code should spell PipelineOptions.
using PipelineConfig [[deprecated("use PipelineOptions")]] = PipelineOptions;

}  // namespace vadalink::core
