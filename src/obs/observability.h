// The observability facade: one registry + the pipeline's named metric set
// + per-worker trace rings, bundled so every layer can be handed a single
// nullable pointer. A null Observability* means every instrumentation site
// is a branch-not-taken — the same convention as core::FaultInjector.
#pragma once

#include <cstddef>
#include <cstdint>

#include "obs/metrics.h"
#include "obs/trace_ring.h"

namespace hermes::obs {

struct Observability {
  // Records each worker's trace ring keeps.
  static constexpr size_t kRingCapacity = 4096;

  explicit Observability(uint32_t workers)
      : registry(workers),
        metrics(registry, workers),
        traces(workers, kRingCapacity) {}

  Registry registry;
  PipelineMetrics metrics;
  TraceBuffer traces;
};

}  // namespace hermes::obs
