// Layer harness of the traced run: replays a workload's generated inputs
// through the public AlayaDB / Session calls, one span around each call, so
// each layer's self time can be read off without touching the program.
#pragma once

#include <string>
#include <vector>

#include "metrics.h"
#include "workloads.h"

namespace servebench {

struct HarnessResult {
  alaya::Status status;
  std::vector<Span> spans;
  double step_coverage = 0;      ///< Child-span share of all decode-step wall time.
  double min_step_coverage = 0;  ///< Lowest share of any single decode step.
  size_t steps = 0;
  double import_s = 0;           ///< Median AlayaDB::Import wall seconds.
  double create_session_ms = 0;  ///< Median CreateSession on a resident context.
  double page_in_ms = 0;         ///< Median CreateSession that paged a context in.
  size_t page_ins = 0;
  double materialize_ms = 0;  ///< Median StoreAsync -> Drain.
};

/// Imports `corpus`'s docs into a fresh DB whose host budget holds about one
/// and a half docs (so contexts spill to `spill_dir` and later page back in),
/// then replays the first request of each doc from the workload's seeded
/// traffic: CreateSession, chunked UpdateBatch prefill, `decode_steps` decode
/// steps of Update + AttendHead per head, and StoreAsync + Drain.
HarnessResult RunHarness(const Fixture& corpus, uint64_t seed, double seconds,
                         const std::string& spill_dir, size_t decode_steps);

}  // namespace servebench
