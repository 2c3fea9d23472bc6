// In-memory span log and its Chrome trace-event writer. Spans are kept in
// memory while the benchmark runs and written out once at exit.
#pragma once

#include <string>
#include <vector>

#include "metrics.h"

namespace servebench {

/// Microseconds on the steady clock since the first call in this process.
double NowUs();

/// Single-threaded span log with an implicit parent stack: a span opened while
/// another is open becomes its child.
class SpanLog {
 public:
  class Scope {
   public:
    Scope(SpanLog* log, size_t index) : log_(log), index_(index) {}
    ~Scope() { log_->Close(index_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog* log_;
    size_t index_;
  };

  /// Opens a span under the innermost open one; it closes with the Scope.
  [[nodiscard]] Scope Open(const std::string& name);

  /// Appends an already-timed span; assigns its id when it has none.
  uint64_t Add(Span span);

  /// Renames the most recently opened span (e.g. once its outcome is known).
  void RenameLast(const std::string& name) { spans_.back().name = name; }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  uint64_t NextId() { return ++last_id_; }
  void Close(size_t index);

  std::vector<Span> spans_;
  std::vector<size_t> open_;  ///< Indices into spans_ of the open spans.
  uint64_t last_id_ = 0;
};

/// Writes `spans` as Chrome trace-event JSON ("X" complete events; one row per
/// track, named by `track_prefix` + track id). Returns false on IO failure.
bool WriteChromeTrace(const std::string& path, const std::vector<Span>& spans,
                      const std::string& track_prefix);

}  // namespace servebench
