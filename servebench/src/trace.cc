#include "trace.h"

#include <chrono>
#include <cstdio>
#include <set>

namespace servebench {

double NowUs() {
  static const auto kEpoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() -
                                                   kEpoch)
      .count();
}

SpanLog::Scope SpanLog::Open(const std::string& name) {
  Span s;
  s.id = NextId();
  s.parent = open_.empty() ? 0 : spans_[open_.back()].id;
  s.name = name;
  s.start_us = NowUs();
  s.end_us = s.start_us;
  spans_.push_back(std::move(s));
  open_.push_back(spans_.size() - 1);
  return Scope(this, spans_.size() - 1);
}

void SpanLog::Close(size_t index) {
  spans_[index].end_us = NowUs();
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

uint64_t SpanLog::Add(Span span) {
  if (span.id == 0) span.id = NextId();
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

bool WriteChromeTrace(const std::string& path, const std::vector<Span>& spans,
                      const std::string& track_prefix) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  std::set<uint64_t> tracks;
  bool first = true;
  for (const Span& s : spans) {
    tracks.insert(s.track);
    std::fprintf(f,
                 "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %llu, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %llu, "
                 "\"parent\": %llu}}",
                 first ? "" : ",\n", s.name.c_str(),
                 static_cast<unsigned long long>(s.track), s.start_us,
                 s.end_us - s.start_us, static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent));
    first = false;
  }
  for (uint64_t t : tracks) {
    std::fprintf(f,
                 "%s{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, "
                 "\"tid\": %llu, \"args\": {\"name\": \"%s%llu\"}}",
                 first ? "" : ",\n", static_cast<unsigned long long>(t),
                 track_prefix.c_str(), static_cast<unsigned long long>(t));
    first = false;
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace servebench
